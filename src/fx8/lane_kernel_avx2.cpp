// AVX2 lane pass: the only translation unit built with -mavx2, so the
// vector kernel can inline intrinsics while the rest of the build stays
// baseline-ISA. Only reached through select_lane_pass(), which verifies
// CPU support at runtime.
#include "fx8/lane_kernel.hpp"

#if defined(FX8_HAVE_AVX2)

#include <immintrin.h>

namespace repro::fx8 {

namespace {

/// Widen the low/high four 32-bit lanes of a mask vector to 64-bit lanes
/// (lane masks are 0 or -1, so sign extension widens them exactly).
inline __m256i mask_lo64(__m256i m32) {
  return _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m32));
}
inline __m256i mask_hi64(__m256i m32) {
  return _mm256_cvtepi32_epi64(_mm256_extracti128_si256(m32, 1));
}

/// counters[lane] += 1 on every lane whose mask is -1 (subtracting the
/// mask adds one exactly there).
inline void bump(std::uint64_t* counters, __m256i m_lo, __m256i m_hi) {
  auto* lo = reinterpret_cast<__m256i*>(counters);
  auto* hi = reinterpret_cast<__m256i*>(counters + 4);
  _mm256_storeu_si256(lo, _mm256_sub_epi64(_mm256_loadu_si256(lo), m_lo));
  _mm256_storeu_si256(hi, _mm256_sub_epi64(_mm256_loadu_si256(hi), m_hi));
}

/// One eight-lane chunk of the wide pass, at lane offset `base` (global
/// CE ids base..base+7). `fill_ready8` is the fill-ready word's 8-bit
/// window for those lanes. Returns the chunk's slow byte.
inline std::uint32_t lane_chunk_avx2(CeHot& hot, std::uint32_t base,
                                     std::uint32_t fill_ready8) {
  const __m256i zero = _mm256_setzero_si256();
  // Widen the phase bytes to one 32-bit lane per CE.
  const __m128i phase8 = _mm_loadl_epi64(
      reinterpret_cast<const __m128i*>(hot.phase.data() + base));
  const __m256i phase = _mm256_cvtepu8_epi32(phase8);
  const auto is_phase = [&phase](CePhase p) {
    return _mm256_cmpeq_epi32(phase,
                              _mm256_set1_epi32(static_cast<int>(p)));
  };

  // compute_ok: kCompute with a nonzero budget.
  auto* compute_left =
      reinterpret_cast<__m256i*>(hot.compute_left.data() + base);
  const __m256i cleft = _mm256_loadu_si256(compute_left);
  const __m256i compute_ok = _mm256_andnot_si256(
      _mm256_cmpeq_epi32(cleft, zero), is_phase(CePhase::kCompute));

  // miss_ok: kMissWait with no fill ready on that lane.
  const __m256i lane_bits = _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256i fill_ready = _mm256_cmpeq_epi32(
      _mm256_and_si256(
          _mm256_set1_epi32(static_cast<int>(fill_ready8)), lane_bits),
      lane_bits);
  const __m256i miss_ok =
      _mm256_andnot_si256(fill_ready, is_phase(CePhase::kMissWait));

  // fault_ok: kFaultWait with fault_left > 1. fault_left is 64-bit
  // (Cycle) but holds small service times, so the signed compare is
  // exact.
  auto* fault_left = reinterpret_cast<__m256i*>(hot.fault_left.data() + base);
  const __m256i one64 = _mm256_set1_epi64x(1);
  const __m256i fl_lo = _mm256_loadu_si256(fault_left);
  const __m256i fl_hi = _mm256_loadu_si256(fault_left + 1);
  const __m256i is_fault = is_phase(CePhase::kFaultWait);
  const __m256i fault_lo = _mm256_and_si256(
      _mm256_cmpgt_epi64(fl_lo, one64), mask_lo64(is_fault));
  const __m256i fault_hi = _mm256_and_si256(
      _mm256_cmpgt_epi64(fl_hi, one64), mask_hi64(is_fault));
  // Narrow fault_ok to 32-bit lanes: each 64-bit mask is uniform, so the
  // even dwords carry it whole.
  const __m256i fault_ok = _mm256_blend_epi32(
      _mm256_permutevar8x32_epi32(
          fault_lo, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0)),
      _mm256_permutevar8x32_epi32(
          fault_hi, _mm256_setr_epi32(0, 0, 0, 0, 0, 2, 4, 6)),
      0xF0);

  const __m256i fast =
      _mm256_or_si256(_mm256_or_si256(compute_ok, miss_ok), fault_ok);
  const __m256i parked =
      _mm256_or_si256(is_phase(CePhase::kIdle), is_phase(CePhase::kDone));

  // Apply the fast-lane updates. Slow lanes have every mask clear, so
  // their slots store back unchanged.
  _mm256_storeu_si256(compute_left, _mm256_add_epi32(cleft, compute_ok));
  _mm256_storeu_si256(fault_left, _mm256_add_epi64(fl_lo, fault_lo));
  _mm256_storeu_si256(fault_left + 1, _mm256_add_epi64(fl_hi, fault_hi));
  bump(hot.busy_cycles.data() + base, mask_lo64(fast), mask_hi64(fast));
  bump(hot.compute_cycles.data() + base, mask_lo64(compute_ok),
       mask_hi64(compute_ok));
  bump(hot.miss_wait_cycles.data() + base, mask_lo64(miss_ok),
       mask_hi64(miss_ok));
  bump(hot.fault_wait_cycles.data() + base, mask_lo64(fault_ok),
       mask_hi64(fault_ok));

  const auto m_fast = static_cast<std::uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(fast)));
  const auto m_parked = static_cast<std::uint32_t>(
      _mm256_movemask_ps(_mm256_castsi256_ps(parked)));
  const std::uint32_t slow = ~(m_fast | m_parked) & 0xFFu;

  // Latch the bus opcodes of the lanes this pass advanced (or parked) —
  // kWait on waiting misses, kIdle elsewhere — while slow lanes keep
  // theirs for Ce::tick() to rewrite. Byte-blend instead of a lane loop:
  // narrow the 32-bit lane masks to one byte per CE and select.
  const auto narrow8 = [](__m256i m32) {
    const __m128i w16 = _mm_packs_epi32(_mm256_castsi256_si128(m32),
                                        _mm256_extracti128_si256(m32, 1));
    return _mm_packs_epi16(w16, _mm_setzero_si128());
  };
  const __m128i keep8 = narrow8(_mm256_andnot_si256(
      _mm256_or_si256(fast, parked), _mm256_set1_epi32(-1)));
  const __m128i fresh = _mm_blendv_epi8(
      _mm_set1_epi8(static_cast<char>(mem::CeBusOp::kIdle)),
      _mm_set1_epi8(static_cast<char>(mem::CeBusOp::kWait)),
      narrow8(miss_ok));
  auto* bus_op = reinterpret_cast<__m128i*>(hot.bus_op.data() + base);
  const __m128i old_ops = _mm_loadl_epi64(bus_op);
  _mm_storel_epi64(bus_op, _mm_blendv_epi8(fresh, old_ops, keep8));
  return slow;
}

}  // namespace

LaneMask lane_pass_avx2(CeHot& hot, LaneMask fill_ready_mask,
                        std::uint32_t n_lanes) {
  static_assert(kMaxTopologyCes % 8 == 0,
                "chunks of eight must tile the lane block");
  // A machine narrower than a chunk multiple still runs whole chunks:
  // lanes past the width are permanently idle (phase zero), so the chunk
  // classifies them parked and stores back idle no-ops — value-identical
  // to the scalar pass leaving them untouched. The final mask guards the
  // slow word anyway.
  LaneMask slow = 0;
  for (std::uint32_t base = 0; base < n_lanes; base += 8) {
    const auto window =
        static_cast<std::uint32_t>((fill_ready_mask >> base) & 0xFFu);
    slow |= static_cast<LaneMask>(lane_chunk_avx2(hot, base, window)) << base;
  }
  if (n_lanes < kMaxTopologyCes) {
    slow &= (LaneMask{1} << n_lanes) - 1;
  }
  return slow;
}

}  // namespace repro::fx8

#endif  // FX8_HAVE_AVX2
