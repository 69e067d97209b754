// Lane-pass differential tests.
//
// Machine::tick_block runs one machine-wide lane pass per cycle at every
// width, so the pass must be exact: the AVX2 pass against its scalar twin
// and the 64-lane pass against eight per-cluster 8-lane windows, both
// fuzzed over random hot states, plus the naive reference pass's
// all-slow contract and the FX8_FORCE_SCALAR dispatch pin.
#include "fx8/lane_kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

namespace repro {
namespace {

/// Deterministic xorshift64* stream for the fuzz states.
std::uint64_t next_rand(std::uint64_t& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545F4914F6CDD1DULL;
}

/// Fill one random machine-wide lane state, biased toward the countdown
/// decision edges.
fx8::CeHot random_hot(std::uint64_t& seed, std::uint32_t n_lanes) {
  fx8::CeHot base{};
  for (CeId c = 0; c < n_lanes; ++c) {
    base.phase[c] = static_cast<fx8::CePhase>(next_rand(seed) % 8);
    base.bus_op[c] = static_cast<mem::CeBusOp>(next_rand(seed) % 4);
    const std::array<std::uint32_t, 6> edges = {
        0u, 1u, 2u, 3u, 0xFFFFu, 0xFFFFFFFFu};
    base.compute_left[c] = edges[next_rand(seed) % edges.size()];
    const std::array<Cycle, 6> fedges = {0u, 1u, 2u, 3u, 50u,
                                         0xFFFFFFFFFFULL};
    base.fault_left[c] = fedges[next_rand(seed) % fedges.size()];
    base.busy_cycles[c] = next_rand(seed) % 1000000;
    base.compute_cycles[c] = next_rand(seed) % 1000000;
    base.miss_wait_cycles[c] = next_rand(seed) % 1000000;
    base.fault_wait_cycles[c] = next_rand(seed) % 1000000;
  }
  return base;
}

void expect_same_hot(const fx8::CeHot& a, const fx8::CeHot& b, int iter) {
  ASSERT_EQ(a.phase, b.phase) << "iter " << iter;
  ASSERT_EQ(a.bus_op, b.bus_op) << "iter " << iter;
  ASSERT_EQ(a.compute_left, b.compute_left) << "iter " << iter;
  ASSERT_EQ(a.fault_left, b.fault_left) << "iter " << iter;
  ASSERT_EQ(a.busy_cycles, b.busy_cycles) << "iter " << iter;
  ASSERT_EQ(a.compute_cycles, b.compute_cycles) << "iter " << iter;
  ASSERT_EQ(a.miss_wait_cycles, b.miss_wait_cycles) << "iter " << iter;
  ASSERT_EQ(a.fault_wait_cycles, b.fault_wait_cycles) << "iter " << iter;
}

#if defined(FX8_HAVE_AVX2)

// Every lane classification — fast compute/miss/fault, parked, slow —
// and every countdown edge (0, 1, 2, huge) must produce byte-identical
// CeHot lanes and the same slow mask from both passes, across the full
// 64-lane machine-wide block.
TEST(LanePass, ScalarAndAvx2LanePassesAgree) {
  if (!__builtin_cpu_supports("avx2")) {
    GTEST_SKIP() << "host has no AVX2";
  }
  std::uint64_t seed = 0xC0FFEE5EEDULL;
  for (int iter = 0; iter < 5000; ++iter) {
    const fx8::CeHot base = random_hot(seed, kMaxTopologyCes);
    const LaneMask fill_ready = next_rand(seed);

    fx8::CeHot scalar = base;
    fx8::CeHot vector = base;
    const LaneMask slow_scalar =
        fx8::lane_pass_scalar(scalar, fill_ready, kMaxTopologyCes);
    const LaneMask slow_vector =
        fx8::lane_pass_avx2(vector, fill_ready, kMaxTopologyCes);
    ASSERT_EQ(slow_scalar, slow_vector) << "iter " << iter;
    expect_same_hot(scalar, vector, iter);
  }
}

#endif  // FX8_HAVE_AVX2

/// Run `pass` as eight independent 8-lane window invocations (the
/// pre-width-native per-cluster shape) and compose the machine-wide slow
/// mask. The lanes outside each window are shielded from the pass by
/// parking them (phase kIdle) for its invocation.
LaneMask per_cluster_windows(fx8::LanePassFn pass, fx8::CeHot& hot,
                             LaneMask fill_ready) {
  LaneMask slow = 0;
  for (std::uint32_t base = 0; base < kMaxTopologyCes; base += kMaxCes) {
    fx8::CeHot window = hot;
    // Shift the window's lanes down to 0..7 so an 8-lane invocation
    // covers exactly this cluster's slice.
    for (CeId c = 0; c < kMaxCes; ++c) {
      window.phase[c] = hot.phase[base + c];
      window.bus_op[c] = hot.bus_op[base + c];
      window.compute_left[c] = hot.compute_left[base + c];
      window.fault_left[c] = hot.fault_left[base + c];
      window.busy_cycles[c] = hot.busy_cycles[base + c];
      window.compute_cycles[c] = hot.compute_cycles[base + c];
      window.miss_wait_cycles[c] = hot.miss_wait_cycles[base + c];
      window.fault_wait_cycles[c] = hot.fault_wait_cycles[base + c];
    }
    slow |= pass(window, (fill_ready >> base) & 0xFFu, kMaxCes) << base;
    for (CeId c = 0; c < kMaxCes; ++c) {
      hot.phase[base + c] = window.phase[c];
      hot.bus_op[base + c] = window.bus_op[c];
      hot.compute_left[base + c] = window.compute_left[c];
      hot.fault_left[base + c] = window.fault_left[c];
      hot.busy_cycles[base + c] = window.busy_cycles[c];
      hot.compute_cycles[base + c] = window.compute_cycles[c];
      hot.miss_wait_cycles[base + c] = window.miss_wait_cycles[c];
      hot.fault_wait_cycles[base + c] = window.fault_wait_cycles[c];
    }
  }
  return slow;
}

// The machine-wide 64-lane pass must equal the composition of eight
// per-cluster 8-lane windows — the exact reduction the width-native
// tick_block performs — on random hot states, for the scalar pass and
// (when the host has it) the AVX2 pass.
TEST(WideKernelFuzz, WidePassMatchesPerClusterWindows) {
  std::vector<fx8::LanePassFn> passes = {&fx8::lane_pass_scalar};
#if defined(FX8_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) {
    passes.push_back(&fx8::lane_pass_avx2);
  }
#endif
  for (fx8::LanePassFn pass : passes) {
    std::uint64_t seed = 0xD15EA5EDBEEFULL;
    for (int iter = 0; iter < 5000; ++iter) {
      const fx8::CeHot base = random_hot(seed, kMaxTopologyCes);
      const LaneMask fill_ready = next_rand(seed);

      fx8::CeHot wide = base;
      fx8::CeHot windows = base;
      const LaneMask slow_wide = pass(wide, fill_ready, kMaxTopologyCes);
      const LaneMask slow_windows =
          per_cluster_windows(pass, windows, fill_ready);
      ASSERT_EQ(slow_wide, slow_windows)
          << fx8::lane_pass_name(pass) << " iter " << iter;
      expect_same_hot(wide, windows, iter);
    }
  }
}

// The naive oracle advances nothing: every lane below n is reported slow
// (so Ce::tick() steps it) and the hot block is left exactly as it was.
TEST(LanePass, ReferenceReportsEveryLiveLaneSlow) {
  std::uint64_t seed = 0x0DDBA11ULL;
  for (const std::uint32_t n : {1u, 8u, 17u, 64u}) {
    const fx8::CeHot base = random_hot(seed, kMaxTopologyCes);
    fx8::CeHot hot = base;
    const LaneMask slow =
        fx8::lane_pass_reference(hot, next_rand(seed), n);
    const LaneMask want = n == 64 ? ~LaneMask{0} : (LaneMask{1} << n) - 1;
    EXPECT_EQ(slow, want) << "n " << n;
    expect_same_hot(hot, base, static_cast<int>(n));
  }
  EXPECT_STREQ(fx8::lane_pass_name(&fx8::lane_pass_reference), "reference");
}

// The dispatcher honours FX8_FORCE_SCALAR regardless of host support.
TEST(LanePass, ForceScalarEnvPinsScalarPass) {
  // Restore the caller's setting afterwards: a scalar-forced run of the
  // suite must keep the scalar pass for every test that follows.
  const char* caller = std::getenv("FX8_FORCE_SCALAR");
  const std::optional<std::string> saved =
      caller != nullptr ? std::optional<std::string>(caller) : std::nullopt;
  ASSERT_EQ(setenv("FX8_FORCE_SCALAR", "1", 1), 0);
  EXPECT_EQ(fx8::select_lane_pass(), &fx8::lane_pass_scalar);
  EXPECT_STREQ(fx8::lane_pass_name(fx8::select_lane_pass()), "scalar");
  ASSERT_EQ(setenv("FX8_FORCE_SCALAR", "0", 1), 0);
#if defined(FX8_HAVE_AVX2)
  if (__builtin_cpu_supports("avx2")) {
    EXPECT_EQ(fx8::select_lane_pass(), &fx8::lane_pass_avx2);
    EXPECT_STREQ(fx8::lane_pass_name(fx8::select_lane_pass()), "avx2");
  }
#endif
  ASSERT_EQ(saved ? setenv("FX8_FORCE_SCALAR", saved->c_str(), 1)
                  : unsetenv("FX8_FORCE_SCALAR"),
            0);
}

}  // namespace
}  // namespace repro
