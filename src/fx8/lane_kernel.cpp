#include "fx8/lane_kernel.hpp"

#include <cstdlib>
#include <cstring>

namespace repro::fx8 {

LaneMask lane_pass_reference(CeHot& /*hot*/, LaneMask /*fill_ready_mask*/,
                             std::uint32_t n_lanes) {
  return n_lanes >= kMaxTopologyCes ? ~LaneMask{0}
                                    : (LaneMask{1} << n_lanes) - 1;
}

LaneMask lane_pass_scalar(CeHot& hot, LaneMask fill_ready_mask,
                          std::uint32_t n_lanes) {
  LaneMask slow = 0;
  for (CeId c = 0; c < n_lanes; ++c) {
    const CePhase p = hot.phase[c];
    const bool compute_ok =
        p == CePhase::kCompute && hot.compute_left[c] > 0;
    const bool miss_ok =
        p == CePhase::kMissWait && ((fill_ready_mask >> c) & 1u) == 0;
    const bool fault_ok = p == CePhase::kFaultWait && hot.fault_left[c] > 1;
    const bool parked = p == CePhase::kIdle || p == CePhase::kDone;
    const bool fast = compute_ok || miss_ok || fault_ok;
    if (!fast && !parked) {
      slow |= LaneMask{1} << c;
      continue;
    }
    hot.bus_op[c] = miss_ok ? mem::CeBusOp::kWait : mem::CeBusOp::kIdle;
    hot.compute_left[c] -= compute_ok ? 1u : 0u;
    hot.fault_left[c] -= fault_ok ? 1u : 0u;
    hot.busy_cycles[c] += fast ? 1u : 0u;
    hot.compute_cycles[c] += compute_ok ? 1u : 0u;
    hot.miss_wait_cycles[c] += miss_ok ? 1u : 0u;
    hot.fault_wait_cycles[c] += fault_ok ? 1u : 0u;
  }
  return slow;
}

LanePassFn select_lane_pass() {
  const char* force = std::getenv("FX8_FORCE_SCALAR");
  const bool force_scalar =
      force != nullptr && std::strcmp(force, "0") != 0;
#if defined(FX8_HAVE_AVX2)
  if (!force_scalar && __builtin_cpu_supports("avx2")) {
    return &lane_pass_avx2;
  }
#else
  (void)force_scalar;
#endif
  return &lane_pass_scalar;
}

const char* lane_pass_name(LanePassFn pass) {
#if defined(FX8_HAVE_AVX2)
  if (pass == &lane_pass_avx2) {
    return "avx2";
  }
#endif
  if (pass == &lane_pass_reference) {
    return "reference";
  }
  return pass == &lane_pass_scalar ? "scalar" : "unknown";
}

}  // namespace repro::fx8
