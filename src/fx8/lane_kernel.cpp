#include "fx8/lane_kernel.hpp"

namespace repro::fx8 {

namespace {

/// The first `n_lanes` bits.
LaneMask lane_prefix(std::uint32_t n_lanes) {
  return n_lanes >= kMaxTopologyCes ? ~LaneMask{0}
                                    : (LaneMask{1} << n_lanes) - 1;
}

}  // namespace

LaneMask lane_pass_reference(const CeHot& /*hot*/,
                             LaneMask /*fill_ready_mask*/,
                             std::uint32_t n_lanes, Cycle /*now*/) {
  return lane_prefix(n_lanes);
}

LaneMask lane_pass_horizon(const CeHot& hot, LaneMask fill_ready_mask,
                           std::uint32_t n_lanes, Cycle now) {
  LaneMask due = 0;
  for (CeId c = 0; c < n_lanes; ++c) {
    due |= static_cast<LaneMask>(hot.due[c] <= now) << c;
  }
  return due | (fill_ready_mask & lane_prefix(n_lanes));
}

LanePassFn select_lane_pass() { return &lane_pass_horizon; }

const char* lane_pass_name(LanePassFn pass) {
  if (pass == &lane_pass_reference) {
    return "reference";
  }
  return pass == &lane_pass_horizon ? "horizon" : "unknown";
}

}  // namespace repro::fx8
