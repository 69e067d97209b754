// Which CE lanes step this cycle.
//
// A CE lane in a steady state (compute burn, miss wait, fault wait)
// repeats the same cycle until its quiet horizon runs out, so
// Machine::tick_block steps a lane through Ce::tick() only when it is
// due: on the cycle its recorded horizon ends (CeHot::due), or when the
// shared cache flags its fill ready. A lane books the cycles it sat out
// through Ce's one bulk-advance body just before it steps, and every
// live lane catches up when the block ends, so stepping a lane earlier
// than it is due is always exact: lane_pass_reference steps every live
// lane every cycle, the naive oracle differential tests pin.
#pragma once

#include <cstdint>

#include "base/types.hpp"
#include "fx8/hot_state.hpp"

namespace repro::fx8 {

/// One selection over the first `n_lanes` lanes of a machine's CE block
/// at machine cycle `now`. `fill_ready_mask` is the shared cache's
/// current fill-ready word over global CE ids
/// (cache::SharedCache::fill_ready_mask()).
/// Returns the bitmask (bit = global CE id) of the lanes to step this
/// cycle, which each owning cluster steps in service order. Lanes at
/// n_lanes and beyond are never selected.
using LanePassFn = LaneMask (*)(const CeHot& hot, LaneMask fill_ready_mask,
                                std::uint32_t n_lanes, Cycle now);

/// The naive oracle: selects all of the first `n_lanes` lanes, so every
/// CE steps through Ce::tick() every cycle.
[[nodiscard]] LaneMask lane_pass_reference(const CeHot& hot,
                                           LaneMask fill_ready_mask,
                                           std::uint32_t n_lanes, Cycle now);

/// The lanes whose quiet horizon has run out (due <= now), plus the lanes
/// whose miss fill is ready.
[[nodiscard]] LaneMask lane_pass_horizon(const CeHot& hot,
                                         LaneMask fill_ready_mask,
                                         std::uint32_t n_lanes, Cycle now);

/// The pass a machine uses by default: lane_pass_horizon.
[[nodiscard]] LanePassFn select_lane_pass();

/// "horizon" or "reference" — for bench/report labels.
[[nodiscard]] const char* lane_pass_name(LanePassFn pass);

}  // namespace repro::fx8
