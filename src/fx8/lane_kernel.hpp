// Wide fast pass over the machine's CE state lanes.
//
// The three steady-state CE behaviours (compute burn, miss wait, fault
// wait) touch only that lane's CeHot slots plus the cache's fill-ready
// word, so one pass can classify and advance every lane of a machine —
// all clusters, cluster-major over global CE ids — with straight-line
// arithmetic instead of per-CE dispatched switches. Machine::tick_block
// runs this pass first at every width and steps only the returned slow
// lanes — phase transitions, access issue, stall pick-up — through
// Ce::tick() in each owning cluster, in service order. The pass leaves
// slow lanes completely untouched, so any pass that advances a lane
// exactly as Ce::tick() would is bit-identical to every other.
//
// Three implementations share the contract: lane_pass_reference
// advances nothing and reports every live lane slow, so every CE steps
// through Ce::tick() — the naive oracle differential tests pin; the
// portable scalar pass; and, when the build detects -mavx2 support
// (FX8_HAVE_AVX2), an AVX2 pass that maps the lane arrays onto 256-bit
// vectors, eight lanes per chunk (chunks may span cluster boundaries —
// the pass is cluster-agnostic). select_lane_pass() picks at runtime —
// AVX2 when compiled in and the CPU reports it, unless the
// FX8_FORCE_SCALAR environment variable is set to anything but "0" (so
// CI exercises both paths on any runner).
#pragma once

#include <cstdint>

#include "base/types.hpp"
#include "fx8/hot_state.hpp"

namespace repro::fx8 {

/// One fast pass over the first `n_lanes` lanes of a machine's CE block.
/// `fill_ready_mask` is the shared cache's current fill-ready word over
/// global CE ids (cache::SharedCacheHot) — the full grant word, no
/// per-cluster windowing. Returns the bitmask (bit = global CE id) of
/// lanes the pass could not advance — lanes in a transition the caller
/// must run through the per-lane slow path, in service order. Lanes that
/// are idle/done or that the pass advanced are fully updated (bus
/// opcode, countdown, the four per-cycle counters) and must not be
/// ticked again this cycle. Lanes at n_lanes and beyond are never
/// reported slow; implementations may store idle no-op values to them
/// inside the final 8-lane chunk (they are zero on any machine).
using LanePassFn = LaneMask (*)(CeHot& hot, LaneMask fill_ready_mask,
                                std::uint32_t n_lanes);

/// The naive oracle: advances no lane and reports all of the first
/// `n_lanes` slow, so every CE steps through Ce::tick().
[[nodiscard]] LaneMask lane_pass_reference(CeHot& hot,
                                           LaneMask fill_ready_mask,
                                           std::uint32_t n_lanes);

/// Portable implementation.
[[nodiscard]] LaneMask lane_pass_scalar(CeHot& hot, LaneMask fill_ready_mask,
                                        std::uint32_t n_lanes);

#if defined(FX8_HAVE_AVX2)
/// AVX2 implementation (lane_kernel_avx2.cpp, built with -mavx2). Only
/// call when the CPU supports AVX2 — select_lane_pass() checks.
[[nodiscard]] LaneMask lane_pass_avx2(CeHot& hot, LaneMask fill_ready_mask,
                                      std::uint32_t n_lanes);
#endif

/// The pass a machine should use on this host: AVX2 when compiled in and
/// supported by the CPU, scalar otherwise or when the FX8_FORCE_SCALAR
/// environment variable is set (to anything but "0").
[[nodiscard]] LanePassFn select_lane_pass();

/// "avx2", "scalar" or "reference" — for bench/report labels.
[[nodiscard]] const char* lane_pass_name(LanePassFn pass);

}  // namespace repro::fx8
