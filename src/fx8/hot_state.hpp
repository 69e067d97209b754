// The machine's contiguous per-tick hot-state block.
//
// Everything the per-cycle simulation path mutates every machine cycle —
// the CE state lanes, the crossbar grant mask, the CCB grant budget, the
// shared-cache miss/fill masks, and the memory-bus countdowns — lives in
// this one structure-of-arrays block instead of being scattered across
// the component objects. The components keep their cold state (queues,
// line arrays, configs, lifetime counters) and hold a pointer into their
// slice of this block, so the fused tick kernel (Machine::tick_block)
// walks a few adjacent cache lines per cycle instead of eight-plus
// objects.
//
// Components constructed standalone (unit tests) fall back to a private
// instance of their hot struct (the CE lanes on the heap, so a moved CE
// keeps them). The machine hands its CE lanes to each cluster at
// construction, and Machine::bind_hot re-points every other member at
// this block right after. Binding copies the current values, so it is
// transparent at any point in a component's life.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "base/types.hpp"
#include "cache/hot.hpp"
#include "mem/bus_ops.hpp"
#include "mem/hot.hpp"

namespace repro::fx8 {

/// The CE execution phases. Lives here (not in Ce) because the phase
/// lanes of CeHot hold it.
enum class CePhase : std::uint8_t {
  kIdle,
  kStepSetup,   ///< Derive compute/access budget for the next step.
  kIFetch,      ///< Issue a spilled instruction fetch.
  kCompute,     ///< Burn compute cycles.
  kAccess,      ///< Issue data accesses.
  kMissWait,    ///< Outstanding shared-cache miss.
  kFaultWait,   ///< Page-fault service stall.
  kDone,
};

/// Machine-wide per-CE state lanes, one slot per *global CE id* —
/// cluster-major, 0..kMaxTopologyCes-1, matching base::LaneMask bit
/// positions (SoA). The values are the hot subset of Ce: the phase
/// discriminant the cluster polls, the bus opcode the probe latches, the
/// compute/fault countdowns, and each lane's quiet-horizon bookkeeping
/// (due, clock). Stats and the streaming/pending cold state stay in Ce.
/// Every cluster's lanes live contiguously in one block (HotState::lanes)
/// so one scan (fx8/lane_kernel.hpp) finds every cluster's due lanes;
/// unused lanes beyond the machine width stay zero (kIdle).
///
/// Inside Machine::tick_block a lane steps only when it is due, so
/// between its steps the countdowns, the four counters and the bus
/// opcode lag the machine clock; the lane's clock says how far. Phases
/// and done_mask are exact on every cycle; everything else is exact
/// whenever tick_block returns (it catches every live lane up).
struct CeHot {
  /// Typed as CePhase, not a byte: a store through a character type may
  /// alias any object, which would force Ce::tick to reload its state
  /// after every phase change.
  std::array<CePhase, kMaxTopologyCes> phase{};
  std::array<mem::CeBusOp, kMaxTopologyCes> bus_op{};
  std::array<std::uint32_t, kMaxTopologyCes> compute_left{};
  std::array<Cycle, kMaxTopologyCes> fault_left{};
  /// The four per-cycle CeStats counters. They live in lanes so a
  /// steady-state tick, and a lane's catch-up, touch only this block.
  std::array<std::uint64_t, kMaxTopologyCes> busy_cycles{};
  std::array<std::uint64_t, kMaxTopologyCes> compute_cycles{};
  std::array<std::uint64_t, kMaxTopologyCes> miss_wait_cycles{};
  std::array<std::uint64_t, kMaxTopologyCes> fault_wait_cycles{};
  /// Machine cycle at which the lane must next step through Ce::tick():
  /// one past its last step plus its quiet horizon, kHorizonNever for
  /// miss waits (the fill-ready word wakes those) and parked lanes.
  /// Ce::start sets 0 (due at once); a capsule load records the loaded
  /// lane's horizon (Ce::resync). So whenever tick_block returns, every
  /// lane of a live cluster is due at now + Ce::quiet_horizon()
  /// (kHorizonNever if that saturates), except a miss wait whose fill is
  /// up, which the fill-ready word flags: Machine::quiet_horizon() reads
  /// the CE horizons from here.
  std::array<Cycle, kMaxTopologyCes> due{};
  /// Machine cycle up to which the lane's countdowns, counters and bus
  /// opcode are booked: the cycles before it are applied, the ones from
  /// it on are not. Ce::advance and Ce::step move it; a capsule load
  /// sets it to the loaded clock.
  std::array<Cycle, kMaxTopologyCes> clock{};
  /// One bit per global CE id, set while that CE's phase is kDone.
  /// Maintained by Ce::set_phase so a cluster's control scan can test
  /// "any completion to reap?" in O(1) instead of polling every CE.
  LaneMask done_mask = 0;
};

/// One cluster's slice of the hot block: its crossbar grant word and its
/// CCB grant budget. The CE lanes live machine-wide in HotState::lanes.
struct ClusterHot {
  /// Crossbar: banks granted this cycle (one bit per bank).
  std::uint64_t crossbar_taken = 0;
  /// CCB: iteration-dispatch grants left this cycle.
  std::uint32_t ccb_grants_left = 0;
};

struct HotState {
  /// Every cluster's CE lanes in one cluster-major block (lane index =
  /// global CE id = ce_base + local lane), so one due-lane scan covers
  /// the whole machine.
  CeHot lanes;
  /// One slice per cluster, sized at Machine construction from the
  /// resolved topology (default: the FX/8's single cluster).
  std::vector<ClusterHot> clusters = std::vector<ClusterHot>(1);
  cache::SharedCacheHot cache;
  mem::BusHot bus;
  /// Monotone count of cluster control events (job / detached-job
  /// completions) — everything the OS layer can react to. tick_block
  /// stops at the end of the cycle that bumps this so the scheduler's
  /// next tick runs naively, exactly as lockstep ticking would.
  std::uint64_t cluster_events = 0;
  /// The machine clock (Machine::now()).
  Cycle now = 0;
};

}  // namespace repro::fx8
