// The CE state lanes: the per-cycle state of every CE in one
// structure-of-arrays block.
//
// A Machine keeps one CeHot for all its clusters, indexed by global CE
// id, and hands it to each cluster (and the cluster to each CE) at
// construction, so one scan (fx8/lane_kernel.hpp) finds every cluster's
// due lanes and the probe latches every CE's bus opcode from one array.
// A cluster or CE constructed standalone (unit tests) keeps its own
// block on the heap, so a moved CE keeps its lanes. Every other
// component keeps its per-cycle fields as its own members.
#pragma once

#include <array>
#include <cstdint>

#include "base/types.hpp"
#include "mem/bus_ops.hpp"

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
/// Every cluster's lanes live contiguously in the machine's one block so
/// one scan (fx8/lane_kernel.hpp) finds every cluster's due lanes;
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

}  // namespace repro::fx8
