// The CE lanes: the per-CE state another component reads, one slot per
// CE in one structure-of-arrays block.
//
// A Machine keeps one CeHot for all its clusters, indexed by global CE
// id, and hands it to each cluster (and the cluster to each CE) at
// construction, so one scan (fx8/lane_kernel.hpp) finds every cluster's
// due lanes and the probe latches every CE's bus opcode from one array.
// Everything a CE alone reads (its phase, countdowns, lane clock and
// counters) stays in Ce.
#pragma once

#include <array>

#include "base/types.hpp"
#include "mem/bus_ops.hpp"

namespace repro::fx8 {

/// Machine-wide per-CE lanes, one slot per *global CE id* —
/// cluster-major, 0..kMaxTopologyCes-1, matching base::LaneMask bit
/// positions (SoA). Every cluster's lanes live contiguously in the
/// machine's one block so one scan finds every cluster's due lanes;
/// unused lanes beyond the machine width stay zero.
struct CeHot {
  /// The opcode each CE's cache bus carries, latched by the probe. Inside
  /// Machine::tick_block a lane writes it only when it steps, so it is
  /// exact whenever tick_block returns (every live lane catches up).
  std::array<mem::CeBusOp, kMaxTopologyCes> bus_op{};
  /// Machine cycle at which the lane must next step through Ce::tick():
  /// one past its last step plus its quiet horizon, kHorizonNever for
  /// miss waits (the fill-ready word wakes those) and parked lanes.
  /// Ce::start sets 0 (due at once); a capsule load records the loaded
  /// lane's horizon (Ce::resync). A lane sitting cycles out keeps its due
  /// cycle, so on every cycle, inside a block too, each lane of a live
  /// cluster is due on the cycle its steady state next changes
  /// (kHorizonNever if that saturates), except a miss wait whose fill is
  /// up, which the fill-ready word flags: Machine::quiet_horizon() reads
  /// the CE horizons from here, so tick_block can jump mid-block.
  std::array<Cycle, kMaxTopologyCes> due{};
  /// One bit per global CE id, set while that CE's phase is kDone.
  /// Maintained by Ce::set_phase so a cluster's control scan can test
  /// "any completion to reap?" in O(1) instead of polling every CE.
  LaneMask done_mask = 0;

  // Probe bookkeeping, not state: the capsule walk leaves both out, and
  // only their differences between two block ends mean anything.
  /// CE-bus cycles booked per opcode, summed over every lane: Ce::step
  /// adds the cycle it steps with the opcode it latched, Ce's bulk-advance
  /// body the repeats it books. Parked lanes book nothing, so a probe
  /// window takes kIdle as the complement over width x cycles.
  std::array<std::uint64_t, mem::kNumCeBusOps> op_cycles{};
  /// Bumped by a cluster wherever its CCB active lines may change (worker
  /// transitions, loop start and end, job and detached-job load and
  /// finish); Machine::tick_block re-reads the lines only when it moves.
  std::uint64_t active_changes = 0;
};

}  // namespace repro::fx8
