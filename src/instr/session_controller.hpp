// Session controller: the study's C-Shell measurement scripts.
//
// "The measurements were controlled by UNIX C-Shell script programs ...
// which controlled collection of both the hardware and software data"
// (§3.4), running on an IP to keep artifact off the cluster. For random
// workload sampling: "Five snapshots of the system were taken and grouped
// together in a five-minute interval" (§3.5); software counters were read
// when the hardware sample was stored.
//
// One SampleRecord therefore bundles the reduced hardware event counts of
// five 512-deep acquisitions taken at random offsets inside the interval,
// plus the interval's kernel-counter deltas.
//
// The controller reduces an acquisition the way the study's programs did,
// to event counts, but reads them off cumulative counters the machine's
// components book as they advance (fx8::ProbeCounters) instead of
// latching every acquired cycle: an acquisition advances through the same
// blocks and jumps as any other stretch. A triggered capture latches one
// record, the trigger's; a window of latched records (LogicAnalyzer,
// latch, reduce) is the per-cycle reference the differential tests hold
// the counters to.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "base/rng.hpp"
#include "base/types.hpp"
#include "instr/logic_analyzer.hpp"
#include "instr/reduction.hpp"
#include "instr/software_sampler.hpp"
#include "os/system.hpp"
#include "workload/generator.hpp"

namespace repro::instr {

struct SamplingConfig {
  /// Cycles per sample interval (the "five minutes").
  Cycle interval_cycles = 120000;
  /// Acquisitions grouped into one sample.
  std::uint32_t snapshots_per_sample = 5;
  std::size_t buffer_depth = 512;
  /// Event-horizon fast-forward: while the OS layer is quiet, the machine
  /// advances through Machine::tick_block, which jumps its quiet
  /// stretches, acquisitions included (they are counted, not latched),
  /// clamped to each acquisition's start and end so its counters are read
  /// at block ends. Bit-identical to cycle-by-cycle stepping; false
  /// forces the naive path (differential testing). See
  /// docs/parallel_execution.md.
  bool fast_forward = true;
};

/// Canonical walk over the SamplingConfig fields that decide results,
/// for key derivation. `fast_forward` is left out: the differential
/// oracle proves it changes only the fast-forward bookkeeping.
inline void serialize_config(capsule::Io& io, SamplingConfig& config) {
  io.u64(config.interval_cycles);
  io.u32(config.snapshots_per_sample);
  auto depth = static_cast<std::uint64_t>(config.buffer_depth);
  io.u64(depth);
  config.buffer_depth = static_cast<std::size_t>(depth);
}

struct SampleRecord {
  std::uint64_t index = 0;
  Cycle interval_cycles = 0;
  EventCounts hw;
  SoftwareSample sw;

  /// Capsule walk: a completed sample travels whole inside study
  /// checkpoints (core/checkpoint.hpp).
  void serialize(capsule::Io& io) {
    io.u64(index);
    io.u64(interval_cycles);
    hw.serialize(io);
    sw.serialize(io);
  }
};

/// Where the controller's cycles went: jumped or ticked inside
/// Machine::tick_block, or naively lockstep-ticked because the OS layer
/// was due (or fast-forward is off). Pure bookkeeping — identical
/// simulation state any way. skipped + block + naive is every cycle the
/// controller advanced.
struct FastForwardStats {
  Cycle skipped_cycles = 0;  ///< Jumped inside Machine::tick_block.
  Cycle naive_cycles = 0;    ///< Advanced tick-by-tick (lockstep).
  Cycle block_cycles = 0;    ///< Ticked inside Machine::tick_block.
  std::uint64_t jumps = 0;   ///< Number of jumps taken.

  void merge(const FastForwardStats& other) {
    skipped_cycles += other.skipped_cycles;
    naive_cycles += other.naive_cycles;
    block_cycles += other.block_cycles;
    jumps += other.jumps;
  }

  bool operator==(const FastForwardStats&) const = default;

  /// Capsule walk: the accounting travels inside cached StudyResults so
  /// a warm fx8bench report matches the cold one byte for byte.
  void serialize(capsule::Io& io) {
    io.u64(skipped_cycles);
    io.u64(naive_cycles);
    io.u64(block_cycles);
    io.u64(jumps);
  }
};

class SessionController {
 public:
  SessionController(os::System& system, workload::WorkloadGenerator& workload,
                    const SamplingConfig& config, std::uint64_t seed);

  /// Advance the system `cycles` cycles with no acquisition armed
  /// (warmup, gaps between measurements). Fast-forwards quiet stretches
  /// when the config enables it; bit-identical to naive stepping.
  void advance(Cycle cycles);

  /// Run one sample interval and return its record.
  [[nodiscard]] SampleRecord take_sample();

  /// Triggered capture (high-concurrency / transition experiments): run
  /// until one acquisition of buffer_depth records completes or `timeout`
  /// cycles elapse, exactly as a LogicAnalyzer fed every cycle would, and
  /// return it reduced. Returns nothing on timeout, having advanced
  /// exactly `timeout` cycles.
  [[nodiscard]] std::optional<ProbeWindow> capture_triggered(
      TriggerMode trigger, Cycle timeout);

  /// Cumulative fast-forward accounting for this controller.
  [[nodiscard]] const FastForwardStats& ff_stats() const {
    return ff_stats_;
  }

  /// Capsule walk over the controller's persistent state: the schedule
  /// walk below plus the fast-forward accounting. starts_scratch_ is
  /// deliberately excluded — it is dead between take_sample calls
  /// (rebuilt from scratch each interval), and session checkpoints land
  /// at sample boundaries (docs/checkpointing.md).
  void serialize(capsule::Io& io) {
    serialize_schedule(io);
    ff_stats_.serialize(io);
  }

  /// The part of the walk that decides what gets measured: the snapshot-
  /// offset RNG and the sample index. A fast-forwarded and a naive
  /// controller must walk alike here; only their bookkeeping differs.
  void serialize_schedule(capsule::Io& io) {
    rng_.serialize(io);
    io.u64(next_index_);
  }

 private:
  void step();
  /// The one advance decision, for every stretch the controller runs:
  /// up to `budget` cycles. With fast-forward off, or on a cycle on which
  /// the OS layer (scheduler or generator) is due to act, one lockstep
  /// step(). Otherwise one Machine::tick_block over the generator's quiet
  /// horizon, capped by the budget: it jumps the quiet stretches inside
  /// it and stops at cluster control events, so the scheduler's reaction
  /// cycle is lockstep-ticked exactly as naive stepping would, and with
  /// `watch_active` at every change of the CCB active count. Returns the
  /// cycles advanced (>= 1).
  Cycle advance_step(Cycle budget, bool watch_active = false);
  /// Advance `cycles` cycles and add them to `window` from the machine's
  /// probe counters.
  void count_window(ProbeWindow& window, Cycle cycles);

  os::System& system_;
  workload::WorkloadGenerator& workload_;
  SamplingConfig config_;
  Rng rng_;
  std::uint64_t next_index_ = 0;
  FastForwardStats ff_stats_;
  /// Snapshot start offsets, reused across take_sample calls.
  std::vector<Cycle> starts_scratch_;
};

}  // namespace repro::instr
