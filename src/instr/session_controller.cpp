#include "instr/session_controller.hpp"

#include <algorithm>
#include <bit>

#include "base/expect.hpp"

namespace repro::instr {

SessionController::SessionController(os::System& system,
                                     workload::WorkloadGenerator& workload,
                                     const SamplingConfig& config,
                                     std::uint64_t seed)
    : system_(system), workload_(workload), config_(config), rng_(seed) {
  REPRO_EXPECT(config.interval_cycles >=
                   config.snapshots_per_sample * config.buffer_depth,
               "interval too short for the requested acquisitions");
  REPRO_EXPECT(config.snapshots_per_sample > 0, "need at least one snapshot");
  REPRO_EXPECT(config.buffer_depth > 0, "buffer depth must be positive");
  starts_scratch_.reserve(config.snapshots_per_sample);
}

void SessionController::step() {
  workload_.tick(system_);
  system_.tick();
}

Cycle SessionController::advance_step(Cycle budget, bool watch_active) {
  // The workload generator's horizon bounds everything: 0 means it may
  // draw randomness or submit on the next tick.
  const Cycle workload =
      config_.fast_forward ? workload_.quiet_horizon(system_) : 0;
  if (workload > 0 && system_.scheduler().quiet_horizon() > 0) {
    // Neither the scheduler nor the generator can act for `workload`
    // cycles (the scheduler's horizon is unbounded until the next cluster
    // control event, where the block stops on its own), so their
    // per-cycle ticks are provably no-ops: the machine alone advances,
    // jumping whatever stretches inside the block are quiet.
    fx8::Machine& machine = system_.machine();
    const std::uint64_t jumps = machine.jumps();
    const Cycle jumped = machine.jumped_cycles();
    const Cycle advanced =
        machine.tick_block(std::min(workload, budget), watch_active);
    const Cycle skipped = machine.jumped_cycles() - jumped;
    ff_stats_.skipped_cycles += skipped;
    ff_stats_.block_cycles += advanced - skipped;
    ff_stats_.jumps += machine.jumps() - jumps;
    return advanced;
  }
  // Fast-forward off, or an OS-layer action is due next tick (burst
  // submission, gap draw, job reap/dispatch): run it in lockstep so the
  // scheduler and the workload generator see exactly the states they
  // would naively.
  step();
  ++ff_stats_.naive_cycles;
  return 1;
}

void SessionController::advance(Cycle cycles) {
  while (cycles > 0) {
    cycles -= advance_step(cycles);
  }
}

void SessionController::count_window(ProbeWindow& window, Cycle cycles) {
  const fx8::Machine& machine = system_.machine();
  const fx8::ProbeCounters begin = machine.probe_counters();
  while (cycles > 0) {
    cycles -= advance_step(cycles);
  }
  window.add(begin, machine.probe_counters(), machine.total_ces(),
             machine.mem_bus_count());
}

SampleRecord SessionController::take_sample() {
  // Choose snapshot start offsets within the interval, far enough apart
  // that acquisitions never overlap. The offsets live in a member scratch
  // buffer reused across samples, so the per-sample path does not
  // allocate.
  const Cycle slot =
      config_.interval_cycles / config_.snapshots_per_sample;
  std::vector<Cycle>& starts = starts_scratch_;
  starts.clear();
  for (std::uint32_t s = 0; s < config_.snapshots_per_sample; ++s) {
    const Cycle jitter_room = slot - config_.buffer_depth;
    const Cycle jitter = jitter_room == 0 ? 0 : rng_.uniform(jitter_room);
    starts.push_back(static_cast<Cycle>(s) * slot + jitter);
  }

  SoftwareSampler sw(system_.counters());

  SampleRecord record;
  record.index = next_index_++;
  record.interval_cycles = config_.interval_cycles;

  std::size_t next_snapshot = 0;
  Cycle c = 0;
  while (c < config_.interval_cycles) {
    if (next_snapshot < starts.size() && c == starts[next_snapshot]) {
      // An immediate acquisition: the next buffer_depth cycles, which
      // the slot spacing keeps inside the interval.
      ProbeWindow window;
      count_window(window, config_.buffer_depth);
      c += config_.buffer_depth;
      record.hw.merge(window.counts);
      ++next_snapshot;
      continue;
    }
    // Between acquisitions the stretch is clamped to the next snapshot
    // start, so the acquisition's counters are read on exactly its first
    // cycle.
    const Cycle bound = next_snapshot < starts.size()
                            ? starts[next_snapshot]
                            : config_.interval_cycles;
    c += advance_step(bound - c);
  }

  // sw counters are read "at the time that the hardware sample was
  // stored" — here, at interval close.
  record.sw = sw.take_delta();
  return record;
}

std::optional<ProbeWindow> SessionController::capture_triggered(
    TriggerMode trigger, Cycle timeout) {
  fx8::Machine& machine = system_.machine();
  const std::uint32_t full = machine.total_ces();
  const std::size_t depth = config_.buffer_depth;
  ProbeWindow window;
  Cycle left = timeout;
  if (trigger != TriggerMode::kImmediate) {
    // Armed: blocks stop at the end of every cycle whose active count
    // changed, so each cycle of a block but its last reads the count the
    // cycle before the block read (`previous`), and only the last can
    // fire. The one exception is an all-active trigger that already
    // holds when armed: it fires on the first armed cycle if the count
    // holds, so that cycle runs alone.
    auto previous =
        static_cast<std::uint32_t>(std::popcount(machine.active_mask()));
    bool first = true;
    for (;;) {
      if (left == 0) {
        return std::nullopt;
      }
      const bool holds = trigger == TriggerMode::kAllActive && first &&
                         previous == full;
      const Cycle advanced =
          advance_step(holds ? 1 : left, /*watch_active=*/true);
      left -= advanced;
      const auto active =
          static_cast<std::uint32_t>(std::popcount(machine.active_mask()));
      // A transition needs a previous armed cycle: the first never fires.
      const bool fires =
          trigger == TriggerMode::kAllActive
              ? active == full
              : !(first && advanced == 1) && previous == full &&
                    active < full;
      if (fires) {
        break;
      }
      previous = active;
      first = false;
    }
    // The trigger record opens the buffer.
    window.add(latch(machine), full, machine.mem_bus_count());
  }
  const Cycle rest = depth - window.counts.records;
  if (left < rest) {
    // The timeout hits mid-capture: the cycles still run.
    advance(left);
    return std::nullopt;
  }
  count_window(window, rest);
  return window;
}

}  // namespace repro::instr
