#include "instr/session_controller.hpp"

#include <algorithm>

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
  starts_scratch_.reserve(config.snapshots_per_sample);
}

void SessionController::step() {
  workload_.tick(system_);
  system_.tick();
}

Cycle SessionController::advance_step(Cycle budget) {
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
    const Cycle advanced = machine.tick_block(std::min(workload, budget));
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

LogicAnalyzer SessionController::make_analyzer(TriggerMode trigger) const {
  return LogicAnalyzer({.buffer_depth = config_.buffer_depth,
                        .trigger = trigger,
                        .full_width = system_.machine().total_ces()});
}

Cycle SessionController::acquire(LogicAnalyzer& analyzer, Cycle limit) {
  Cycle stepped = 0;
  while (stepped < limit) {
    // The probe latches this CE-bus cycle: acquisitions always run as
    // real single ticks.
    step();
    ++stepped;
    if (analyzer.sample(latch(system_.machine()))) {
      break;
    }
  }
  ff_stats_.naive_cycles += stepped;
  return stepped;
}

SampleRecord SessionController::take_sample() {
  const std::uint32_t n_ces = system_.machine().total_ces();
  const std::uint32_t n_buses = system_.machine().mem_bus_count();

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
  LogicAnalyzer analyzer = make_analyzer(TriggerMode::kImmediate);

  SampleRecord record;
  record.index = next_index_++;
  record.interval_cycles = config_.interval_cycles;

  std::size_t next_snapshot = 0;
  Cycle c = 0;
  while (c < config_.interval_cycles) {
    if (next_snapshot < starts.size() && c == starts[next_snapshot]) {
      analyzer.arm();
      c += acquire(analyzer, config_.interval_cycles - c);
      record.hw.merge(reduce(analyzer.records(), n_ces, n_buses));
      ++next_snapshot;
      continue;
    }
    // Between acquisitions the probe is not latched, so the stretch
    // advances like any other, clamped to the next snapshot start so
    // the arm() lands on exactly the naive cycle.
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

std::optional<std::vector<ProbeRecord>> SessionController::capture_triggered(
    TriggerMode trigger, Cycle timeout) {
  LogicAnalyzer analyzer = make_analyzer(trigger);
  analyzer.arm();
  acquire(analyzer, timeout);
  if (!analyzer.complete()) {
    return std::nullopt;
  }
  return analyzer.transfer();
}

}  // namespace repro::instr
