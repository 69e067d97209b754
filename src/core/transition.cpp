#include "core/transition.hpp"

#include "base/rng.hpp"

namespace repro::core {

double TransitionResult::transition_share(std::uint32_t j) const {
  const std::uint64_t total = transition_records();
  if (total == 0) {
    return 0.0;
  }
  return static_cast<double>(state_counts[j]) / static_cast<double>(total);
}

std::uint64_t TransitionResult::transition_records() const {
  std::uint64_t total = 0;
  for (std::uint32_t j = 2; j < width; ++j) {
    total += state_counts[j];
  }
  return total;
}

double TransitionResult::idle_overhead(std::uint32_t at_width) const {
  std::uint64_t lost = 0;
  std::uint64_t possible = 0;
  for (std::uint32_t j = 2; j < at_width; ++j) {
    lost += static_cast<std::uint64_t>(at_width - j) * state_counts[j];
    possible += static_cast<std::uint64_t>(at_width) * state_counts[j];
  }
  return possible == 0 ? 0.0
                       : static_cast<double>(lost) /
                             static_cast<double>(possible);
}

RunSpec transition_spec(const workload::WorkloadMix& mix,
                        const TransitionConfig& config,
                        instr::TriggerMode trigger) {
  RunSpec spec;
  spec.system = config.system;
  spec.mix = mix;
  spec.sampling = config.sampling;
  spec.generator_seed = mix64(config.seed ^ 0x777);
  spec.controller_seed = mix64(config.seed ^ 0x888);
  spec.warmup_cycles = config.warmup_cycles;
  spec.capture_mode = trigger;
  spec.captures = config.captures;
  spec.capture_timeout = config.capture_timeout;
  return spec;
}

TransitionResult fold_transition(const RunResult& run) {
  TransitionResult result;
  result.state_counts = run.state_counts;
  result.processor_counts = run.processor_counts;
  result.captures_completed = run.captures_completed;
  result.captures_timed_out = run.captures_timed_out;
  result.width = run.width;
  return result;
}

TransitionResult run_transition_study(const workload::WorkloadMix& mix,
                                      const TransitionConfig& config,
                                      instr::TriggerMode trigger) {
  return fold_transition(run(transition_spec(mix, config, trigger)));
}

void serialize_config(capsule::Io& io, TransitionConfig& config) {
  os::serialize_config(io, config.system);
  instr::serialize_config(io, config.sampling);
  io.u32(config.captures);
  io.u64(config.capture_timeout);
  io.u64(config.warmup_cycles);
  io.u64(config.seed);
}

}  // namespace repro::core
