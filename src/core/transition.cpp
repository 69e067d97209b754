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

TransitionResult run_transition_study(const workload::WorkloadMix& mix,
                                      const TransitionConfig& config,
                                      instr::TriggerMode trigger) {
  os::System system(config.system);
  workload::WorkloadGenerator generator(mix, mix64(config.seed ^ 0x777));
  instr::SessionController controller(system, generator, config.sampling,
                                      mix64(config.seed ^ 0x888));
  controller.advance(config.warmup_cycles);

  TransitionResult result;
  const std::uint32_t width = system.machine().total_ces();
  result.width = width;
  for (std::uint32_t cap = 0; cap < config.captures; ++cap) {
    const auto buffer =
        controller.capture_triggered(trigger, config.capture_timeout);
    if (!buffer) {
      ++result.captures_timed_out;
      continue;
    }
    ++result.captures_completed;
    for (const instr::ProbeRecord& record : *buffer) {
      const std::uint32_t active = record.active_count();
      ++result.state_counts[active];
      // Per-processor tallies over the transition states proper, the
      // population Figure 7 describes.
      if (active >= 2 && active < width) {
        for (CeId ce = 0; ce < width; ++ce) {
          if (record.ce_active(ce)) {
            ++result.processor_counts[ce];
          }
        }
      }
    }
  }
  return result;
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
