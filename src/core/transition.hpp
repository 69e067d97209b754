// TransitionStudy: the Chapter 4.3 triggered-capture experiments.
//
// "monitoring began when processor activity changed from all processors
// active (full-concurrency) to a lower concurrency level". The analysis
// keeps the transition states proper — records with 2..P-1 processors
// active — and tallies per-processor activity across them (Figures 6, 7).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "base/types.hpp"
#include "core/run.hpp"
#include "core/study.hpp"
#include "instr/logic_analyzer.hpp"
#include "instr/session_controller.hpp"
#include "workload/generator.hpp"

namespace repro::core {

struct TransitionConfig {
  os::SystemConfig system;
  instr::SamplingConfig sampling;  ///< buffer_depth reused for captures.
  std::uint32_t captures = 40;     ///< Triggered acquisitions to gather.
  Cycle capture_timeout = 400000;  ///< Per-capture trigger wait bound.
  Cycle warmup_cycles = 20000;
  std::uint64_t seed = 0x19870402;
};

/// Canonical walk over every TransitionConfig field that decides
/// results, for the result cache's key derivation (the sampling walk
/// leaves out fast_forward).
void serialize_config(capsule::Io& io, TransitionConfig& config);

struct TransitionResult {
  /// Records with exactly j processors active, j = 0..P, across captures
  /// (sized for the widest topology; rows past the machine width stay 0).
  std::array<std::uint64_t, kMaxTopologyCes + 1> state_counts{};
  /// Records in which processor j was active (transition records only).
  std::array<std::uint64_t, kMaxTopologyCes> processor_counts{};
  std::uint32_t captures_completed = 0;
  std::uint32_t captures_timed_out = 0;
  /// Machine width P the captures ran at (bounds the transition states).
  std::uint32_t width = kMaxCes;

  /// Fraction of transition-state records (2..P-1 active) at exactly j.
  [[nodiscard]] double transition_share(std::uint32_t j) const;
  /// Total transition-state records.
  [[nodiscard]] std::uint64_t transition_records() const;

  /// The §4.3 multiprocessing overhead: processor-cycles lost to idling
  /// during captured transition records, as a fraction of the processor-
  /// cycles those records could have delivered. "If the transition from
  /// P processors to one is instantaneous, processors do not incur any
  /// idle time" — this measures how far the machine is from that ideal.
  [[nodiscard]] double idle_overhead(std::uint32_t at_width = kMaxCes) const;
};

/// The one run a transition experiment is: warm up, then `captures`
/// acquisitions on `trigger`.
[[nodiscard]] RunSpec transition_spec(
    const workload::WorkloadMix& mix, const TransitionConfig& config,
    instr::TriggerMode trigger = instr::TriggerMode::kTransitionFromFull);

/// The transition tallies of a run made from transition_spec.
[[nodiscard]] TransitionResult fold_transition(const RunResult& run);

/// Run the transition experiment with the given mix (defaults used by the
/// benches: workload::high_concurrency_mix()).
[[nodiscard]] TransitionResult run_transition_study(
    const workload::WorkloadMix& mix, const TransitionConfig& config,
    instr::TriggerMode trigger =
        instr::TriggerMode::kTransitionFromFull);

}  // namespace repro::core
