// One sampled run: the experiment every number in the study comes from.
//
// McGuire's measurements are all one kind of experiment: a workload mix
// on a machine, warmed up, then trigger-captured and/or randomly sampled
// by the DAS (a session). A RunSpec names one such experiment, and
// core::run executes it on its own system, generator and controller. The
// study and transition experiments are folds over RunSpecs, and every
// artifact-private sampled run is one. A RunResult keeps folds only,
// never raw buffers or trace events, so many memoized results stay small.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/capsule.hpp"
#include "base/types.hpp"
#include "core/sample.hpp"
#include "instr/logic_analyzer.hpp"
#include "instr/reduction.hpp"
#include "instr/session_controller.hpp"
#include "os/system.hpp"
#include "workload/generator.hpp"

namespace repro::core {

struct RunSpec {
  os::SystemConfig system;
  workload::WorkloadMix mix;
  instr::SamplingConfig sampling;
  std::uint64_t generator_seed = 0;
  std::uint64_t controller_seed = 0;
  Cycle warmup_cycles = 0;
  /// Triggered captures, taken after the warmup.
  instr::TriggerMode capture_mode = instr::TriggerMode::kAllActive;
  std::uint32_t captures = 0;
  Cycle capture_timeout = 0;
  /// Random-sampling intervals, taken last.
  std::uint32_t samples = 0;
  /// Trace cluster 0's iterations over the samples (RunResult::trace_*).
  bool trace_overlap = false;
};

/// Digest of the canonical walk over every RunSpec field that decides
/// results: the memo key of a run. sampling.fast_forward is left out; the
/// run oracle proves it changes only the fast-forward bookkeeping.
[[nodiscard]] std::uint64_t run_key(const RunSpec& spec);

struct RunResult {
  /// The samples, analyzed at the machine width, and their total.
  std::vector<AnalyzedSample> samples;
  instr::EventCounts totals;

  /// Captures: records with j CEs active; per CE, the transition records
  /// (2..P-1 active) it was active in; every buffer reduced and merged.
  std::uint32_t captures_completed = 0;
  std::uint32_t captures_timed_out = 0;
  std::array<std::uint64_t, kMaxTopologyCes + 1> state_counts{};
  std::array<std::uint64_t, kMaxTopologyCes> processor_counts{};
  instr::EventCounts captured;

  /// The machine and OS at the end of the run.
  instr::FastForwardStats ff;
  std::uint32_t width = kMaxCes;
  std::uint32_t clusters = 1;
  std::uint64_t jobs_completed = 0;
  std::uint64_t total_wait_cycles = 0;
  std::uint64_t fabric_conflicts = 0;
  Cycle now = 0;

  /// Trace truth over the samples' span: the share of time with >= 2
  /// iterations in flight, the mean overlap then, and the trace's size.
  double trace_cw = 0.0;
  double trace_pc = 0.0;
  std::size_t trace_events = 0;
  std::size_t trace_jobs = 0;

  /// Capsule walk over every field, so the result store restores a run
  /// bit-identically. A loaded width or cluster count outside
  /// [1, kMaxTopologyCes] throws, since folds read arrays up to them.
  void serialize(capsule::Io& io);
};

/// Warm up, capture, then sample. A pure function of the spec.
[[nodiscard]] RunResult run(const RunSpec& spec);

}  // namespace repro::core
