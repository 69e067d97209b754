// WorkloadStudy: the full Chapter 3-4 random-sampling experiment.
//
// Runs the nine measurement sessions (or any set of mixes) end-to-end:
// build a system, drive it with the session's workload mixture, sample it
// with the logic analyzer + kernel counters, and return the analyzed
// samples plus aggregate measures.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/measures.hpp"
#include "core/run.hpp"
#include "core/sample.hpp"
#include "instr/session_controller.hpp"
#include "os/system.hpp"
#include "workload/generator.hpp"
#include "workload/presets.hpp"

namespace repro::core {

struct StudyConfig {
  os::SystemConfig system;
  instr::SamplingConfig sampling;
  /// Samples per session. The paper groups ~65 five-minute samples over
  /// nine sessions (Figure 4 shows 65); we default to ~8 per session.
  std::uint32_t samples_per_session = 8;
  /// Warm-up cycles before sampling starts (machine reaches steady state).
  Cycle warmup_cycles = 20000;
  std::uint64_t seed = 0x19870301;
  /// Worker threads for the per-mix sessions. 0 = auto (the FX8_THREADS
  /// environment variable if set, else the usable-core count); 1 = the
  /// serial code path. Results are bit-identical for every value — see
  /// docs/parallel_execution.md for the seeding contract.
  std::uint32_t threads = 0;
  /// Event-horizon fast-forward: advance deterministic quiet stretches
  /// of the simulation in one jump instead of cycle-by-cycle. Results
  /// are bit-identical either way; false forces the naive path
  /// (differential testing). See docs/parallel_execution.md.
  bool fast_forward = true;
};

/// The worker count a config resolves to: `threads` if nonzero, else
/// FX8_THREADS from the environment, else hardware_concurrency.
[[nodiscard]] std::uint32_t resolve_threads(const StudyConfig& config);

/// Canonical walk over every StudyConfig field that decides results
/// (system, sampling, populations, seed). The result cache
/// hashes this walk into its keys. The perf-only knobs — `threads`,
/// `fast_forward` and `sampling.fast_forward` — are left out, because
/// the differential oracle (StudyOracle) proves they change nothing but
/// the fast-forward bookkeeping (docs/benchmarks.md, "The result cache").
void serialize_config(capsule::Io& io, StudyConfig& config);

struct SessionResult {
  std::string name;
  std::vector<AnalyzedSample> samples;
  /// Session-total hardware counts (sum over samples).
  instr::EventCounts totals;
  /// Measures over the session totals.
  ConcurrencyMeasures overall;
  /// The session run's fast-forward accounting (bookkeeping only —
  /// identical simulation state either way).
  instr::FastForwardStats ff;

  void serialize(capsule::Io& io);
};

struct StudyResult {
  std::vector<SessionResult> sessions;
  instr::EventCounts totals;        ///< All-session aggregate.
  ConcurrencyMeasures overall;      ///< Table 2.
  instr::FastForwardStats ff;       ///< All-session fast-forward totals.

  /// Every analyzed sample across all sessions.
  [[nodiscard]] std::vector<AnalyzedSample> all_samples() const;

  /// Capsule walk over the whole result — sessions, totals, aggregate
  /// measures, fast-forward accounting — for whole-study digests.
  void serialize(capsule::Io& io);
};

/// The runs a study over `mixes` is made of: one per mix, in mix order,
/// each seeded from the study seed exactly as run_study seeds it.
[[nodiscard]] std::vector<RunSpec> study_specs(
    std::span<const workload::WorkloadMix> mixes, const StudyConfig& config);

/// Every spec's result, in spec order, from `execute` on up to `threads`
/// workers; serially when `threads` <= 1, as resolve_threads always is
/// on a pool worker.
[[nodiscard]] std::vector<RunResult> run_all(
    const std::vector<RunSpec>& specs, std::size_t threads,
    const std::function<RunResult(const RunSpec&)>& execute = run);

/// Fold a study's runs, one per mix in study_specs order, into the
/// study, however the runs were obtained. Moves the samples out of
/// `runs`.
[[nodiscard]] StudyResult fold_study(
    std::span<const workload::WorkloadMix> mixes,
    std::vector<RunResult> runs);

/// Run one session with the given mix.
[[nodiscard]] SessionResult run_session(const workload::WorkloadMix& mix,
                                        const StudyConfig& config,
                                        std::uint64_t session_seed);

/// Run a whole study over the given mixes: fold_study over run_all of
/// study_specs on resolve_threads workers.
[[nodiscard]] StudyResult run_study(
    std::span<const workload::WorkloadMix> mixes, const StudyConfig& config);

/// Convenience: the paper's nine-session study.
[[nodiscard]] StudyResult run_default_study(const StudyConfig& config);

}  // namespace repro::core
