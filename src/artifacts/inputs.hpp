// The run memo behind the artifact pipeline.
//
// Every sampled run an artifact needs is a core::RunSpec, and run(spec)
// memoizes each by its canonical-walk digest (core::run_key): two
// artifacts that declare the same run share one execution. The shared
// nine-session study that seventeen artifacts read and the triggered
// transition that two more read are folds over such runs (study_specs(),
// transition_run()), so they run at most once per fx8bench invocation,
// which `run_counts()` makes auditable in the JSON report. With a result
// store, a run is fetched before it is simulated and stored after.
//
// Derived views (the folded study and transition, the flattened sample
// population, the Pc-defined subset, the six fitted regression models)
// are memoized too, since half the artifacts recompute them from the
// same study.
//
// Every accessor is safe to call from concurrent renders: each memo is
// a slot filled under its own mutex (a caller that arrives while another
// fills it waits, and a fill that throws leaves the slot empty for the
// next caller), and the run counters are atomics.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "artifacts/result_store.hpp"
#include "core/presets.hpp"
#include "core/regression_models.hpp"
#include "core/run.hpp"
#include "core/sample.hpp"
#include "core/study.hpp"
#include "core/transition.hpp"

namespace repro::artifacts {

/// Simulations one Inputs made. A run loaded from the store is not one.
struct RunCounts {
  int study_runs = 0;       ///< 1 once any study_specs() run simulated.
  int transition_runs = 0;  ///< 1 once transition_run() simulated.
  int private_runs = 0;     ///< Every other simulation.
  /// Runs the uncached artifacts of a run_artifacts call declared, and
  /// how many of them were distinct.
  int declared_runs = 0;
  int distinct_runs = 0;
};

class Inputs {
 public:
  /// `quick` swaps the paper-scale populations for the CI-scale presets
  /// (core::presets::quick_*) and tells artifact-private simulations to
  /// shrink via scaled().
  ///
  /// A non-empty `cache_dir` opens (creating if needed) the persistent
  /// result store there: run() consults it before simulating and writes
  /// back after, and the runner caches whole rendered artifacts through
  /// store(). Empty = in-process memoization only.
  explicit Inputs(bool quick = false, const std::string& cache_dir = {});

  [[nodiscard]] bool quick() const { return quick_; }
  [[nodiscard]] const core::StudyConfig& study_config() const {
    return study_config_;
  }
  [[nodiscard]] const core::TransitionConfig& transition_config() const {
    return transition_config_;
  }

  /// The runs of the shared nine-session study, in fold order.
  [[nodiscard]] std::vector<core::RunSpec> study_specs() const;

  /// The run of the shared 8-active -> lower transition study.
  [[nodiscard]] core::RunSpec transition_run() const;

  /// The shared study: core::fold_study over run() of study_specs(). The
  /// runs not yet memoized fan out on resolve_threads workers (inline
  /// inside a pool worker). Folded once.
  const core::StudyResult& study();

  /// study().all_samples(), flattened once.
  const std::vector<core::AnalyzedSample>& samples();

  /// The Pc-defined subset of samples(), filtered once.
  const std::vector<core::AnalyzedSample>& samples_with_pc();

  /// The six Table 3/4 median models over samples(), fitted once.
  const std::vector<core::MedianModel>& models();

  /// One fitted model out of models().
  const core::MedianModel& model(core::SystemMeasure measure,
                                 core::Regressor regressor);

  /// The shared transition study: core::fold_transition of
  /// run(transition_run()). Folded once.
  const core::TransitionResult& transition();

  /// The study, folded from the memo or from the store when every study
  /// run is in one of them, else nullptr: on a fully cached invocation
  /// the report's `study_engine` section still matches the cold run's
  /// byte for byte. Never simulates. Call it while no render is in
  /// flight.
  [[nodiscard]] const core::StudyResult* study_for_report();

  /// The persistent store, or nullptr when caching is disabled.
  [[nodiscard]] ResultStore* store() { return store_.get(); }
  [[nodiscard]] const ResultStore* store() const { return store_.get(); }

  /// Key of one rendered artifact under this Inputs' configs.
  [[nodiscard]] std::uint64_t artifact_key(const std::string& id) const {
    return artifact_cache_key(id, study_config_, transition_config_, quick_);
  }

  /// Scale an artifact-private population: `full` normally, `quick`
  /// under --quick.
  [[nodiscard]] std::uint32_t scaled(std::uint32_t full,
                                     std::uint32_t quick) const {
    return quick_ ? quick : full;
  }

  /// One declared run, memoized by core::run_key. The first request
  /// loads it from the store or simulates it (and counts it).
  const core::RunResult& run(const core::RunSpec& spec);

  /// Count a private simulation that is not a session run (a bare
  /// machine or a lock drain).
  void note_private_run() { ++private_runs_; }

  [[nodiscard]] RunCounts run_counts() const {
    return {study_runs_.load(), transition_runs_.load(),
            private_runs_.load()};
  }

 private:
  /// run(), except that with `simulate` false a run neither memoized
  /// nor stored throws capsule::CapsuleError instead of simulating.
  const core::RunResult& memo(const core::RunSpec& spec, bool simulate);
  /// Count a simulated run under the counter its key belongs to.
  void count_simulated(std::uint64_t key);

  /// A value filled at most once, under its own lock. A fill that throws
  /// leaves the slot empty, so the next get() fills it again.
  template <typename T>
  class Memo {
   public:
    template <typename Fill>
    const T& get(Fill&& fill) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!value_) {
        value_.emplace(fill());
      }
      return *value_;
    }

   private:
    std::mutex mutex_;
    std::optional<T> value_;
  };

  bool quick_;
  core::StudyConfig study_config_;
  core::TransitionConfig transition_config_;
  std::unique_ptr<ResultStore> store_;
  Memo<core::StudyResult> study_;
  Memo<std::vector<core::AnalyzedSample>> samples_;
  Memo<std::vector<core::AnalyzedSample>> samples_with_pc_;
  Memo<std::vector<core::MedianModel>> models_;
  Memo<core::TransitionResult> transition_;
  std::mutex runs_mutex_;  ///< Guards the map, not the slots.
  std::unordered_map<std::uint64_t, Memo<core::RunResult>> runs_;
  std::atomic<int> study_runs_{0};
  std::atomic<int> transition_runs_{0};
  std::atomic<int> private_runs_{0};
};

}  // namespace repro::artifacts
