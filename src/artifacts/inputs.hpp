// The shared study cache behind the artifact pipeline.
//
// Sixteen of the paper's artifacts read the same nine-session
// random-sampling study and two read the same triggered transition
// study; the old one-shot bench binaries re-ran them once each (~20
// study runs per full reproduction). Inputs memoizes each experiment
// the first time an artifact asks for it and hands every later artifact
// the cached result — the experiments run *at most once* per fx8bench
// invocation, which `run_counts()` makes auditable in the JSON report.
//
// Derived views (the flattened sample population, the Pc-defined subset,
// the six fitted regression models) are memoized too, since half the
// artifacts recompute them from the same study.
//
// Artifact-private sampled runs go through the same kind of memo:
// run(spec) keys each core::RunSpec by its canonical-walk digest, so two
// artifacts that declare the same run share one execution.
//
// Every accessor is safe to call from concurrent renders: each memo is
// filled exactly once through its own std::once_flag (a caller that
// arrives while another fills it waits), and the run counters are
// atomics.
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

struct RunCounts {
  int study_runs = 0;       ///< Shared nine-session studies executed.
  int transition_runs = 0;  ///< Shared transition studies executed.
  int private_runs = 0;     ///< Artifact-private simulations executed.
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
  /// result store there: study() and transition() consult it before
  /// running and write back after, and the runner caches whole rendered
  /// artifacts through store(). Empty = in-process memoization only,
  /// exactly the pre-cache behaviour.
  explicit Inputs(bool quick = false, const std::string& cache_dir = {});

  [[nodiscard]] bool quick() const { return quick_; }
  [[nodiscard]] const core::StudyConfig& study_config() const {
    return study_config_;
  }
  [[nodiscard]] const core::TransitionConfig& transition_config() const {
    return transition_config_;
  }

  /// The shared nine-session study (memoized; runs on first call).
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

  /// The shared 8-active -> lower transition study (memoized).
  const core::TransitionResult& transition();

  /// The cached study if some artifact already forced it, else nullptr
  /// (for reporting — never triggers a run). Call it while no render is
  /// in flight.
  [[nodiscard]] const core::StudyResult* study_if_run() const {
    return study_ ? &*study_ : nullptr;
  }

  /// study_if_run(), except a warm store may satisfy it without a run:
  /// on a fully cached invocation the report's `study_engine` section
  /// still matches the cold run's byte for byte. Never simulates.
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

  /// One declared run, memoized by core::run_key (runs, and counts a
  /// private run, on the first request).
  const core::RunResult& run(const core::RunSpec& spec);

  /// Count a private simulation that is not a session run (a bare
  /// machine or a lock drain).
  void note_private_run() { ++private_runs_; }

  [[nodiscard]] RunCounts run_counts() const {
    return {study_runs_.load(), transition_runs_.load(),
            private_runs_.load()};
  }

 private:
  bool quick_;
  core::StudyConfig study_config_;
  core::TransitionConfig transition_config_;
  std::unique_ptr<ResultStore> store_;
  std::once_flag study_once_;
  std::once_flag samples_once_;
  std::once_flag samples_with_pc_once_;
  std::once_flag models_once_;
  std::once_flag transition_once_;
  std::optional<core::StudyResult> study_;
  std::optional<std::vector<core::AnalyzedSample>> samples_;
  std::optional<std::vector<core::AnalyzedSample>> samples_with_pc_;
  std::optional<std::vector<core::MedianModel>> models_;
  std::optional<core::TransitionResult> transition_;
  struct RunSlot {
    std::once_flag once;
    std::optional<core::RunResult> result;
  };
  std::mutex runs_mutex_;  ///< Guards the map, not the slots.
  std::unordered_map<std::uint64_t, RunSlot> runs_;
  std::atomic<int> study_runs_{0};
  std::atomic<int> transition_runs_{0};
  std::atomic<int> private_runs_{0};
};

}  // namespace repro::artifacts
