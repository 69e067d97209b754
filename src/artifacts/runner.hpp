// The artifact runner: executes a selection of the catalog concurrently
// against one shared input cache, times each render, and assembles the
// structured JSON report fx8bench emits.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "artifacts/artifact.hpp"
#include "artifacts/inputs.hpp"
#include "core/json.hpp"
#include "core/measures.hpp"

namespace repro::artifacts {

struct RunReport {
  std::vector<ArtifactResult> results;
  RunCounts run_counts;
  double total_seconds = 0.0;
  /// The call's own concurrency: c_j, Cw and Pc (§4.1) with the tasks in
  /// flight (runs and renders) as the active processors and the workers
  /// as P. Empty past kMaxTopologyCes workers.
  std::optional<core::ConcurrencyMeasures> pool;
  int ok = 0;
  int tolerance_failed = 0;
  int errors = 0;

  /// 0 when every artifact is kOk; 1 on any tolerance failure; 2 on any
  /// render error.
  [[nodiscard]] int exit_code() const;
};

/// The ===== header the old one-shot benches printed, off the def.
[[nodiscard]] std::string render_header(const ArtifactDef& def);

/// Render one artifact: wall-time the render, convert exceptions into
/// kError results.
[[nodiscard]] ArtifactResult run_artifact(const ArtifactDef& def,
                                          Inputs& inputs);

/// Called with each result of run_artifacts, on the calling thread, in
/// selection order, as soon as that result and every earlier one are
/// ready.
using ResultCallback = std::function<void(const ArtifactResult&)>;

/// Run the given defs against one shared cache, concurrently on
/// core::resolve_threads(inputs.study_config()) workers. Cached results
/// load first. The pool then takes the renders that declare no run,
/// every distinct run the other renders declare, and those renders, in
/// that order. Without a pool every render runs on the calling thread.
/// Results come back in selection order, identical to a serial
/// run_artifact loop except for `seconds`, which is contended wall time,
/// and perf_simulator's CPU-clock rates; `total_seconds` is the wall
/// time of the whole call.
[[nodiscard]] RunReport run_artifacts(
    const std::vector<const ArtifactDef*>& defs, Inputs& inputs,
    const ResultCallback& on_result = {});

/// The fx8bench JSON document (schema: docs/benchmarks.md).
[[nodiscard]] core::Json build_report_json(const RunReport& report,
                                           const Inputs& inputs,
                                           const core::StudyResult* study);

}  // namespace repro::artifacts
