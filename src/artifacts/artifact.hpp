// The artifact registry's vocabulary.
//
// Each table, figure, appendix, ablation, and extension of the paper
// registers one ArtifactDef: an id, what the paper claims for it, the
// sampled runs it needs (core::RunSpec), and a render function that
// regenerates it from those runs and the shared input cache
// (artifacts/inputs.hpp). Rendering produces an ArtifactResult — the
// human-readable text the old one-shot bench binaries printed, plus the
// machine-readable headline metrics and paper-tolerance checks that feed
// the fx8bench JSON document.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "base/capsule.hpp"
#include "core/run.hpp"

namespace repro::artifacts {

class Inputs;
struct ArtifactDef;

enum class ArtifactKind { kTable, kFigure, kAppendix, kAblation, kExtension };

/// kOk           — rendered, every enforced check passed.
/// kToleranceFailed — rendered, but a headline value fell outside its
///                  paper-tolerance band or came out NaN.
/// kError        — the render threw (failed fit, missing capture, ...).
enum class ArtifactStatus { kOk, kToleranceFailed, kError };

[[nodiscard]] const char* to_string(ArtifactKind kind);
[[nodiscard]] const char* to_string(ArtifactStatus status);

/// A named headline number ("cw", "r_squared", ...).
struct Metric {
  std::string name;
  double value = 0.0;
};

/// A paper-tolerance verdict: measured against [lo, hi] around the
/// paper's reported value. Non-finite measurements never pass.
struct Check {
  std::string name;
  double measured = 0.0;
  double paper = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  bool pass = false;
  /// Informational checks are recorded in the JSON but do not fail the
  /// artifact (used for shape observations the simulator reproduces
  /// loosely, and for bands that only hold at paper-scale populations).
  bool enforced = true;
};

struct ArtifactResult {
  std::string id;
  ArtifactStatus status = ArtifactStatus::kOk;
  std::string error;  ///< What the render threw, when status == kError.
  std::string text;   ///< The human-readable artifact body.
  std::vector<Metric> metrics;
  std::vector<Check> checks;
  double seconds = 0.0;  ///< Render wall time (filled by the runner).

  /// Capsule walk over everything but `seconds` (wall time is a property
  /// of the run, not of the artifact): a cache hit restores the text,
  /// metrics, and checks the cold render produced, byte for byte.
  void serialize(capsule::Io& io);
};

/// Handed to a render function: the shared input cache, the artifact's
/// declared runs, and the result under construction.
class Context {
 public:
  Context(Inputs& inputs, const ArtifactDef& def)
      : inputs_(inputs), def_(def) {}

  [[nodiscard]] Inputs& in() { return inputs_; }
  [[nodiscard]] bool quick() const;

  /// The results of the artifact's declared runs (ArtifactDef::runs), in
  /// declaration order. Each comes through Inputs::run, so a run the
  /// runner already did is not repeated.
  [[nodiscard]] std::vector<const core::RunResult*> runs();

  /// Append printf-formatted text to the artifact body.
  [[gnu::format(printf, 2, 3)]] void printf(const char* format, ...);

  /// Record a headline metric.
  void metric(const std::string& name, double value);

  /// Record an enforced paper-tolerance check (also records the metric).
  /// Returns the verdict; a failed or NaN check marks the artifact
  /// kToleranceFailed.
  bool check(const std::string& name, double measured, double paper,
             double lo, double hi);

  /// Record an informational check: shown in the JSON, never fails the
  /// artifact.
  bool note(const std::string& name, double measured, double paper,
            double lo, double hi);

  /// Hard failure (missing capture, degenerate fit): marks kError.
  void fail(const std::string& reason);

  [[nodiscard]] ArtifactResult take() { return std::move(result_); }

 private:
  bool record_check(const std::string& name, double measured, double paper,
                    double lo, double hi, bool enforced);

  Inputs& inputs_;
  const ArtifactDef& def_;
  ArtifactResult result_;
};

struct ArtifactDef {
  std::string id;           ///< Stable CLI id, e.g. "fig12".
  ArtifactKind kind = ArtifactKind::kFigure;
  std::string paper_ref;    ///< "Table 2", "Figure 12", "Appendix B", ...
  std::string title;        ///< Header line, as the old benches printed.
  std::string paper_claim;  ///< What the paper reports for this artifact.
  std::function<void(Context&)> render;
  /// The sampled runs the render reads, through Context::runs() or a
  /// fold over them (Inputs::study_specs for Inputs::study(),
  /// Inputs::transition_run for Inputs::transition()). The runner runs
  /// every distinct one once, on its pool, before any render starts.
  /// Bare-machine micro-runs stay inside the render and count themselves
  /// with Inputs::note_private_run().
  std::function<std::vector<core::RunSpec>(const Inputs&)> runs = {};
};

}  // namespace repro::artifacts
