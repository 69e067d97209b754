// Figures 6-7: the Chapter 4.3 triggered transition captures, off the
// shared transition study. Ported from bench_fig6/_fig7.
#include <cmath>
#include <vector>

#include "artifacts/inputs.hpp"
#include "artifacts/registry.hpp"
#include "core/report.hpp"
#include "core/transition.hpp"

namespace repro::artifacts {

namespace {

// Figure 6: Number of Records with N Processors Active / Concurrency
// Transition Periods. Paper: 2-active accounts for 52.4% of the
// transition records; 7..3 shares are 8.0/8.1/5.5/15.5/10.5%.
void render_fig6(Context& ctx) {
  const core::TransitionResult& result = ctx.in().transition();

  ctx.printf("captures: %u completed, %u timed out\n\n",
             result.captures_completed, result.captures_timed_out);
  const double paper_share[8] = {0, 0, 52.43, 10.49, 15.49, 5.48, 8.08,
                                 8.03};
  ctx.printf("  state    paper    measured\n");
  for (std::uint32_t j = 7; j >= 2; --j) {
    ctx.printf("  %u-active  %5.1f%%   %5.1f%%\n", j, paper_share[j],
               100.0 * result.transition_share(j));
  }

  std::uint32_t dominant = 2;
  for (std::uint32_t j = 3; j < 8; ++j) {
    if (result.state_counts[j] > result.state_counts[dominant]) {
      dominant = j;
    }
  }
  ctx.printf("\ndominant transition state: %u-active (paper: 2-active)\n",
             dominant);
  ctx.printf("idle overhead across transition records: %.1f%% of the\n"
             "processor-cycles an instantaneous drain would deliver "
             "(§4.3's multiprocessing overhead)\n",
             100.0 * result.idle_overhead());

  if (result.captures_completed == 0) {
    ctx.fail("no transition captures completed");
    return;
  }
  // 2-active dominates in both the paper and the reproduction (the 8j+2
  // leftover-iteration mode); 52.4% there, 29% here.
  ctx.check("dominant_state", dominant, 2.0, 2.0, 2.0);
  ctx.check("two_active_share_pct", 100.0 * result.transition_share(2),
            52.43, 15.0, 70.0);
  ctx.metric("idle_overhead", result.idle_overhead());
}

// Figure 7: Number of Records Active by Processor Number / Concurrency
// Transition Periods. Paper: CE7 and CE0 most active; CE2/3/4 least.
void render_fig7(Context& ctx) {
  const core::TransitionResult& result = ctx.in().transition();

  ctx.printf("%s\n",
             core::render_processor_histogram(result.processor_counts,
                                              "Transition records only")
                 .c_str());

  const auto& proc = result.processor_counts;
  const double outer = static_cast<double>(proc[7] + proc[0]) / 2.0;
  const double inner =
      static_cast<double>(proc[2] + proc[3] + proc[4]) / 3.0;
  const double ratio = inner > 0.0 ? outer / inner : NAN;
  ctx.printf("mean(CE7,CE0) / mean(CE2,CE3,CE4) = %.2f (paper: > 1)\n",
             ratio);
  // The fixed-priority asymmetry: outer CEs visibly above the inner
  // ones (measured 2.0 at paper scale).
  ctx.check("outer_over_inner_activity", ratio, 2.0, 1.05, 10.0);
}

/// The shared transition run both figures fold (Inputs::transition()).
std::vector<core::RunSpec> shared_transition_run(const Inputs& in) {
  return {in.transition_run()};
}

}  // namespace

void register_transition_figures(std::vector<ArtifactDef>& catalog) {
  catalog.push_back(
      {"fig6", ArtifactKind::kFigure, "Figure 6",
       "FIGURE 6 — Transition-Period Activity Histogram",
       "2-active dominates at 52.4%; the 7->3 states drain quickly",
       render_fig6, shared_transition_run});
  catalog.push_back(
      {"fig7", ArtifactKind::kFigure, "Figure 7",
       "FIGURE 7 — Transition Activity by Processor Number",
       "CE7 and CE0 most active during transitions; CE2, CE3, CE4 least",
       render_fig7, shared_transition_run});
}

}  // namespace repro::artifacts
