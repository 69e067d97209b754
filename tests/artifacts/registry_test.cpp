// Registry completeness: every artifact of the paper is registered.
//
// The paper's reproducible surface is Tables 1-4, Figures 3-14 and
// Appendices A-B (EXPERIMENTS.md); the registry additionally carries the
// design ablations and the §6 extensions. A missing registration here
// means fx8bench silently stopped reproducing part of the paper.
#include "artifacts/registry.hpp"

#include <gtest/gtest.h>

#include "artifacts/runner.hpp"

#include <set>
#include <string>
#include <vector>

namespace repro::artifacts {
namespace {

std::set<std::string> catalog_ids() {
  std::set<std::string> ids;
  for (const ArtifactDef& def : catalog()) {
    ids.insert(def.id);
  }
  return ids;
}

TEST(Registry, CoversThePaperCatalog) {
  const std::set<std::string> ids = catalog_ids();
  const std::vector<std::string> paper_artifacts = {
      // Tables 1-4.
      "table1", "table2", "table3", "table4",
      // Figures 3-14.
      "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
      "fig11", "fig12", "fig13", "fig14",
      // Appendices A and B (B splits into bus-busy and page-fault halves).
      "appendix_a", "appendix_b_busbusy", "appendix_b_pagefault"};
  for (const std::string& id : paper_artifacts) {
    EXPECT_TRUE(ids.count(id)) << "missing paper artifact: " << id;
  }
}

TEST(Registry, CoversTheAblationsAndExtensions) {
  const std::set<std::string> ids = catalog_ids();
  for (const char* id :
       {"ablation_service_order", "ablation_locality",
        "ablation_vector_traffic", "ablation_dispatch", "trace_vs_sampling",
        "scheduling_policy", "width_sweep", "width_scaling",
        "correlation_matrix",
        "detached_artifact", "high_concurrency_captures"}) {
    EXPECT_TRUE(ids.count(id)) << "missing artifact: " << id;
  }
}

TEST(Registry, IdsAreUniqueAndDefsComplete) {
  std::set<std::string> seen;
  for (const ArtifactDef& def : catalog()) {
    EXPECT_TRUE(seen.insert(def.id).second) << "duplicate id: " << def.id;
    EXPECT_FALSE(def.id.empty());
    EXPECT_FALSE(def.paper_ref.empty()) << def.id;
    EXPECT_FALSE(def.title.empty()) << def.id;
    EXPECT_FALSE(def.paper_claim.empty()) << def.id;
    EXPECT_TRUE(static_cast<bool>(def.render)) << def.id;
  }
}

TEST(Registry, CatalogFollowsPaperOrder) {
  // Tables first, then figures in paper order, then appendices; the
  // ablations and extensions trail the paper artifacts.
  const auto& defs = catalog();
  ASSERT_GE(defs.size(), 4u);
  EXPECT_EQ(defs[0].id, "table1");
  EXPECT_EQ(defs[1].id, "table2");
  std::size_t first_ablation = defs.size();
  std::size_t last_paper = 0;
  for (std::size_t i = 0; i < defs.size(); ++i) {
    if (defs[i].kind == ArtifactKind::kAblation ||
        defs[i].kind == ArtifactKind::kExtension) {
      first_ablation = std::min(first_ablation, i);
    } else {
      last_paper = i;
    }
  }
  EXPECT_LT(last_paper, first_ablation);
}

TEST(Registry, DeclaredRunsMatchRenders) {
  // The runner runs every declared run on its pool before the renders;
  // a sampled run a render made undeclared would run serially inside a
  // pool worker. Each def alone on a fresh Inputs shows what its render
  // still simulates once its declared runs are resolved: nothing, apart
  // from the two non-session loops.
  for (const ArtifactDef& def : catalog()) {
    Inputs inputs(/*quick=*/true);
    if (def.runs) {  // Resolved on a pool, as the runner would.
      (void)core::run_all(
          def.runs(inputs), core::resolve_threads(inputs.study_config()),
          [&inputs](const core::RunSpec& spec) { return inputs.run(spec); });
    }
    const RunCounts before = inputs.run_counts();
    const ArtifactResult result = run_artifact(def, inputs);
    EXPECT_EQ(result.status, ArtifactStatus::kOk) << def.id;
    const RunCounts after = inputs.run_counts();
    EXPECT_EQ(after.study_runs, before.study_runs) << def.id;
    EXPECT_EQ(after.transition_runs, before.transition_runs) << def.id;
    // ablation_dispatch's 6 quick dispatch loops and predictor_validation's
    // 2 quick anchor points are bare-machine and lock-drain runs.
    const int loops = def.id == "ablation_dispatch"      ? 6
                      : def.id == "predictor_validation" ? 2
                                                         : 0;
    EXPECT_EQ(after.private_runs - before.private_runs, loops) << def.id;
  }
}

TEST(Registry, FindArtifactResolvesIdsOnly) {
  EXPECT_NE(find_artifact("fig12"), nullptr);
  EXPECT_EQ(find_artifact("fig12")->paper_ref, "Figure 12");
  EXPECT_EQ(find_artifact("no_such_artifact"), nullptr);
  EXPECT_EQ(find_artifact(""), nullptr);
}

TEST(Registry, SuggestsTheNearestIdForTypos) {
  // The --only did-you-mean path: one-edit typos resolve to the
  // intended artifact.
  ASSERT_NE(suggest_artifact("fig99"), nullptr);
  EXPECT_EQ(suggest_artifact("fig99")->id, "fig9");
  EXPECT_EQ(suggest_artifact("tabel2")->id, "table2");
  EXPECT_EQ(suggest_artifact("appendix_c")->id, "appendix_a");
  // Exact ids suggest themselves (distance zero), and even a hopeless
  // input still gets the nearest (never nullptr on a non-empty catalog).
  EXPECT_EQ(suggest_artifact("fig12")->id, "fig12");
  EXPECT_NE(suggest_artifact("zzzzzzzzzz"), nullptr);
}

TEST(Registry, KindNamesSerialize) {
  EXPECT_STREQ(to_string(ArtifactKind::kTable), "table");
  EXPECT_STREQ(to_string(ArtifactKind::kFigure), "figure");
  EXPECT_STREQ(to_string(ArtifactKind::kAppendix), "appendix");
  EXPECT_STREQ(to_string(ArtifactKind::kAblation), "ablation");
  EXPECT_STREQ(to_string(ArtifactKind::kExtension), "extension");
  EXPECT_STREQ(to_string(ArtifactStatus::kOk), "ok");
  EXPECT_STREQ(to_string(ArtifactStatus::kToleranceFailed),
               "tolerance_failed");
  EXPECT_STREQ(to_string(ArtifactStatus::kError), "error");
}

}  // namespace
}  // namespace repro::artifacts
