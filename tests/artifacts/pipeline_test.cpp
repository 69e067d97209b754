// End-to-end over the real catalog at --quick scale: the shared cache
// runs each experiment at most once however many artifacts read it, and
// the paper-headline artifacts land inside their tolerance bands.
//
// Everything here shares ONE quick-scale cache (the same population CI's
// fx8bench --quick run gates on), so the suite costs one study + one
// transition study, not one per test.
#include <gtest/gtest.h>

#include <cmath>

#include "artifacts/registry.hpp"
#include "artifacts/runner.hpp"

namespace repro::artifacts {
namespace {

class QuickPipeline : public ::testing::Test {
 protected:
  static Inputs& inputs() {
    static Inputs shared(/*quick=*/true);
    return shared;
  }

  static const ArtifactResult& result(const std::string& id) {
    static std::vector<ArtifactResult> cache;
    for (const ArtifactResult& cached : cache) {
      if (cached.id == id) {
        return cached;
      }
    }
    const ArtifactDef* def = find_artifact(id);
    EXPECT_NE(def, nullptr) << id;
    cache.push_back(run_artifact(*def, inputs()));
    return cache.back();
  }

  static const Check* find_check(const ArtifactResult& res,
                                 const std::string& name) {
    for (const Check& check : res.checks) {
      if (check.name == name) {
        return &check;
      }
    }
    return nullptr;
  }
};

TEST_F(QuickPipeline, Table2HeadlineMeasuresWithinTolerance) {
  const ArtifactResult& table2 = result("table2");
  ASSERT_EQ(table2.status, ArtifactStatus::kOk) << table2.error;
  // The four headline measures of the study (paper: Cw = 0.35,
  // c(8) = 0.28, c(8|c) = 0.93, Pc = 7.66).
  for (const char* name : {"cw", "c8", "c8_given_c", "pc"}) {
    const Check* check = find_check(table2, name);
    ASSERT_NE(check, nullptr) << name;
    EXPECT_TRUE(check->pass) << name << " = " << check->measured
                             << " outside [" << check->lo << ", "
                             << check->hi << "]";
  }
}

TEST_F(QuickPipeline, Fig12MissRateRisesLikeThePaper) {
  const ArtifactResult& fig12 = result("fig12");
  ASSERT_EQ(fig12.status, ArtifactStatus::kOk) << fig12.error;
  const Check* ratio = find_check(fig12, "rise_ratio");
  ASSERT_NE(ratio, nullptr);
  EXPECT_TRUE(ratio->pass) << "rise_ratio = " << ratio->measured;
  EXPECT_GT(ratio->measured, 1.4);  // the paper's "greater than triple"
}

TEST_F(QuickPipeline, StudyArtifactsRenderNonEmptyText) {
  for (const char* id : {"table2", "fig3", "fig12"}) {
    const ArtifactResult& res = result(id);
    EXPECT_FALSE(res.text.empty()) << id;
    EXPECT_NE(res.status, ArtifactStatus::kError) << id << ": " << res.error;
  }
}

TEST_F(QuickPipeline, SharedExperimentsRunAtMostOnce) {
  // Force several study readers and both transition readers.
  result("table2");
  result("fig3");
  result("fig4");
  result("fig12");
  result("fig6");
  result("fig7");
  const RunCounts& counts = inputs().run_counts();
  EXPECT_EQ(counts.study_runs, 1);
  EXPECT_EQ(counts.transition_runs, 1);
  EXPECT_NE(inputs().study_for_report(), nullptr);
}

TEST_F(QuickPipeline, StudyEngineReportsFastForwardActivity) {
  result("table2");  // ensures the study ran
  const core::StudyResult* study = inputs().study_for_report();
  ASSERT_NE(study, nullptr);
  // The event-horizon fast-forward is on by default; a study this size
  // must have taken jumps, and accounting must cover real cycles.
  EXPECT_GT(study->ff.jumps, 0u);
  EXPECT_GT(study->ff.skipped_cycles, 0u);
}

TEST_F(QuickPipeline, QuickModeScalesPrivatePopulations) {
  EXPECT_TRUE(inputs().quick());
  EXPECT_EQ(inputs().scaled(10, 4), 4u);
  Inputs full(/*quick=*/false);
  EXPECT_EQ(full.scaled(10, 4), 10u);
  EXPECT_EQ(full.study_config().samples_per_session, 12u);
  EXPECT_LT(inputs().study_config().samples_per_session, 12u);
}

}  // namespace
}  // namespace repro::artifacts
