// The fx8bench JSON document validates against its schema
// (docs/benchmarks.md): required top-level keys, per-artifact fields,
// check records, and null-for-NaN.
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "artifacts/runner.hpp"

namespace repro::artifacts {
namespace {

RunReport synthetic_report() {
  RunReport report;
  ArtifactResult ok;
  ok.id = "fig12";  // a real catalog id, so def metadata joins in
  ok.status = ArtifactStatus::kOk;
  ok.text = "body\n";
  ok.metrics.push_back({"missrate_at_one", 0.0191});
  ok.checks.push_back({"missrate_at_one", 0.0191, 0.024, 0.008, 0.08, true,
                       true});
  ok.seconds = 1.5;
  report.results.push_back(ok);

  ArtifactResult nan_result;
  nan_result.id = "table2";
  nan_result.status = ArtifactStatus::kToleranceFailed;
  nan_result.metrics.push_back({"cw", std::nan("")});
  nan_result.checks.push_back(
      {"cw", std::nan(""), 0.35, 0.2, 0.5, false, true});
  report.results.push_back(nan_result);

  report.ok = 1;
  report.tolerance_failed = 1;
  report.run_counts = {1, 0, 2};
  report.total_seconds = 2.0;
  // Two workers: idle a quarter of the call, one task a quarter, two
  // tasks half.
  const std::uint64_t ns[] = {500, 500, 1000};
  report.pool = core::ConcurrencyMeasures::from_counts(ns);
  return report;
}

class ReportJson : public ::testing::Test {
 protected:
  ReportJson() : inputs_(/*quick=*/true) {
    doc_ = build_report_json(synthetic_report(), inputs_,
                             /*study=*/nullptr);
  }
  Inputs inputs_;
  core::Json doc_;
};

TEST_F(ReportJson, HasTheRequiredTopLevelKeys) {
  for (const char* key : {"schema", "paper", "quick", "config",
                          "experiment_runs", "summary", "artifacts"}) {
    EXPECT_NE(doc_.find(key), nullptr) << "missing key: " << key;
  }
  EXPECT_EQ(doc_.find("schema")->as_string(), "fx8bench-report/1");
  EXPECT_TRUE(doc_.find("quick")->as_bool());
  // No artifact forced the shared study, so no engine stats.
  EXPECT_EQ(doc_.find("study_engine"), nullptr);
}

TEST_F(ReportJson, ConfigRecordsTheCanonicalSeeds) {
  const core::Json* config = doc_.find("config");
  ASSERT_NE(config, nullptr);
  const core::Json* study = config->find("study");
  ASSERT_NE(study, nullptr);
  EXPECT_EQ(study->find("seed")->as_number(),
            static_cast<double>(0x19870301));
  const core::Json* transition = config->find("transition");
  ASSERT_NE(transition, nullptr);
  EXPECT_EQ(transition->find("seed")->as_number(),
            static_cast<double>(0x19870402));
}

TEST_F(ReportJson, SummaryAndRunCountsAggregate) {
  const core::Json* summary = doc_.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("artifacts")->as_number(), 2.0);
  EXPECT_EQ(summary->find("ok")->as_number(), 1.0);
  EXPECT_EQ(summary->find("tolerance_failed")->as_number(), 1.0);
  EXPECT_EQ(summary->find("exit_code")->as_number(), 1.0);
  const core::Json* runs = doc_.find("experiment_runs");
  ASSERT_NE(runs, nullptr);
  EXPECT_EQ(runs->find("study_runs")->as_number(), 1.0);
  EXPECT_EQ(runs->find("private_runs")->as_number(), 2.0);
}

TEST_F(ReportJson, PoolProfileSitsInExperimentRunsOnly) {
  const core::Json* pool = doc_.find("experiment_runs")->find("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->find("workers")->as_number(), 2.0);
  const core::Json* c = pool->find("c");
  ASSERT_NE(c, nullptr);
  ASSERT_EQ(c->size(), 3u);
  EXPECT_EQ(c->items()[0].second.as_number(), 0.25);
  EXPECT_EQ(c->items()[1].second.as_number(), 0.25);
  EXPECT_EQ(c->items()[2].second.as_number(), 0.5);
  EXPECT_EQ(pool->find("cw")->as_number(), 0.5);
  EXPECT_EQ(pool->find("pc")->as_number(), 2.0);
  // Both report comparisons skip experiment_runs, and nothing else.
  EXPECT_EQ(doc_.find("pool"), nullptr);
  EXPECT_EQ(doc_.find("summary")->find("pool"), nullptr);
}

TEST_F(ReportJson, UndefinedPoolPcIsNull) {
  RunReport report = synthetic_report();
  const std::uint64_t ns[] = {100, 900};
  report.pool = core::ConcurrencyMeasures::from_counts(ns);
  const core::Json doc = build_report_json(report, inputs_, nullptr);
  const core::Json* pool = doc.find("experiment_runs")->find("pool");
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(pool->find("cw")->as_number(), 0.0);
  EXPECT_EQ(pool->find("pc")->kind(), core::Json::Kind::kNull);
}

TEST_F(ReportJson, ArtifactsJoinCatalogMetadataAndChecks) {
  const core::Json* artifacts = doc_.find("artifacts");
  ASSERT_NE(artifacts, nullptr);
  ASSERT_EQ(artifacts->size(), 2u);
  const core::Json& fig12 = artifacts->items()[0].second;
  EXPECT_EQ(fig12.find("id")->as_string(), "fig12");
  EXPECT_EQ(fig12.find("kind")->as_string(), "figure");
  EXPECT_EQ(fig12.find("paper_ref")->as_string(), "Figure 12");
  EXPECT_EQ(fig12.find("status")->as_string(), "ok");
  const core::Json* checks = fig12.find("checks");
  ASSERT_NE(checks, nullptr);
  ASSERT_EQ(checks->size(), 1u);
  const core::Json& check = checks->items()[0].second;
  for (const char* key :
       {"name", "measured", "paper", "lo", "hi", "pass", "enforced"}) {
    EXPECT_NE(check.find(key), nullptr) << "missing check key: " << key;
  }
  EXPECT_TRUE(check.find("pass")->as_bool());
}

TEST_F(ReportJson, NanMetricsSerializeAsNullAndStayValidJson) {
  const std::string dumped = doc_.dump(2);
  EXPECT_EQ(dumped.find("nan"), std::string::npos);
  EXPECT_EQ(dumped.find("inf"), std::string::npos);
  EXPECT_NE(dumped.find("\"cw\": null"), std::string::npos);
}

}  // namespace
}  // namespace repro::artifacts
