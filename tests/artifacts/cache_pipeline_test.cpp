// The persistent cache end-to-end through the real pipeline: a cold
// Inputs populates the store, a warm Inputs over the same directory
// reproduces the identical artifacts without executing a single engine,
// and every corruption or config change degrades to recompute — the
// warm results must be indistinguishable from the cold ones.
//
// Most artifacts here are the cheap shared-experiment readers (table2
// folds the study's runs, fig6 the transition run), so most cases cost
// one quick study and one quick transition run.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "artifacts/registry.hpp"
#include "artifacts/result_store.hpp"
#include "artifacts/runner.hpp"
#include "core/presets.hpp"
#include "workload/presets.hpp"

namespace repro::artifacts {
namespace {

namespace fs = std::filesystem;

void expect_same_artifact(const ArtifactResult& cold,
                          const ArtifactResult& warm) {
  EXPECT_EQ(cold.id, warm.id);
  EXPECT_EQ(cold.status, warm.status);
  EXPECT_EQ(cold.error, warm.error);
  EXPECT_EQ(cold.text, warm.text) << cold.id;
  ASSERT_EQ(cold.metrics.size(), warm.metrics.size()) << cold.id;
  for (std::size_t i = 0; i < cold.metrics.size(); ++i) {
    EXPECT_EQ(cold.metrics[i].name, warm.metrics[i].name);
    EXPECT_EQ(cold.metrics[i].value, warm.metrics[i].value)
        << cold.id << ":" << cold.metrics[i].name;
  }
  ASSERT_EQ(cold.checks.size(), warm.checks.size()) << cold.id;
  for (std::size_t i = 0; i < cold.checks.size(); ++i) {
    EXPECT_EQ(cold.checks[i].name, warm.checks[i].name);
    EXPECT_EQ(cold.checks[i].measured, warm.checks[i].measured);
    EXPECT_EQ(cold.checks[i].pass, warm.checks[i].pass);
  }
}

class CachePipeline : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("cache_pipeline_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  ArtifactResult run(Inputs& inputs, const std::string& id) {
    const ArtifactDef* def = find_artifact(id);
    EXPECT_NE(def, nullptr) << id;
    return run_artifact(*def, inputs);
  }

  fs::path dir_;
};

TEST_F(CachePipeline, WarmRunReproducesColdWithoutExecutingEngines) {
  Inputs cold(/*quick=*/true, dir_.string());
  const ArtifactResult cold_table2 = run(cold, "table2");
  const ArtifactResult cold_fig6 = run(cold, "fig6");
  EXPECT_EQ(cold.run_counts().study_runs, 1);
  EXPECT_EQ(cold.run_counts().transition_runs, 1);
  ASSERT_NE(cold.store(), nullptr);
  EXPECT_GT(cold.store()->stats().puts, 0u);

  Inputs warm(/*quick=*/true, dir_.string());
  const ArtifactResult warm_table2 = run(warm, "table2");
  const ArtifactResult warm_fig6 = run(warm, "fig6");
  // Nothing executed: both artifacts came straight off disk.
  EXPECT_EQ(warm.run_counts().study_runs, 0);
  EXPECT_EQ(warm.run_counts().transition_runs, 0);
  EXPECT_EQ(warm.run_counts().private_runs, 0);
  EXPECT_GE(warm.store()->stats().hits, 2u);
  EXPECT_EQ(warm.store()->stats().puts, 0u);
  expect_same_artifact(cold_table2, warm_table2);
  expect_same_artifact(cold_fig6, warm_fig6);
}

TEST_F(CachePipeline, WarmConcurrentRunReplaysTheWholeQuickCatalog) {
  // Both runs go through the concurrent runner, so the cold one puts and
  // the warm one reads the store from several threads.
  std::vector<const ArtifactDef*> defs;
  for (const ArtifactDef& def : catalog()) {
    defs.push_back(&def);
  }
  Inputs cold(/*quick=*/true, dir_.string());
  const RunReport cold_report = run_artifacts(defs, cold);
  ASSERT_EQ(cold_report.ok, static_cast<int>(defs.size()));
  // Every artifact and every distinct declared run.
  EXPECT_EQ(cold_report.run_counts.distinct_runs, 50);
  EXPECT_EQ(cold.store()->stats().puts, defs.size() + 50);

  Inputs warm(/*quick=*/true, dir_.string());
  const RunReport warm_report = run_artifacts(defs, warm);
  ASSERT_EQ(warm_report.results.size(), defs.size());
  for (std::size_t i = 0; i < defs.size(); ++i) {
    expect_same_artifact(cold_report.results[i], warm_report.results[i]);
  }
  EXPECT_EQ(warm_report.run_counts.study_runs, 0);
  EXPECT_EQ(warm_report.run_counts.transition_runs, 0);
  EXPECT_EQ(warm_report.run_counts.private_runs, 0);
  EXPECT_EQ(warm_report.run_counts.declared_runs, 0);
  EXPECT_EQ(warm_report.run_counts.distinct_runs, 0);
  const CacheStats stats = warm.store()->stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, defs.size());
  EXPECT_EQ(stats.puts, 0u);
}

TEST_F(CachePipeline, EvictedArtifactReplaysItsRunsWarm) {
  // A change to one artifact's analysis orphans only that artifact's
  // blob: its runs still hit the store, so re-rendering it simulates
  // nothing. ablation_locality declares six private runs, fig3 folds the
  // study's nine.
  std::vector<const ArtifactDef*> defs;
  for (const ArtifactDef& def : catalog()) {
    defs.push_back(&def);
  }
  Inputs cold(/*quick=*/true, dir_.string());
  const RunReport cold_report = run_artifacts(defs, cold);
  ASSERT_EQ(cold_report.ok, static_cast<int>(defs.size()));
  for (const char* id : {"ablation_locality", "fig3"}) {
    ASSERT_TRUE(fs::remove(cold.store()->object_path(cold.artifact_key(id))))
        << id;
  }

  Inputs warm(/*quick=*/true, dir_.string());
  const RunReport warm_report = run_artifacts(defs, warm);
  ASSERT_EQ(warm_report.results.size(), defs.size());
  for (std::size_t i = 0; i < defs.size(); ++i) {
    expect_same_artifact(cold_report.results[i], warm_report.results[i]);
  }
  EXPECT_EQ(warm_report.run_counts.study_runs, 0);
  EXPECT_EQ(warm_report.run_counts.transition_runs, 0);
  EXPECT_EQ(warm_report.run_counts.private_runs, 0);
  EXPECT_EQ(warm_report.run_counts.declared_runs, 6 + 9);
  EXPECT_EQ(warm_report.run_counts.distinct_runs, 6 + 9);
  // The two artifacts were put back; no run was.
  EXPECT_EQ(warm.store()->stats().puts, 2u);
}

TEST_F(CachePipeline, WarmStudyForReportMatchesColdStudy) {
  Inputs cold(/*quick=*/true, dir_.string());
  run(cold, "table2");
  ASSERT_NE(cold.study_for_report(), nullptr);
  const auto cold_blob = encode_result(*cold.study_for_report());

  Inputs warm(/*quick=*/true, dir_.string());
  run(warm, "table2");
  // The artifact itself was satisfied from the artifact blob, so the
  // study never ran — but the report path still reconstructs it from
  // the store, bit-identical to the cold one.
  EXPECT_EQ(warm.run_counts().study_runs, 0);
  const std::uint64_t hits = warm.store()->stats().hits;
  const core::StudyResult* restored = warm.study_for_report();
  // Folded from the nine stored study runs, without simulating.
  EXPECT_EQ(warm.store()->stats().hits, hits + 9);
  EXPECT_EQ(warm.run_counts().study_runs, 0);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(encode_result(*restored), cold_blob);
}

TEST_F(CachePipeline, TamperedArtifactBlobRecomputesIdentically) {
  Inputs cold(/*quick=*/true, dir_.string());
  const ArtifactResult cold_fig6 = run(cold, "fig6");

  // Tamper with the cached fig6 artifact blob (flip a byte mid-payload).
  const std::string path =
      cold.store()->object_path(cold.artifact_key("fig6"));
  ASSERT_TRUE(fs::exists(path));
  {
    std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(40);
    char byte;
    file.read(&byte, 1);
    file.seekp(40);
    byte = static_cast<char>(byte ^ 0xFF);
    file.write(&byte, 1);
  }

  Inputs warm(/*quick=*/true, dir_.string());
  const ArtifactResult warm_fig6 = run(warm, "fig6");
  // The corrupt blob forced a real recompute (the transition run's blob
  // is still good, so only the artifact render re-ran)...
  EXPECT_GE(warm.store()->stats().corrupt_misses, 1u);
  // ...and the recomputed result is byte-for-byte the cold one.
  expect_same_artifact(cold_fig6, warm_fig6);
  // The recompute healed the store for next time.
  EXPECT_GT(warm.store()->stats().puts, 0u);
}

TEST_F(CachePipeline, ThreadedRunReusesASerialEntry) {
  // threads is a perf-only knob, so a threads=4 study finds the run
  // entries a threads=1 study stored, and each entry is bit for bit what
  // the threads=4 study computes.
  const auto presets = workload::session_presets();
  const std::vector<workload::WorkloadMix> mixes(presets.begin(),
                                                 presets.begin() + 3);
  core::StudyConfig serial = core::presets::tiny_study();
  serial.threads = 1;
  core::StudyConfig threaded = serial;
  threaded.threads = 4;

  ResultStore cold(dir_.string());
  const std::vector<core::RunSpec> serial_specs =
      core::study_specs(mixes, serial);
  const std::vector<core::RunResult> serial_runs =
      core::run_all(serial_specs, serial.threads);
  for (std::size_t i = 0; i < serial_specs.size(); ++i) {
    cold.put(run_cache_key(serial_specs[i]), encode_result(serial_runs[i]));
  }

  ResultStore warm(dir_.string());
  const std::vector<core::RunSpec> threaded_specs =
      core::study_specs(mixes, threaded);
  const std::vector<core::RunResult> threaded_runs =
      core::run_all(threaded_specs, threaded.threads);
  ASSERT_EQ(threaded_specs.size(), mixes.size());
  for (std::size_t i = 0; i < threaded_specs.size(); ++i) {
    const auto hit = warm.get(run_cache_key(threaded_specs[i]));
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(*hit, encode_result(threaded_runs[i])) << i;
  }
  EXPECT_EQ(warm.stats().hits, mixes.size());
}

TEST_F(CachePipeline, QuickAndFullPopulationsNeverShareEntries) {
  Inputs quick(/*quick=*/true, dir_.string());
  Inputs full(/*quick=*/false, dir_.string());
  EXPECT_NE(quick.artifact_key("table2"), full.artifact_key("table2"));
  std::set<std::uint64_t> full_keys;
  for (const core::RunSpec& spec : full.study_specs()) {
    full_keys.insert(run_cache_key(spec));
  }
  full_keys.insert(run_cache_key(full.transition_run()));
  for (const core::RunSpec& spec : quick.study_specs()) {
    EXPECT_EQ(full_keys.count(run_cache_key(spec)), 0u);
  }
  EXPECT_EQ(full_keys.count(run_cache_key(quick.transition_run())), 0u);
}

TEST_F(CachePipeline, DisabledCacheKeepsTheOldBehaviour) {
  Inputs inputs(/*quick=*/true);  // No cache_dir: in-process memo only.
  EXPECT_EQ(inputs.store(), nullptr);
  run(inputs, "fig6");
  EXPECT_EQ(inputs.run_counts().transition_runs, 1);
  EXPECT_FALSE(fs::exists(dir_));  // Nothing written anywhere.
}

}  // namespace
}  // namespace repro::artifacts
