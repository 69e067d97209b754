#include "core/study.hpp"

#include <gtest/gtest.h>

#include "core/report.hpp"
#include "core/transition.hpp"

namespace repro::core {
namespace {

StudyConfig quick_config() {
  StudyConfig config;
  config.samples_per_session = 2;
  config.sampling.interval_cycles = 15000;
  config.warmup_cycles = 3000;
  return config;
}

TEST(Study, SessionProducesSamplesAndTotals) {
  workload::WorkloadMix mix = workload::session_presets()[2];
  const SessionResult result = run_session(mix, quick_config(), 1);
  EXPECT_EQ(result.name, mix.name);
  ASSERT_EQ(result.samples.size(), 2u);
  EXPECT_EQ(result.totals.records, 2u * 5 * 512);
  // The overall measures derive from the totals.
  EXPECT_GE(result.overall.cw, 0.0);
  EXPECT_LE(result.overall.cw, 1.0);
}

TEST(Study, StudyAggregatesSessions) {
  const auto mixes = workload::session_presets();
  std::vector<workload::WorkloadMix> two(mixes.begin(), mixes.begin() + 2);
  const StudyResult study = run_study(two, quick_config());
  ASSERT_EQ(study.sessions.size(), 2u);
  EXPECT_EQ(study.totals.records,
            study.sessions[0].totals.records +
                study.sessions[1].totals.records);
  EXPECT_EQ(study.all_samples().size(), 4u);
}

// A study is one run per session with all the session's samples. The
// literal keys pin each run's seeding, so a result store filled by an
// earlier build still serves every study run.
TEST(Study, SpecsAreOnePerSession) {
  const StudyConfig config;
  const auto mixes = workload::session_presets();
  const std::vector<RunSpec> specs = study_specs(mixes, config);
  ASSERT_EQ(specs.size(), 9u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(specs[i].mix.name, mixes[i].name);
    EXPECT_EQ(specs[i].samples, config.samples_per_session);
  }
  EXPECT_EQ(run_key(specs.front()), 0xaf65486b2ba530bdULL);
  EXPECT_EQ(run_key(specs.back()), 0xb81ddad193cc6f12ULL);
}

TEST(Study, DeterministicForConfigSeed) {
  const auto mixes = workload::session_presets();
  std::vector<workload::WorkloadMix> one(mixes.begin(), mixes.begin() + 1);
  const StudyResult a = run_study(one, quick_config());
  const StudyResult b = run_study(one, quick_config());
  EXPECT_EQ(a.totals.num, b.totals.num);
  EXPECT_EQ(a.overall.cw, b.overall.cw);
}

TEST(Study, DifferentSeedsDiffer) {
  const auto mixes = workload::session_presets();
  std::vector<workload::WorkloadMix> one(mixes.begin() + 2,
                                         mixes.begin() + 3);
  StudyConfig config_a = quick_config();
  StudyConfig config_b = quick_config();
  config_b.seed = config_a.seed + 1;
  const StudyResult a = run_study(one, config_a);
  const StudyResult b = run_study(one, config_b);
  EXPECT_NE(a.totals.num, b.totals.num);
}

TEST(Study, ConcurrentHeavySessionHasHigherCw) {
  const auto mixes = workload::session_presets();
  // session-6-batch-numeric vs session-9-serial-day.
  const SessionResult heavy = run_session(mixes[5], quick_config(), 3);
  const SessionResult light = run_session(mixes[8], quick_config(), 3);
  EXPECT_GT(heavy.overall.cw, light.overall.cw);
}

TEST(Report, Table2RendersAllColumns) {
  workload::WorkloadMix mix = workload::session_presets()[2];
  const SessionResult result = run_session(mix, quick_config(), 1);
  const std::string table = render_table2(result.overall);
  EXPECT_NE(table.find("c0"), std::string::npos);
  EXPECT_NE(table.find("c8"), std::string::npos);
  EXPECT_NE(table.find("Cw"), std::string::npos);
  EXPECT_NE(table.find("Pc"), std::string::npos);
}

TEST(Report, SessionTableListsAllSessions) {
  const auto mixes = workload::session_presets();
  std::vector<workload::WorkloadMix> two(mixes.begin(), mixes.begin() + 2);
  const StudyResult study = run_study(two, quick_config());
  const std::string table = render_session_table(study.sessions);
  EXPECT_NE(table.find(mixes[0].name), std::string::npos);
  EXPECT_NE(table.find(mixes[1].name), std::string::npos);
}

TEST(Transition, StudyCapturesTransitions) {
  TransitionConfig config;
  config.captures = 3;
  config.capture_timeout = 300000;
  config.warmup_cycles = 3000;
  const TransitionResult result = run_transition_study(
      workload::high_concurrency_mix(), config);
  EXPECT_GT(result.captures_completed, 0u);
  EXPECT_GT(result.transition_records(), 0u);
  // Shares over transition states sum to 1.
  double share_sum = 0.0;
  for (std::uint32_t j = 2; j < 8; ++j) {
    share_sum += result.transition_share(j);
  }
  EXPECT_NEAR(share_sum, 1.0, 1e-9);
}

TEST(Transition, EmptyResultHasZeroShares) {
  TransitionResult empty;
  EXPECT_DOUBLE_EQ(empty.transition_share(2), 0.0);
  EXPECT_EQ(empty.transition_records(), 0u);
}

}  // namespace
}  // namespace repro::core
