// Thread plumbing of the parallel study engine. Bit-identity across
// thread counts is the differential oracle's study table
// (tests/oracle/oracle_test.cpp); these cases pin the edges of the
// worker-count resolution (docs/parallel_execution.md).
#include "core/study.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "base/capsule.hpp"

namespace repro::core {
namespace {

StudyConfig quick_config(std::uint32_t threads) {
  StudyConfig config;
  config.samples_per_session = 2;
  config.sampling.interval_cycles = 15000;
  config.warmup_cycles = 3000;
  config.threads = threads;
  return config;
}

std::uint64_t digest(StudyResult result) {
  capsule::Io io = capsule::Io::digester();
  result.serialize(io);
  return io.digest();
}

TEST(StudyParallel, MoreThreadsThanSessionsIsFine) {
  const auto mixes = workload::session_presets();
  std::vector<workload::WorkloadMix> two(mixes.begin(), mixes.begin() + 2);
  EXPECT_EQ(digest(run_study(two, quick_config(16))),
            digest(run_study(two, quick_config(1))));
}

TEST(StudyParallel, ResolveThreadsPrefersConfigThenEnv) {
  EXPECT_EQ(resolve_threads(quick_config(4)), 4u);
  ASSERT_EQ(setenv("FX8_THREADS", "6", 1), 0);
  EXPECT_EQ(resolve_threads(quick_config(0)), 6u);
  EXPECT_EQ(resolve_threads(quick_config(4)), 4u);
  ASSERT_EQ(unsetenv("FX8_THREADS"), 0);
  EXPECT_GE(resolve_threads(quick_config(0)), 1u);
}

}  // namespace
}  // namespace repro::core
