// Failure-injection / pathological-configuration stress tests.
//
// Each case pushes one subsystem to a degenerate operating point and
// asserts the whole stack still terminates with sane measures — the
// reproduction must not depend on the calibrated "happy path".
#include <gtest/gtest.h>

#include "core/study.hpp"
#include "instr/session_controller.hpp"
#include "os/system.hpp"
#include "workload/generator.hpp"
#include "workload/presets.hpp"

namespace repro::core {
namespace {

/// Run a short sampled session under the given system/mix and return the
/// analyzed samples; fails the test if anything hangs.
std::vector<AnalyzedSample> run_short(const os::SystemConfig& system_config,
                                      const workload::WorkloadMix& mix,
                                      std::uint64_t seed) {
  os::System system{system_config};
  workload::WorkloadGenerator generator(mix, seed);
  instr::SamplingConfig sampling;
  sampling.interval_cycles = 20000;
  instr::SessionController controller(system, generator, sampling, seed);
  std::vector<instr::SampleRecord> records;
  for (int s = 0; s < 2; ++s) {
    records.push_back(controller.take_sample());
  }
  return analyze_all(records, system.machine().cluster().width());
}

void expect_sane(const std::vector<AnalyzedSample>& samples) {
  for (const AnalyzedSample& sample : samples) {
    EXPECT_GE(sample.measures.cw, 0.0);
    EXPECT_LE(sample.measures.cw, 1.0);
    EXPECT_GE(sample.miss_rate, 0.0);
    EXPECT_LE(sample.miss_rate, 1.0);
    EXPECT_GE(sample.bus_busy, 0.0);
    EXPECT_LE(sample.bus_busy, 1.0);
    if (sample.measures.pc_defined) {
      EXPECT_GE(sample.measures.pc, 2.0);
      EXPECT_LE(sample.measures.pc, 8.0 + 1e-9);
    }
  }
}

TEST(Stress, ThrashingVirtualMemory) {
  // One-page resident sets: every new page touch evicts; faults dominate.
  os::SystemConfig config;
  config.vm.resident_limit_pages = 1;
  config.vm.fault_service_cycles = 200;
  const auto samples =
      run_short(config, workload::session_presets()[2], 1);
  expect_sane(samples);
  // The thrash shows up in the counters.
  std::uint64_t faults = 0;
  for (const AnalyzedSample& sample : samples) {
    faults += sample.raw.sw.ce_page_faults();
  }
  EXPECT_GT(faults, 0u);
}

TEST(Stress, FullySerialDependenceChains) {
  // Every iteration depends on its predecessor: loops serialize entirely.
  workload::WorkloadMix mix = workload::high_concurrency_mix();
  mix.numeric.dependence_prob = 1.0;
  const auto samples = run_short(os::SystemConfig{}, mix, 2);
  expect_sane(samples);
}

TEST(Stress, SingleIterationLoops) {
  workload::WorkloadMix mix;
  mix.concurrent_job_fraction = 1.0;
  mix.mean_idle_cycles = 0;
  mix.numeric.trip_law.weight_multiple_of_width = 0.0;
  mix.numeric.trip_law.weight_two_leftover = 0.0;
  mix.numeric.trip_law.weight_uniform = 0.0;
  mix.numeric.trip_law.weight_narrow = 1.0;
  mix.numeric.trip_law.width = 2;  // narrow mode degenerates to trip 1
  const auto samples = run_short(os::SystemConfig{}, mix, 3);
  expect_sane(samples);
}

TEST(Stress, GiantCodeFootprintsThrashTheIcache) {
  workload::WorkloadMix mix = workload::session_presets()[2];
  mix.numeric.tuning.concurrent_compute_cycles = 2;
  const auto samples = run_short(os::SystemConfig{}, mix, 4);
  expect_sane(samples);
}

TEST(Stress, SaturatedArrivalsNeverIdle) {
  workload::WorkloadMix mix = workload::session_presets()[5];
  mix.mean_idle_cycles = 0;
  mix.mean_burst_jobs = 8.0;
  const auto samples = run_short(os::SystemConfig{}, mix, 5);
  expect_sane(samples);
  // Machine should be busy nearly all the time.
  double cw_sum = 0.0;
  for (const AnalyzedSample& sample : samples) {
    cw_sum += sample.measures.cw;
  }
  EXPECT_GT(cw_sum / static_cast<double>(samples.size()), 0.3);
}

TEST(Stress, NarrowTwoCeMachineRunsTheFullStack) {
  os::SystemConfig config;
  config.machine.cluster.n_ces = 2;
  config.machine.cluster.policy = fx8::ServicePolicy::kAscending;
  workload::WorkloadMix mix = workload::session_presets()[2];
  mix.numeric.trip_law.width = 2;
  const auto samples = run_short(config, mix, 6);
  expect_sane(samples);
}

TEST(Stress, ZeroDutyIpsAndIdleWorkload) {
  os::SystemConfig config;
  config.machine.ip.duty = 0.0;
  workload::WorkloadMix mix;
  mix.mean_idle_cycles = 1e9;  // never submits after the first burst
  mix.concurrent_job_fraction = 0.0;
  const auto samples = run_short(config, mix, 7);
  expect_sane(samples);
}

}  // namespace
}  // namespace repro::core
