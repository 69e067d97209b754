#include "instr/session_controller.hpp"

#include <gtest/gtest.h>

#include "base/expect.hpp"
#include "workload/presets.hpp"

namespace repro::instr {
namespace {

class SessionControllerTest : public ::testing::Test {
 protected:
  SessionControllerTest()
      : system_(os::SystemConfig{}),
        generator_(workload::high_concurrency_mix(), 77) {}

  SamplingConfig quick_config() {
    SamplingConfig config;
    config.interval_cycles = 20000;
    config.snapshots_per_sample = 5;
    config.buffer_depth = 512;
    return config;
  }

  os::System system_;
  workload::WorkloadGenerator generator_;
};

TEST_F(SessionControllerTest, SampleGathersFiveSnapshots) {
  SessionController controller(system_, generator_, quick_config(), 1);
  const SampleRecord sample = controller.take_sample();
  EXPECT_EQ(sample.hw.records, 5u * 512u);
  EXPECT_EQ(sample.interval_cycles, 20000u);
  EXPECT_EQ(sample.index, 0u);
}

TEST_F(SessionControllerTest, SampleAdvancesSystemTime) {
  SessionController controller(system_, generator_, quick_config(), 1);
  const Cycle before = system_.now();
  (void)controller.take_sample();
  EXPECT_EQ(system_.now(), before + 20000u);
}

TEST_F(SessionControllerTest, SessionIndexesSamples) {
  SessionController controller(system_, generator_, quick_config(), 1);
  std::vector<SampleRecord> samples;
  for (int s = 0; s < 3; ++s) {
    samples.push_back(controller.take_sample());
  }
  EXPECT_EQ(samples[0].index, 0u);
  EXPECT_EQ(samples[2].index, 2u);
}

TEST_F(SessionControllerTest, SoftwareCountersAreDeltas) {
  SessionController controller(system_, generator_, quick_config(), 1);
  std::vector<SampleRecord> samples;
  for (int s = 0; s < 4; ++s) {
    samples.push_back(controller.take_sample());
  }
  std::uint64_t total_faults = 0;
  for (const SampleRecord& sample : samples) {
    total_faults += sample.sw.ce_page_faults();
  }
  // Deltas over all samples equal the counter growth during sampling
  // (the counters started at zero).
  EXPECT_EQ(total_faults, system_.counters().ce_page_faults());
}

TEST_F(SessionControllerTest, TriggeredCaptureCompletesUnderLoad) {
  SessionController controller(system_, generator_, quick_config(), 1);
  const auto window = controller.capture_triggered(
      TriggerMode::kTransitionFromFull, 500000);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->counts.records, 512u);
  // The first captured record is the transition itself: < 8 active.
  EXPECT_LT(window->counts.num[8], 512u);
}

TEST_F(SessionControllerTest, TriggeredCaptureTimesOutOnIdleSystem) {
  os::System idle_system{os::SystemConfig{}};
  workload::WorkloadMix idle_mix;
  idle_mix.mean_idle_cycles = 1e12;
  idle_mix.concurrent_job_fraction = 0.0;
  workload::WorkloadGenerator idle_generator(idle_mix, 1);
  SessionController controller(idle_system, idle_generator, quick_config(),
                               1);
  const auto window =
      controller.capture_triggered(TriggerMode::kAllActive, 5000);
  EXPECT_FALSE(window.has_value());
  // The watched cycles still run, exactly the timeout's worth.
  const FastForwardStats& ff = controller.ff_stats();
  EXPECT_EQ(ff.skipped_cycles + ff.block_cycles + ff.naive_cycles, 5000u);
  EXPECT_EQ(idle_system.now(), 5000u);
}

TEST_F(SessionControllerTest, RejectsZeroBufferDepth) {
  // A zero-deep acquisition would count nothing and could never complete
  // a triggered capture: refuse it when the controller is built.
  SamplingConfig config = quick_config();
  config.buffer_depth = 0;
  EXPECT_THROW(
      (SessionController{system_, generator_, config, 1}),
      ContractViolation);
}

TEST_F(SessionControllerTest, RejectsTooShortInterval) {
  SamplingConfig config;
  config.interval_cycles = 100;  // cannot hold 5 x 512 acquisitions
  EXPECT_THROW(
      (SessionController{system_, generator_, config, 1}),
      ContractViolation);
}

}  // namespace
}  // namespace repro::instr
