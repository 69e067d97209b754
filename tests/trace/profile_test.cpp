#include "trace/profile.hpp"

#include <gtest/gtest.h>

#include "base/expect.hpp"
#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"
#include "trace/tracer.hpp"
#include "workload/kernels.hpp"

namespace repro::trace {
namespace {

// --- Synthetic-trace tests: exact expectations -------------------------

std::vector<TraceEvent> synthetic_trace() {
  // Job 1: [0,100]; serial [0,20]; loop [20,90] trip 2, two iterations
  // overlapping on CEs 0 and 1: [25,65] and [30,70]; serial [90,100].
  return {
      {0, EventKind::kJobStart, 1, 0, 0, 0},
      {0, EventKind::kSerialPhaseStart, 1, 0, 0, 0},
      {20, EventKind::kSerialPhaseEnd, 1, 0, 0, 0},
      {20, EventKind::kLoopStart, 1, 1, 0, 2},
      {25, EventKind::kIterationStart, 1, 1, 0, 0},
      {30, EventKind::kIterationStart, 1, 1, 1, 1},
      {65, EventKind::kIterationEnd, 1, 1, 0, 0},
      {70, EventKind::kIterationEnd, 1, 1, 1, 1},
      {90, EventKind::kLoopEnd, 1, 1, 0, 0},
      {90, EventKind::kSerialPhaseStart, 1, 2, 0, 0},
      {100, EventKind::kSerialPhaseEnd, 1, 2, 0, 0},
      {100, EventKind::kJobEnd, 1, 0, 0, 0},
  };
}

TEST(Profile, SyntheticTraceMeasuresExactly) {
  const auto events = synthetic_trace();
  const ProgramProfile profile = profile_job(events, 1, 2);
  EXPECT_EQ(profile.duration(), 100u);
  EXPECT_EQ(profile.serial_cycles, 30u);
  EXPECT_EQ(profile.concurrent_cycles, 70u);
  EXPECT_DOUBLE_EQ(profile.cw, 0.7);
  ASSERT_TRUE(profile.pc_defined);
  // Overlap integral: [25,30):1*5 + [30,65):2*35 + [65,70):1*5 = 80.
  EXPECT_NEAR(profile.pc, 80.0 / 70.0, 1e-12);

  ASSERT_EQ(profile.loops.size(), 1u);
  const LoopProfile& loop = profile.loops[0];
  EXPECT_EQ(loop.trip_count, 2u);
  EXPECT_EQ(loop.duration(), 70u);
  EXPECT_NEAR(loop.mean_overlap, 80.0 / 70.0, 1e-12);
  // Overlap reaches full width (2) at t=30; drain = 90 - 30 = 60.
  EXPECT_EQ(loop.drain_cycles, 60u);
  EXPECT_EQ(loop.iterations_per_ce[0], 1u);
  EXPECT_EQ(loop.iterations_per_ce[1], 1u);
}

TEST(Profile, MissingMarkersThrow) {
  auto events = synthetic_trace();
  events.pop_back();  // drop job-end
  EXPECT_THROW((void)profile_job(events, 1, 2), ContractViolation);
  EXPECT_THROW((void)profile_job(synthetic_trace(), 99, 2),
               ContractViolation);
}

TEST(Profile, SerialOnlyJobHasUndefinedPc) {
  const std::vector<TraceEvent> events = {
      {0, EventKind::kJobStart, 1, 0, 0, 0},
      {0, EventKind::kSerialPhaseStart, 1, 0, 0, 0},
      {50, EventKind::kSerialPhaseEnd, 1, 0, 0, 0},
      {50, EventKind::kJobEnd, 1, 0, 0, 0},
  };
  const ProgramProfile profile = profile_job(events, 1);
  EXPECT_DOUBLE_EQ(profile.cw, 0.0);
  EXPECT_FALSE(profile.pc_defined);
  EXPECT_TRUE(profile.loops.empty());
}

// --- End-to-end: profile a real traced execution -----------------------

class ProfileEndToEnd : public ::testing::Test {
 protected:
  ProfileEndToEnd() : machine_(fx8::MachineConfig::fx8(), mmu_) {
    machine_.cluster().set_observer(&tracer_);
  }

  fx8::NoFaultMmu mmu_;
  fx8::Machine machine_;
  EventTracer tracer_;
};

TEST_F(ProfileEndToEnd, TracedJobProfileIsConsistent) {
  workload::KernelTuning tuning;
  isa::ConcurrentLoopPhase loop;
  loop.body = workload::matmul_row_body(tuning);
  loop.trip_count = 8 * 4 + 2;
  const isa::Program program = isa::ProgramBuilder("profiled")
                                   .data_base(0x01000000)
                                   .serial(workload::scalar_setup_body(tuning), 1)
                                   .concurrent_loop(loop)
                                   .serial(workload::scalar_setup_body(tuning), 1)
                                   .build();
  machine_.cluster().load(program, 7);
  while (machine_.cluster().busy()) {
    machine_.tick();
  }

  const ProgramProfile profile = profile_job(tracer_.events(), 7);
  EXPECT_GT(profile.duration(), 0u);
  EXPECT_GT(profile.cw, 0.3);
  EXPECT_LT(profile.cw, 1.0);
  ASSERT_TRUE(profile.pc_defined);
  EXPECT_GT(profile.pc, 4.0);
  EXPECT_LE(profile.pc, 8.0);

  ASSERT_EQ(profile.loops.size(), 1u);
  const LoopProfile& lp = profile.loops[0];
  EXPECT_EQ(lp.trip_count, 34u);
  std::uint64_t total_iters = 0;
  for (const std::uint64_t n : lp.iterations_per_ce) {
    total_iters += n;
  }
  EXPECT_EQ(total_iters, 34u);
  EXPECT_GT(lp.drain_cycles, 0u);
  EXPECT_LT(lp.drain_cycles, lp.duration());
}

TEST_F(ProfileEndToEnd, ProfileAllFindsEveryCompletedJob) {
  workload::KernelTuning tuning;
  const isa::Program program =
      isa::ProgramBuilder("p")
          .data_base(0x01000000)
          .serial(workload::editor_body(tuning), 1)
          .build();
  for (JobId job = 1; job <= 3; ++job) {
    machine_.cluster().load(program, job);
    while (machine_.cluster().busy()) {
      machine_.tick();
    }
  }
  const auto profiles = profile_all(tracer_.events());
  ASSERT_EQ(profiles.size(), 3u);
  EXPECT_EQ(profiles[0].job, 1u);
  EXPECT_EQ(profiles[2].job, 3u);
  // Start-ordered.
  EXPECT_LT(profiles[0].start, profiles[1].start);
}

}  // namespace
}  // namespace repro::trace
