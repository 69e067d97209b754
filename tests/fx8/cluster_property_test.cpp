// Property tests: cluster execution invariants under randomized programs.
//
// Uses the marker tracer as the oracle: every dispatched iteration
// completes exactly once, phases are properly nested, and the active
// mask never exceeds what the CCB could justify.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "base/rng.hpp"
#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"
#include "trace/tracer.hpp"
#include "workload/jobs.hpp"
#include "workload/kernels.hpp"

namespace repro::fx8 {
namespace {

class ClusterProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClusterProperty, RandomJobsExecuteEveryIterationExactlyOnce) {
  Rng rng(GetParam());
  NoFaultMmu mmu;
  Machine machine(MachineConfig::fx8(), mmu);
  trace::EventTracer tracer;
  machine.cluster().set_observer(&tracer);

  workload::NumericJobParams params;
  for (JobId job = 1; job <= 5; ++job) {
    const os::Job spec = workload::make_numeric_job(job, rng, params, 0);
    const std::uint64_t expected =
        spec.program.total_concurrent_iterations();
    tracer.clear();
    machine.cluster().load(spec.program, job);
    Cycle guard = 0;
    while (machine.cluster().busy()) {
      machine.tick();
      ASSERT_LT(++guard, 5'000'000u) << "job hung";
    }

    // Count per (phase, iteration) starts and ends.
    std::map<std::pair<std::uint32_t, std::uint64_t>, int> starts;
    std::map<std::pair<std::uint32_t, std::uint64_t>, int> ends;
    std::uint64_t total_ends = 0;
    for (const trace::TraceEvent& event : tracer.events()) {
      if (event.kind == trace::EventKind::kIterationStart) {
        ++starts[{event.phase, event.arg}];
      } else if (event.kind == trace::EventKind::kIterationEnd) {
        ++ends[{event.phase, event.arg}];
        ++total_ends;
      }
    }
    EXPECT_EQ(total_ends, expected) << "iteration count mismatch";
    for (const auto& [key, count] : starts) {
      EXPECT_EQ(count, 1) << "iteration started twice";
      EXPECT_EQ(ends[key], 1) << "iteration did not end exactly once";
    }
  }
}

TEST_P(ClusterProperty, ActiveMaskStaysWithinClusterWidth) {
  Rng rng(GetParam() ^ 0xACE);
  NoFaultMmu mmu;
  MachineConfig config = MachineConfig::fx8();
  const std::uint32_t width =
      2 + static_cast<std::uint32_t>(rng.uniform(7));
  config.cluster.n_ces = width;
  config.cluster.policy = ServicePolicy::kAscending;
  Machine machine(config, mmu);

  workload::NumericJobParams params;
  params.trip_law.width = width;
  const os::Job spec = workload::make_numeric_job(1, rng, params, 0);
  machine.cluster().load(spec.program, 1);
  Cycle guard = 0;
  while (machine.cluster().busy()) {
    machine.tick();
    const LaneMask mask = machine.active_mask();
    EXPECT_EQ(mask >> width, 0u) << "active bit beyond cluster width";
    EXPECT_LE(machine.cluster().active_count(), width);
    ASSERT_LT(++guard, 5'000'000u);
  }
  EXPECT_EQ(machine.active_mask(), 0u);
}

TEST_P(ClusterProperty, PhasesAreProperlyNested) {
  Rng rng(GetParam() ^ 0xBED);
  NoFaultMmu mmu;
  Machine machine(MachineConfig::fx8(), mmu);
  trace::EventTracer tracer;
  machine.cluster().set_observer(&tracer);

  workload::NumericJobParams params;
  const os::Job spec = workload::make_numeric_job(2, rng, params, 0);
  machine.cluster().load(spec.program, 2);
  while (machine.cluster().busy()) {
    machine.tick();
  }

  int depth = 0;       // inside job
  int phase_depth = 0; // inside a phase
  for (const trace::TraceEvent& event : tracer.events()) {
    switch (event.kind) {
      case trace::EventKind::kJobStart:
        EXPECT_EQ(depth, 0);
        ++depth;
        break;
      case trace::EventKind::kJobEnd:
        EXPECT_EQ(phase_depth, 0);
        --depth;
        break;
      case trace::EventKind::kSerialPhaseStart:
      case trace::EventKind::kLoopStart:
        EXPECT_EQ(depth, 1);
        EXPECT_EQ(phase_depth, 0);
        ++phase_depth;
        break;
      case trace::EventKind::kSerialPhaseEnd:
      case trace::EventKind::kLoopEnd:
        --phase_depth;
        EXPECT_EQ(phase_depth, 0);
        break;
      default:
        EXPECT_EQ(depth, 1);
        break;
    }
  }
  EXPECT_EQ(depth, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClusterProperty,
                         ::testing::Values(11, 42, 1987, 0xC0FFEE));

}  // namespace
}  // namespace repro::fx8
