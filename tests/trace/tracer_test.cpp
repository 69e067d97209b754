#include "trace/tracer.hpp"

#include <gtest/gtest.h>

#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"
#include "workload/kernels.hpp"

namespace repro::trace {
namespace {

class TracerTest : public ::testing::Test {
 protected:
  TracerTest() : machine_(fx8::MachineConfig::fx8(), mmu_) {
    machine_.cluster().set_observer(&tracer_);
  }

  void run_program(const isa::Program& program, JobId job = 1) {
    machine_.cluster().load(program, job);
    while (machine_.cluster().busy()) {
      machine_.tick();
    }
  }

  isa::Program loop_program(std::uint64_t trip) {
    workload::KernelTuning tuning;
    isa::ConcurrentLoopPhase loop;
    loop.body = workload::triad_body(tuning);
    loop.trip_count = trip;
    return isa::ProgramBuilder("traced")
        .data_base(0x01000000)
        .serial(workload::scalar_setup_body(tuning), 2)
        .concurrent_loop(loop)
        .build();
  }

  fx8::NoFaultMmu mmu_;
  fx8::Machine machine_;
  EventTracer tracer_;
};

std::size_t count_kind(const std::vector<TraceEvent>& events,
                       EventKind kind) {
  std::size_t n = 0;
  for (const TraceEvent& event : events) {
    n += event.kind == kind;
  }
  return n;
}

TEST_F(TracerTest, JobMarkersBracketTheTrace) {
  run_program(loop_program(16));
  const auto& events = tracer_.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, EventKind::kJobStart);
  EXPECT_EQ(events.back().kind, EventKind::kJobEnd);
  EXPECT_EQ(count_kind(events, EventKind::kJobStart), 1u);
  EXPECT_EQ(count_kind(events, EventKind::kJobEnd), 1u);
}

TEST_F(TracerTest, EveryIterationHasStartAndEnd) {
  run_program(loop_program(40));
  const auto& events = tracer_.events();
  EXPECT_EQ(count_kind(events, EventKind::kIterationStart), 40u);
  EXPECT_EQ(count_kind(events, EventKind::kIterationEnd), 40u);
}

TEST_F(TracerTest, IterationIndicesCoverTheRange) {
  run_program(loop_program(24));
  std::set<std::uint64_t> seen;
  for (const TraceEvent& event : tracer_.events()) {
    if (event.kind == EventKind::kIterationEnd) {
      seen.insert(event.arg);
    }
  }
  EXPECT_EQ(seen.size(), 24u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 23u);
}

TEST_F(TracerTest, PhaseMarkersArePaired) {
  run_program(loop_program(16));
  const auto& events = tracer_.events();
  EXPECT_EQ(count_kind(events, EventKind::kSerialPhaseStart),
            count_kind(events, EventKind::kSerialPhaseEnd));
  EXPECT_EQ(count_kind(events, EventKind::kLoopStart), 1u);
  EXPECT_EQ(count_kind(events, EventKind::kLoopEnd), 1u);
}

TEST_F(TracerTest, TimesAreMonotone) {
  run_program(loop_program(16));
  Cycle prev = 0;
  for (const TraceEvent& event : tracer_.events()) {
    EXPECT_GE(event.time, prev);
    prev = event.time;
  }
}

TEST_F(TracerTest, LoopStartCarriesTripCount) {
  run_program(loop_program(42));
  for (const TraceEvent& event : tracer_.events()) {
    if (event.kind == EventKind::kLoopStart) {
      EXPECT_EQ(event.arg, 42u);
    }
  }
}

TEST_F(TracerTest, CapacityBoundsRetention) {
  EventTracer bounded(10);
  machine_.cluster().set_observer(&bounded);
  run_program(loop_program(64));
  EXPECT_EQ(bounded.events().size(), 10u);
  EXPECT_GT(bounded.dropped(), 0u);
}

TEST_F(TracerTest, ClearResets) {
  run_program(loop_program(16));
  tracer_.clear();
  EXPECT_TRUE(tracer_.events().empty());
  EXPECT_EQ(tracer_.dropped(), 0u);
}

TEST_F(TracerTest, DetachStopsRecording) {
  machine_.cluster().set_observer(nullptr);
  run_program(loop_program(16));
  EXPECT_TRUE(tracer_.events().empty());
}

TEST(TraceEventNames, Distinct) {
  EXPECT_EQ(name(EventKind::kJobStart), "job-start");
  EXPECT_NE(name(EventKind::kIterationStart),
            name(EventKind::kIterationEnd));
}

}  // namespace
}  // namespace repro::trace
