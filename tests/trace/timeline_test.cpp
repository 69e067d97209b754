#include "trace/timeline.hpp"

#include <gtest/gtest.h>

#include "base/expect.hpp"
#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"
#include "trace/tracer.hpp"
#include "workload/kernels.hpp"

namespace repro::trace {
namespace {

std::vector<TraceEvent> tiny_trace() {
  return {
      {0, EventKind::kJobStart, 1, 0, 0, 0},
      {0, EventKind::kSerialPhaseStart, 1, 0, 0, 0},
      {40, EventKind::kSerialPhaseEnd, 1, 0, 0, 0},
      {40, EventKind::kLoopStart, 1, 1, 0, 2},
      {45, EventKind::kIterationStart, 1, 1, 0, 0},
      {50, EventKind::kIterationStart, 1, 1, 3, 1},
      {90, EventKind::kIterationEnd, 1, 1, 0, 0},
      {95, EventKind::kIterationEnd, 1, 1, 3, 1},
      {100, EventKind::kLoopEnd, 1, 1, 0, 0},
      {100, EventKind::kJobEnd, 1, 0, 0, 0},
  };
}

TEST(Timeline, RendersRowsForEveryCe) {
  const std::string text = render_timeline(tiny_trace(), 1,
                                           TimelineOptions{});
  EXPECT_NE(text.find("CE0 |"), std::string::npos);
  EXPECT_NE(text.find("CE7 |"), std::string::npos);
  EXPECT_NE(text.find("ser |"), std::string::npos);
}

TEST(Timeline, MarksIterationsAndSerialWork) {
  const std::string text = render_timeline(tiny_trace(), 1,
                                           TimelineOptions{});
  EXPECT_NE(text.find('#'), std::string::npos);
  EXPECT_NE(text.find('.'), std::string::npos);
  // CE3 executed an iteration; CE5 did not.
  const auto ce3_row = text.find("CE3 |");
  const auto ce5_row = text.find("CE5 |");
  ASSERT_NE(ce3_row, std::string::npos);
  ASSERT_NE(ce5_row, std::string::npos);
  EXPECT_NE(text.find('#', ce3_row), std::string::npos);
  const auto ce5_end = text.find('\n', ce5_row);
  EXPECT_EQ(text.substr(ce5_row, ce5_end - ce5_row).find('#'),
            std::string::npos);
}

TEST(Timeline, MissingJobThrows) {
  EXPECT_THROW((void)render_timeline(tiny_trace(), 9, TimelineOptions{}),
               ContractViolation);
}

TEST(Timeline, BadOptionsThrow) {
  TimelineOptions narrow;
  narrow.columns = 2;
  EXPECT_THROW((void)render_timeline(tiny_trace(), 1, narrow),
               ContractViolation);
}

TEST(Timeline, EndToEndTraceRenders) {
  fx8::NoFaultMmu mmu;
  fx8::Machine machine(fx8::MachineConfig::fx8(), mmu);
  EventTracer tracer;
  machine.cluster().set_observer(&tracer);

  workload::KernelTuning tuning;
  isa::ConcurrentLoopPhase loop;
  loop.body = workload::triad_body(tuning);
  loop.trip_count = 26;
  const isa::Program program = isa::ProgramBuilder("tl")
                                   .data_base(0x01000000)
                                   .concurrent_loop(loop)
                                   .build();
  machine.cluster().load(program, 1);
  while (machine.cluster().busy()) {
    machine.tick();
  }
  const std::string text =
      render_timeline(tracer.events(), 1, TimelineOptions{});
  // All eight CEs took iterations in a 26-trip loop.
  for (int ce = 0; ce < 8; ++ce) {
    const auto row = text.find("CE" + std::to_string(ce) + " |");
    ASSERT_NE(row, std::string::npos);
    const auto row_end = text.find('\n', row);
    EXPECT_NE(text.substr(row, row_end - row).find('#'), std::string::npos)
        << "CE" << ce << " never executed an iteration";
  }
}

}  // namespace
}  // namespace repro::trace
