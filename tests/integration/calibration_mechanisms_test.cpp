// Regression tests for the calibration mechanisms of DESIGN.md §8.
//
// These are the structural properties the reproduction's shapes depend
// on. If one breaks, benches will drift long before a unit test of any
// single module notices — so they are pinned here explicitly.
#include <gtest/gtest.h>

#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"
#include "trace/profile.hpp"
#include "trace/tracer.hpp"
#include "workload/kernels.hpp"

namespace repro::fx8 {
namespace {

isa::ConcurrentLoopPhase plain_loop(std::uint64_t trip) {
  workload::KernelTuning tuning;
  isa::ConcurrentLoopPhase loop;
  loop.body = workload::matmul_row_body(tuning);
  loop.trip_count = trip;
  return loop;
}

// §8.2: iterations of the same loop execute the same instruction
// sequence — with no long paths and no memory accesses, every iteration
// of a vectorized body takes exactly the same number of cycles. (With
// memory, durations vary with line-reuse phase; the compute schedule
// itself must not.)
TEST(CalibrationMechanisms, UniformIterationDurations) {
  NoFaultMmu mmu;
  MachineConfig config = MachineConfig::fx8();
  config.cluster.n_ces = 1;  // isolation: no contention effects
  config.cluster.policy = ServicePolicy::kAscending;
  config.ip.duty = 0.0;
  Machine machine(config, mmu);
  trace::EventTracer tracer;
  machine.cluster().set_observer(&tracer);

  isa::ConcurrentLoopPhase loop = plain_loop(12);
  loop.body.loads_per_step = 0;
  loop.body.stores_per_step = 0;  // pure compute + vector schedule
  const isa::Program program = isa::ProgramBuilder("uniform")
                                   .data_base(0x01000000)
                                   .concurrent_loop(loop)
                                   .build();
  machine.cluster().load(program, 1);
  while (machine.cluster().busy()) {
    machine.tick();
  }

  // Durations from the trace: all equal after the first (which pays the
  // cold-cache and cold-page costs).
  std::vector<Cycle> durations;
  std::array<Cycle, 64> starts{};
  for (const trace::TraceEvent& event : tracer.events()) {
    if (event.kind == trace::EventKind::kIterationStart) {
      starts[event.arg] = event.time;
    } else if (event.kind == trace::EventKind::kIterationEnd) {
      durations.push_back(event.time - starts[event.arg]);
    }
  }
  ASSERT_EQ(durations.size(), 12u);
  for (std::size_t i = 1; i < durations.size(); ++i) {
    EXPECT_EQ(durations[i], durations[0])
        << "iteration " << i << " diverged: vectorized bodies must be "
        << "cycle-identical (DESIGN.md §8.2)";
  }
}

// §8.1: concurrently executing iterations walk the same cache lines, so
// fills merge and the miss count does not scale with the gang size.
TEST(CalibrationMechanisms, GangFillSharingKeepsMissVolumeFlat) {
  auto misses_with_width = [](std::uint32_t width) {
    NoFaultMmu mmu;
    MachineConfig config = MachineConfig::fx8();
    config.cluster.n_ces = width;
    config.cluster.policy = ServicePolicy::kAscending;
    config.ip.duty = 0.0;
    Machine machine(config, mmu);
    const isa::ConcurrentLoopPhase loop = plain_loop(64);
    const isa::Program program = isa::ProgramBuilder("gang")
                                     .data_base(0x01000000)
                                     .concurrent_loop(loop)
                                     .build();
    machine.cluster().load(program, 1);
    while (machine.cluster().busy()) {
      machine.tick();
    }
    // Actual line fetches: merged misses ride an existing fill.
    const auto& stats = machine.shared_cache().stats();
    return stats.misses - stats.merged_misses;
  };

  const std::uint64_t fetches_1 = misses_with_width(1);
  const std::uint64_t fetches_8 = misses_with_width(8);
  // Same loop, same total data. Without cross-CE sharing the 8-wide gang
  // would fetch up to 8x the lines; sharing must recover most of that.
  EXPECT_LT(static_cast<double>(fetches_8),
            0.5 * 8.0 * static_cast<double>(fetches_1))
      << "miss volume scaled with gang size: cross-CE sharing broken "
      << "(DESIGN.md §8.1)";
}

// §8.1 companion: merged fills actually occur under the gang.
TEST(CalibrationMechanisms, GangExecutionMergesFills) {
  NoFaultMmu mmu;
  MachineConfig config = MachineConfig::fx8();
  config.ip.duty = 0.0;
  Machine machine(config, mmu);
  const isa::ConcurrentLoopPhase loop = plain_loop(64);
  const isa::Program program = isa::ProgramBuilder("merge")
                                   .data_base(0x01000000)
                                   .concurrent_loop(loop)
                                   .build();
  machine.cluster().load(program, 1);
  while (machine.cluster().busy()) {
    machine.tick();
  }
  EXPECT_GT(machine.shared_cache().stats().merged_misses, 0u);
}

// §8.4: the transition lingerers are a deterministic function of the
// service order. Same loop, same seed => identical final-active mask.
TEST(CalibrationMechanisms, LingererIdentityIsDeterministic) {
  auto last_pair_mask = [] {
    NoFaultMmu mmu;
    MachineConfig config = MachineConfig::fx8();
    config.ip.duty = 0.0;
    Machine machine(config, mmu);
    isa::ConcurrentLoopPhase loop = plain_loop(8 * 5 + 2);
    const isa::Program program = isa::ProgramBuilder("linger")
                                     .seed(4242)
                                     .data_base(0x01000000)
                                     .concurrent_loop(loop)
                                     .build();
    machine.cluster().load(program, 1);
    repro::LaneMask last_two_mask = 0;
    while (machine.cluster().busy()) {
      machine.tick();
      if (machine.cluster().active_count() == 2) {
        last_two_mask = machine.active_mask();
      }
    }
    return last_two_mask;
  };
  const repro::LaneMask first = last_pair_mask();
  EXPECT_EQ(first, last_pair_mask());
  EXPECT_NE(first, 0u);  // a 2-active tail existed
}

}  // namespace
}  // namespace repro::fx8
