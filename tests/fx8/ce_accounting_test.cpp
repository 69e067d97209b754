// Accounting tests: the CE's per-cycle bookkeeping that the derived
// system measures rest on.
#include <gtest/gtest.h>

#include "base/rng.hpp"
#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "instr/session_controller.hpp"
#include "isa/program.hpp"
#include "os/system.hpp"
#include "workload/generator.hpp"
#include "workload/kernels.hpp"
#include "workload/presets.hpp"

namespace repro::fx8 {
namespace {

isa::Program one_loop(const isa::KernelSpec& body, std::uint64_t trip) {
  isa::ConcurrentLoopPhase loop;
  loop.body = body;
  loop.trip_count = trip;
  return isa::ProgramBuilder("acct")
      .data_base(0x01000000)
      .concurrent_loop(loop)
      .build();
}

TEST(CeAccounting, CrossbarConflictsAppearUnderGangContention) {
  // The element-interleaved gang hammers the same banks: conflict waits
  // must be visible in both the crossbar and per-CE stats.
  NoFaultMmu mmu;
  MachineConfig config = MachineConfig::fx8();
  config.ip.duty = 0.0;
  Machine machine(config, mmu);
  workload::KernelTuning tuning;
  const isa::Program program =
      one_loop(workload::jacobi_row_body(tuning), 64);
  machine.cluster().load(program, 1);
  while (machine.cluster().busy()) {
    machine.tick();
  }
  EXPECT_GT(machine.cluster().crossbar().conflicts(), 0u);
  std::uint64_t ce_wait = 0;
  for (CeId c = 0; c < 8; ++c) {
    ce_wait += machine.cluster().ce(c).stats().xbar_conflict_cycles;
  }
  EXPECT_EQ(ce_wait, machine.cluster().crossbar().conflicts());
}

TEST(CeAccounting, SingleCeSeesNoCrossbarConflicts) {
  NoFaultMmu mmu;
  MachineConfig config = MachineConfig::fx8();
  config.cluster.n_ces = 1;
  config.cluster.policy = ServicePolicy::kAscending;
  config.ip.duty = 0.0;
  Machine machine(config, mmu);
  workload::KernelTuning tuning;
  const isa::Program program =
      one_loop(workload::triad_body(tuning), 16);
  machine.cluster().load(program, 1);
  while (machine.cluster().busy()) {
    machine.tick();
  }
  EXPECT_EQ(machine.cluster().crossbar().conflicts(), 0u);
}

TEST(CeAccounting, BusyCyclesBoundOtherCounters) {
  NoFaultMmu mmu;
  Machine machine(MachineConfig::fx8(), mmu);
  workload::KernelTuning tuning;
  const isa::Program program =
      one_loop(workload::matmul_row_body(tuning), 40);
  machine.cluster().load(program, 1);
  while (machine.cluster().busy()) {
    machine.tick();
  }
  for (CeId c = 0; c < 8; ++c) {
    const CeStats& stats = machine.cluster().ce(c).stats();
    EXPECT_LE(stats.compute_cycles + stats.miss_wait_cycles +
                  stats.fault_wait_cycles + stats.xbar_conflict_cycles,
              stats.busy_cycles)
        << "CE" << c << " cycle taxonomy exceeds busy time";
    EXPECT_GT(stats.instances_completed, 0u);
  }
}

TEST(CeAccounting, IcacheSpillsShowAsInstructionTraffic) {
  NoFaultMmu mmu;
  MachineConfig config = MachineConfig::fx8();
  config.ip.duty = 0.0;
  Machine machine(config, mmu);
  workload::KernelTuning tuning;
  isa::KernelSpec big_code = workload::triad_body(tuning);
  big_code.code_bytes = 64 * 1024;  // 4x the icache
  const isa::Program program = one_loop(big_code, 32);
  machine.cluster().load(program, 1);
  std::uint64_t ifetch_cycles = 0;
  while (machine.cluster().busy()) {
    machine.tick();
    for (CeId c = 0; c < 8; ++c) {
      ifetch_cycles +=
          machine.ce_bus_op(c) == mem::CeBusOp::kInstrFetch ? 1u : 0u;
    }
  }
  EXPECT_GT(ifetch_cycles, 0u);
}

TEST(CeAccounting, WholeRunIdentitiesHold) {
  // Session 3 on the FX/8 and the FX/64, each with and without one
  // detached CE per cluster: every access a CE counts reaches the shared
  // cache, and every CE's cycle taxonomy fits inside its busy time,
  // which fits inside the run.
  struct Shape {
    const char* name;
    MachineConfig machine;
    std::uint32_t detached;
  };
  const Shape shapes[] = {
      {"fx8", MachineConfig::fx8(), 0},
      {"fx8_detached", MachineConfig::fx8(), 1},
      {"fx64", MachineConfig::fx64(), 0},
      {"fx64_detached", MachineConfig::fx64(), 1},
  };
  instr::SamplingConfig sampling;
  sampling.interval_cycles = 20000;
  for (const Shape& shape : shapes) {
    os::SystemConfig config;
    config.machine = shape.machine;
    config.machine.cluster.detached_ces = shape.detached;
    os::System system(config);
    workload::WorkloadGenerator generator(workload::session_presets()[2],
                                          mix64(0x3333));
    instr::SessionController controller(system, generator, sampling,
                                        mix64(0x4444));
    controller.advance(10000);
    for (int sample = 0; sample < 3; ++sample) {
      (void)controller.take_sample();
    }
    const Machine& machine = system.machine();
    std::uint64_t ce_accesses = 0;
    std::uint64_t ce_busy = 0;
    for (std::uint32_t k = 0; k < machine.n_clusters(); ++k) {
      const Cluster& cluster = machine.cluster(k);
      for (CeId lane = 0; lane < cluster.width(); ++lane) {
        const CeStats& stats = cluster.ce(lane).stats();
        ce_accesses += stats.mem_accesses;
        ce_busy += stats.busy_cycles;
        EXPECT_LE(stats.compute_cycles + stats.miss_wait_cycles +
                      stats.fault_wait_cycles + stats.xbar_conflict_cycles,
                  stats.busy_cycles)
            << shape.name << " CE" << cluster.ce(lane).id();
        EXPECT_LE(stats.busy_cycles, machine.now())
            << shape.name << " CE" << cluster.ce(lane).id();
      }
    }
    EXPECT_EQ(ce_accesses, machine.shared_cache().stats().accesses)
        << shape.name;
    EXPECT_GT(ce_busy, 0u) << shape.name;
  }
}

}  // namespace
}  // namespace repro::fx8
