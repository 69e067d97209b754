#include "fx8/machine.hpp"

#include <gtest/gtest.h>

#include <string>

#include "base/expect.hpp"

namespace repro::fx8 {
namespace {

isa::KernelSpec work_kernel() {
  isa::KernelSpec k;
  k.steps = 8;
  k.compute_cycles = 3;
  k.loads_per_step = 2;
  k.stores_per_step = 1;
  k.working_set_bytes = 64 * 1024;
  return k;
}

TEST(Machine, TicksAdvanceTime) {
  NoFaultMmu mmu;
  Machine machine(MachineConfig::fx8(), mmu);
  EXPECT_EQ(machine.now(), 0u);
  machine.run(100);
  EXPECT_EQ(machine.now(), 100u);
}

TEST(Machine, Fx8HasEightCesTwoBuses) {
  NoFaultMmu mmu;
  Machine machine(MachineConfig::fx8(), mmu);
  EXPECT_EQ(machine.cluster().width(), 8u);
  EXPECT_EQ(machine.config().membus.bus_count, 2u);
  EXPECT_EQ(machine.ips().size(), 2u);
}

TEST(Machine, Fx1IsSingleCe) {
  NoFaultMmu mmu;
  Machine machine(MachineConfig::fx1(), mmu);
  EXPECT_EQ(machine.cluster().width(), 1u);
  EXPECT_EQ(machine.ips().size(), 1u);
}

// Each shared-cache module's misses ride the memory bus of its own index,
// so a machine with fewer buses than modules is refused when it is built,
// not at its first miss on a bus that is not there. The other fan-out
// bounds hold at construction too: grant words of 64 banks and four
// memory-bus probe channels.
TEST(Machine, RejectsFanOutItCannotWire) {
  NoFaultMmu mmu;
  MachineConfig one_bus = MachineConfig::fx8();
  one_bus.membus.bus_count = 1;
  try {
    Machine machine(one_bus, mmu);
    ADD_FAILURE() << "one memory bus behind two cache modules was built";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("memory bus count 1"), std::string::npos) << what;
    EXPECT_NE(what.find("2 modules"), std::string::npos) << what;
  }
  MachineConfig many_banks = MachineConfig::fx8();
  many_banks.shared_cache.banks = 128;
  EXPECT_THROW(Machine machine(many_banks, mmu), ContractViolation);
  MachineConfig five_buses = MachineConfig::fx8();
  five_buses.membus.bus_count = 5;
  EXPECT_THROW(Machine machine(five_buses, mmu), ContractViolation);
}

TEST(Machine, RunsAConcurrentJobEndToEnd) {
  NoFaultMmu mmu;
  Machine machine(MachineConfig::fx8(), mmu);
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 66;
  loop.body = work_kernel();
  const isa::Program prog = isa::ProgramBuilder("job")
                                .data_base(0x100000)
                                .serial(work_kernel(), 1)
                                .concurrent_loop(loop)
                                .build();
  machine.cluster().load(prog, 1);
  Cycle used = 0;
  std::uint32_t max_active = 0;
  while (machine.cluster().busy()) {
    machine.tick();
    max_active = std::max(max_active, machine.cluster().active_count());
    ASSERT_LT(++used, 2'000'000u);
  }
  EXPECT_EQ(machine.cluster().stats().iterations_completed, 66u);
  EXPECT_EQ(max_active, 8u);
  EXPECT_GT(machine.shared_cache().stats().accesses, 0u);
}

TEST(Machine, ProbeSurfaceIsConsistent) {
  NoFaultMmu mmu;
  Machine machine(MachineConfig::fx8(), mmu);
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 40;
  loop.body = work_kernel();
  const isa::Program prog =
      isa::ProgramBuilder("probe").concurrent_loop(loop).build();
  machine.cluster().load(prog, 1);
  bool saw_busy_bus = false;
  bool saw_mem_traffic = false;
  Cycle used = 0;
  while (machine.cluster().busy()) {
    machine.tick();
    for (CeId ce = 0; ce < 8; ++ce) {
      if (mem::is_busy(machine.ce_bus_op(ce))) {
        saw_busy_bus = true;
      }
    }
    for (std::uint32_t b = 0; b < 2; ++b) {
      if (machine.mem_bus_op(b) != mem::MemBusOp::kIdle) {
        saw_mem_traffic = true;
      }
    }
    ASSERT_LT(++used, 2'000'000u);
  }
  EXPECT_TRUE(saw_busy_bus);
  EXPECT_TRUE(saw_mem_traffic);
}

TEST(Machine, IpTrafficFlowsWithoutClusterWork) {
  NoFaultMmu mmu;
  MachineConfig config = MachineConfig::fx8();
  config.ip.duty = 0.8;
  Machine machine(config, mmu);
  machine.run(100000);
  bool ip_issued = false;
  for (const Ip& ip : machine.ips()) {
    ip_issued |= ip.accesses_issued() > 0;
  }
  EXPECT_TRUE(ip_issued);
  // Cluster idle the whole time: CCB probe shows no activity.
  EXPECT_EQ(machine.active_mask(), 0u);
}

TEST(Machine, DeterministicAcrossInstances) {
  auto run_once = [] {
    NoFaultMmu mmu;
    Machine machine(MachineConfig::fx8(), mmu);
    isa::ConcurrentLoopPhase loop;
    loop.trip_count = 30;
    loop.body = work_kernel();
    loop.body.compute_jitter = 2;
    const isa::Program prog =
        isa::ProgramBuilder("det").concurrent_loop(loop).build();
    machine.cluster().load(prog, 1);
    while (machine.cluster().busy()) {
      machine.tick();
    }
    return std::pair{machine.now(), machine.shared_cache().stats().misses};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace repro::fx8
