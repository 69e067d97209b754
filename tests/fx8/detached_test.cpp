// Tests for detached-CE operation (the Figure-3 footnote).
#include <gtest/gtest.h>

#include "base/expect.hpp"
#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"
#include "os/system.hpp"
#include "workload/kernels.hpp"

namespace repro::fx8 {
namespace {

isa::Program serial_prog(Addr base) {
  workload::KernelTuning tuning;
  return isa::ProgramBuilder("detached-serial")
      .data_base(base)
      .serial(workload::editor_body(tuning), 2)
      .build();
}

isa::Program loop_prog(Addr base, std::uint64_t trip) {
  workload::KernelTuning tuning;
  isa::ConcurrentLoopPhase loop;
  loop.body = workload::triad_body(tuning);
  loop.trip_count = trip;
  return isa::ProgramBuilder("cluster-loop")
      .data_base(base)
      .concurrent_loop(loop)
      .build();
}

MachineConfig detached_config(std::uint32_t detached) {
  MachineConfig config = MachineConfig::fx8();
  config.cluster.detached_ces = detached;
  return config;
}

TEST(Detached, SlotsOwnTheHighestCes) {
  NoFaultMmu mmu;
  Machine machine(detached_config(2), mmu);
  EXPECT_EQ(machine.cluster().cluster_width(), 6u);
  EXPECT_EQ(machine.cluster().detached_count(), 2u);
  EXPECT_EQ(machine.cluster().detached_ce(0), 7u);
  EXPECT_EQ(machine.cluster().detached_ce(1), 6u);
}

TEST(Detached, SerialJobRunsToCompletionOnItsCe) {
  NoFaultMmu mmu;
  Machine machine(detached_config(1), mmu);
  const isa::Program prog = serial_prog(0x01000000);
  machine.cluster().load_detached(0, prog, 5);
  EXPECT_TRUE(machine.cluster().detached_busy(0));
  Cycle guard = 0;
  while (machine.cluster().detached_busy(0)) {
    machine.tick();
    // The detached CE (7) shows active on the CCB probe.
    if (machine.cluster().detached_busy(0)) {
      EXPECT_TRUE(machine.active_mask() & (1u << 7));
    }
    ASSERT_LT(++guard, 1'000'000u);
  }
}

TEST(Detached, ClusterLoopsUseOnlyClusterCes) {
  NoFaultMmu mmu;
  Machine machine(detached_config(2), mmu);
  const isa::Program prog = loop_prog(0x01000000, 40);
  machine.cluster().load(prog, 1);
  std::uint32_t max_active = 0;
  Cycle guard = 0;
  while (machine.cluster().busy()) {
    machine.tick();
    // CEs 6 and 7 never take loop work.
    EXPECT_EQ(machine.active_mask() & 0b11000000u, 0u);
    max_active = std::max(max_active, machine.cluster().active_count());
    ASSERT_LT(++guard, 2'000'000u);
  }
  EXPECT_EQ(max_active, 6u);
  EXPECT_EQ(machine.cluster().stats().iterations_completed, 40u);
}

TEST(Detached, ConcurrentAndDetachedWorkOverlap) {
  NoFaultMmu mmu;
  Machine machine(detached_config(1), mmu);
  const isa::Program loop = loop_prog(0x01000000, 60);
  const isa::Program serial = serial_prog(0x02000000);
  machine.cluster().load(loop, 1);
  machine.cluster().load_detached(0, serial, 2);
  bool saw_overlap = false;
  Cycle guard = 0;
  while (machine.cluster().busy() || machine.cluster().detached_busy(0)) {
    machine.tick();
    const LaneMask mask = machine.active_mask();
    // 8-active = 7 cluster CEs + the detached CE: the footnote's state.
    if ((mask & (1u << 7)) && std::popcount(mask) == 8) {
      saw_overlap = true;
    }
    ASSERT_LT(++guard, 2'000'000u);
  }
  EXPECT_TRUE(saw_overlap);
}

TEST(Detached, RejectsConcurrentPrograms) {
  NoFaultMmu mmu;
  Machine machine(detached_config(1), mmu);
  const isa::Program prog = loop_prog(0x01000000, 8);
  EXPECT_THROW(machine.cluster().load_detached(0, prog, 1),
               ContractViolation);
}

TEST(Detached, RejectsDoubleLoadAndBadSlots) {
  NoFaultMmu mmu;
  Machine machine(detached_config(1), mmu);
  const isa::Program prog = serial_prog(0x01000000);
  machine.cluster().load_detached(0, prog, 1);
  EXPECT_THROW(machine.cluster().load_detached(0, prog, 2),
               ContractViolation);
  EXPECT_THROW((void)machine.cluster().detached_busy(1),
               ContractViolation);
}

TEST(Detached, AllCesDetachedIsRejected) {
  NoFaultMmu mmu;
  EXPECT_THROW((Machine{detached_config(8), mmu}), ContractViolation);
}

TEST(Detached, SchedulerRoutesSerialJobsToDetachedCes) {
  os::SystemConfig config;
  config.machine.cluster.detached_ces = 2;
  os::System system{config};

  os::Job cluster_job;
  cluster_job.id = 1;
  cluster_job.cls = os::JobClass::kCluster;
  cluster_job.program = loop_prog(0x01000000, 80);
  os::Job serial_job;
  serial_job.id = 2;
  serial_job.cls = os::JobClass::kSerialDetached;
  serial_job.program = serial_prog(0x02000000);

  system.scheduler().submit(std::move(cluster_job));
  system.scheduler().submit(std::move(serial_job));
  system.tick();
  // Both started immediately: the serial job is NOT behind the cluster
  // job in a shared queue any more.
  EXPECT_TRUE(system.scheduler().job_running());
  EXPECT_TRUE(system.machine().cluster().detached_busy(0));

  Cycle guard = 0;
  while (!system.scheduler().idle()) {
    system.tick();
    ASSERT_LT(++guard, 2'000'000u);
  }
  EXPECT_EQ(system.scheduler().stats().jobs_completed, 2u);
  EXPECT_EQ(system.scheduler().stats().serial_jobs_completed, 1u);
}

}  // namespace
}  // namespace repro::fx8
