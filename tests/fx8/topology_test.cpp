// Topology scale-out tests: parameterized N-CE, multi-cluster machines.
//
// The machine-shape predicate, multi-cluster machine construction
// (global CE ids, fabric wiring, scheduler slots), the second-level bank
// fabric's arbitration, and capsule round-trips at every preset width.
// The FX/8 default must stay structurally identical to the pre-topology
// machine: one cluster, no fabric.
#include <gtest/gtest.h>

#include <vector>

#include "base/expect.hpp"
#include "fx8/fabric.hpp"
#include "fx8/machine.hpp"
#include "os/system.hpp"
#include "workload/kernels.hpp"

namespace repro::fx8 {
namespace {

/// A concurrent DO loop over the shared triad kernel: enough iterations
/// to light up every CE of whichever cluster runs it.
isa::Program loop_program(const char* name, std::uint64_t trips) {
  workload::KernelTuning tuning;
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = trips;
  loop.body = workload::triad_body(tuning);
  return isa::ProgramBuilder(name)
      .data_base(0x01000000)
      .concurrent_loop(loop)
      .build();
}

// --- The machine-shape predicate --------------------------------------

TEST(MachineShape, ValidationMatrix) {
  // Every preset shape and the single-cluster widths.
  EXPECT_TRUE(shape_valid(1, 8));   // FX/8
  EXPECT_TRUE(shape_valid(1, 4));   // narrow cluster
  EXPECT_TRUE(shape_valid(2, 8));   // fx16
  EXPECT_TRUE(shape_valid(4, 8));   // fx32
  EXPECT_TRUE(shape_valid(8, 8));   // fx64
  EXPECT_TRUE(shape_valid(4, 3));   // 12 CEs, 3 per cluster
  // Shapes the lane kernel cannot chunk or the lane masks cannot hold.
  EXPECT_FALSE(shape_valid(1, 16));  // 16 CEs in one cluster: chunk is 8
  EXPECT_FALSE(shape_valid(0, 8));   // zero clusters
  EXPECT_FALSE(shape_valid(1, 0));   // zero CEs
  EXPECT_FALSE(shape_valid(9, 8));   // too many clusters: 72 CEs
  EXPECT_FALSE(shape_valid(8, 9));   // 9 CEs per cluster
}

TEST(MachineShape, ConstructorRejectsInvalidShapes) {
  NoFaultMmu mmu;
  MachineConfig nine_clusters = MachineConfig::fx8();
  nine_clusters.n_clusters = 9;
  EXPECT_THROW(Machine machine(nine_clusters, mmu), ContractViolation);
  MachineConfig no_clusters = MachineConfig::fx8();
  no_clusters.n_clusters = 0;
  EXPECT_THROW(Machine machine(no_clusters, mmu), ContractViolation);
  MachineConfig wide_cluster = MachineConfig::fx16();
  wide_cluster.cluster.n_ces = 16;
  EXPECT_THROW(Machine machine(wide_cluster, mmu), ContractViolation);
}

// --- Multi-cluster machine construction -------------------------------

TEST(TopologyMachine, Fx8DefaultHasOneClusterAndNoFabric) {
  NoFaultMmu mmu;
  Machine machine(MachineConfig::fx8(), mmu);
  EXPECT_EQ(machine.n_clusters(), 1u);
  EXPECT_EQ(machine.total_ces(), kMaxCes);
  EXPECT_EQ(machine.fabric(), nullptr);
  EXPECT_EQ(machine.cluster().ce_base(), 0u);
}

TEST(TopologyMachine, PresetsBuildTheAdvertisedShapes) {
  struct Shape {
    MachineConfig config;
    std::uint32_t clusters;
    std::uint32_t total;
  };
  const std::vector<Shape> shapes = {
      {MachineConfig::fx16(), 2, 16},
      {MachineConfig::fx32(), 4, 32},
      {MachineConfig::fx64(), 8, 64},
  };
  for (const Shape& shape : shapes) {
    NoFaultMmu mmu;
    Machine machine(shape.config, mmu);
    EXPECT_EQ(machine.n_clusters(), shape.clusters);
    EXPECT_EQ(machine.total_ces(), shape.total);
    ASSERT_NE(machine.fabric(), nullptr);
    // Clusters own disjoint global CE id ranges, 8 wide each.
    for (std::uint32_t k = 0; k < shape.clusters; ++k) {
      EXPECT_EQ(machine.cluster(k).ce_base(), k * kMaxCes);
      EXPECT_EQ(machine.cluster(k).width(), kMaxCes);
    }
  }
}

TEST(TopologyMachine, WideMachineRunsJobsOnEveryCluster) {
  const isa::Program prog = loop_program("wide", kMaxCes * 3);
  NoFaultMmu mmu;
  Machine machine(MachineConfig::fx16(), mmu);
  machine.cluster(0).load(prog, 1);
  machine.cluster(1).load(prog, 2);
  Cycle used = 0;
  while (machine.cluster(0).busy() || machine.cluster(1).busy()) {
    machine.tick();
    ASSERT_LT(++used, 1'000'000u);
  }
  // Both clusters executed iterations and the mask spans both id ranges.
  EXPECT_GT(machine.cluster(0).stats().iterations_completed, 0u);
  EXPECT_GT(machine.cluster(1).stats().iterations_completed, 0u);
}

TEST(TopologyMachine, ActiveMaskUsesGlobalCeIds) {
  const isa::Program prog = loop_program("mask", kMaxCes * 4);
  NoFaultMmu mmu;
  Machine machine(MachineConfig::fx16(), mmu);
  machine.cluster(1).load(prog, 7);
  LaneMask seen = 0;
  Cycle used = 0;
  while (machine.cluster(1).busy()) {
    machine.tick();
    seen |= machine.active_mask();
    ASSERT_LT(++used, 1'000'000u);
  }
  // Only cluster 1 ran, so activity sits in bits 8..15 exclusively.
  EXPECT_NE(seen, 0u);
  EXPECT_EQ(seen & 0xffu, 0u);
  EXPECT_EQ(seen >> 16, 0u);
}

// --- The second-level bank fabric -------------------------------------

TEST(TopologyFabric, GrantsEachBankOncePerCycle) {
  ClusterFabric fabric(16);
  EXPECT_TRUE(fabric.try_acquire(3));
  EXPECT_FALSE(fabric.try_acquire(3));  // same cycle: rejected
  EXPECT_TRUE(fabric.try_acquire(4));   // other banks unaffected
  EXPECT_EQ(fabric.conflicts(), 1u);
  fabric.begin_cycle();
  EXPECT_TRUE(fabric.try_acquire(3));  // new cycle: granted again
  EXPECT_EQ(fabric.conflicts(), 1u);
}

TEST(TopologyFabric, WideMachinesRecordCrossClusterConflicts) {
  // Two clusters hammering the same banks must trip the second-level
  // arbitration at least once.
  const isa::Program prog = loop_program("contend", kMaxCes * 16);
  NoFaultMmu mmu;
  Machine machine(MachineConfig::fx16(), mmu);
  machine.cluster(0).load(prog, 1);
  machine.cluster(1).load(prog, 2);
  Cycle used = 0;
  while (machine.cluster(0).busy() || machine.cluster(1).busy()) {
    machine.tick();
    ASSERT_LT(++used, 2'000'000u);
  }
  ASSERT_NE(machine.fabric(), nullptr);
  EXPECT_GT(machine.fabric()->conflicts(), 0u);
}

// --- Scheduler across clusters ----------------------------------------

TEST(TopologyScheduler, FillsEveryClusterFromOneQueue) {
  os::SystemConfig config;
  config.machine = MachineConfig::fx32();
  os::System system{config};
  for (std::uint64_t id = 1; id <= 8; ++id) {
    os::Job job;
    job.id = id;
    job.cls = os::JobClass::kCluster;
    job.program = loop_program("wide-job", kMaxCes * 2);
    system.scheduler().submit(std::move(job));
  }
  // After one scheduling tick every cluster has a job loaded.
  system.tick();
  std::uint32_t busy = 0;
  for (std::uint32_t k = 0; k < system.machine().n_clusters(); ++k) {
    busy += system.machine().cluster(k).busy() ? 1u : 0u;
  }
  EXPECT_EQ(busy, system.machine().n_clusters());
  Cycle used = 0;
  while (!system.scheduler().idle()) {
    system.tick();
    ASSERT_LT(++used, 4'000'000u);
  }
  EXPECT_EQ(system.scheduler().stats().jobs_completed, 8u);
}

// --- Capsules at every width ------------------------------------------

TEST(TopologyCapsule, SystemRoundTripsAtEveryPresetWidth) {
  const std::vector<MachineConfig> presets = {
      MachineConfig::fx8(), MachineConfig::fx16(), MachineConfig::fx32(),
      MachineConfig::fx64()};
  for (const MachineConfig& preset : presets) {
    os::SystemConfig config;
    config.machine = preset;
    os::System system{config};
    os::Job job;
    job.id = 1;
    job.cls = os::JobClass::kCluster;
    job.program = loop_program("capsule-job", kMaxCes * 8);
    system.scheduler().submit(std::move(job));
    for (Cycle c = 0; c < 5000; ++c) {
      system.tick();
    }
    const std::uint64_t before = system.state_digest();
    const auto sealed = system.save_capsule();
    os::System restored{config};
    restored.load_capsule(sealed);
    EXPECT_EQ(restored.state_digest(), before)
        << "width " << system.machine().total_ces();
    // And the restored system re-seals to the same bytes.
    EXPECT_EQ(restored.save_capsule(), sealed)
        << "width " << system.machine().total_ces();
  }
}

TEST(TopologyCapsule, FingerprintCoversTopologyFields) {
  // Every field that shapes the machine keys the fingerprint: a capsule
  // of one shape never restores into another.
  os::SystemConfig base;
  const std::uint64_t key = os::config_fingerprint(base);
  os::SystemConfig clusters = base;
  clusters.machine.n_clusters = 2;
  os::SystemConfig ces = base;
  ces.machine.cluster.n_ces = 4;
  os::SystemConfig banks = base;
  banks.machine.shared_cache.banks = 8;
  os::SystemConfig buses = base;
  buses.machine.membus.bus_count = 4;
  EXPECT_NE(os::config_fingerprint(clusters), key);
  EXPECT_NE(os::config_fingerprint(ces), key);
  EXPECT_NE(os::config_fingerprint(banks), key);
  EXPECT_NE(os::config_fingerprint(buses), key);
}

}  // namespace
}  // namespace repro::fx8
