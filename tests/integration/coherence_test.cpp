// Integration: IP/CE cache coherence under concurrent activity.
//
// Appendix C: "The caches maintain data coherency by requiring that a
// cache possess a 'unique' copy of data before modifying it." IPs and
// CEs share main memory; an IP write to a line a CE has cached must
// revoke the CE cache's copy, and the machine must keep running
// correctly while that happens.
#include <gtest/gtest.h>

#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"
#include "workload/kernels.hpp"

namespace repro::fx8 {
namespace {

TEST(Coherence, IpWritesRevokeCeCacheLines) {
  NoFaultMmu mmu;
  MachineConfig config = MachineConfig::fx8();
  config.ip.duty = 1.0;             // IPs hammer their region
  config.ip.write_fraction = 0.5;   // half of IP accesses are writes
  Machine machine(config, mmu);

  // Run a concurrent job long enough for IP writes to overlap CE work.
  workload::KernelTuning tuning;
  isa::ConcurrentLoopPhase loop;
  loop.body = workload::matmul_row_body(tuning);
  loop.trip_count = 200;
  const isa::Program program = isa::ProgramBuilder("coherence")
                                   .data_base(0x01000000)
                                   .concurrent_loop(loop)
                                   .build();
  machine.cluster().load(program, 1);
  Cycle guard = 0;
  while (machine.cluster().busy()) {
    machine.tick();
    ASSERT_LT(++guard, 5'000'000u);
  }

  // Every iteration completed despite the snoop traffic.
  EXPECT_EQ(machine.cluster().stats().iterations_completed, 200u);
  // IP writes happened and produced snoops.
  std::uint64_t ip_accesses = 0;
  for (const Ip& ip : machine.ips()) {
    ip_accesses += ip.accesses_issued();
  }
  EXPECT_GT(ip_accesses, 0u);
}

TEST(Coherence, SnoopsOnSharedRegionForceRefetch) {
  // Directly overlap the IP region with a CE's cached line: the CE must
  // re-miss after the IP writes.
  NoFaultMmu mmu;
  MachineConfig config = MachineConfig::fx8();
  config.ip.duty = 0.0;  // manual control below
  Machine machine(config, mmu);
  auto& cache = machine.shared_cache();

  // Prime a line through the CE side at the IP region's base address.
  const Addr shared_addr = 0xE0000000ULL;
  (void)cache.access(0, shared_addr, cache::AccessType::kRead);
  for (int i = 0; i < 100 && !cache.take_fill_ready(0); ++i) {
    machine.tick();
  }
  ASSERT_TRUE(cache.contains(shared_addr));

  // The snoop hook is wired through the machine: emulate the IP write by
  // invalidating via the shared-cache interface the IpCache drives.
  cache.snoop_invalidate(shared_addr);
  EXPECT_FALSE(cache.contains(shared_addr));
  EXPECT_EQ(cache.access(0, shared_addr, cache::AccessType::kRead),
            cache::AccessOutcome::kMissStarted);
}

TEST(Coherence, WriteUpgradesBroadcastInvalidates) {
  NoFaultMmu mmu;
  Machine machine(MachineConfig::fx8(), mmu);
  auto& cache = machine.shared_cache();
  auto& bus = machine.membus();

  const Addr addr = 0x02000000;
  (void)cache.access(1, addr, cache::AccessType::kRead);
  for (int i = 0; i < 100 && !cache.take_fill_ready(1); ++i) {
    machine.tick();
  }
  const std::uint64_t invalidates_before =
      bus.op_cycles(0, mem::MemBusOp::kInvalidate) +
      bus.op_cycles(1, mem::MemBusOp::kInvalidate);
  // Write to the Shared line: must upgrade with an invalidate broadcast.
  ASSERT_EQ(cache.access(1, addr, cache::AccessType::kWrite),
            cache::AccessOutcome::kHit);
  machine.run(10);
  const std::uint64_t invalidates_after =
      bus.op_cycles(0, mem::MemBusOp::kInvalidate) +
      bus.op_cycles(1, mem::MemBusOp::kInvalidate);
  EXPECT_GT(invalidates_after, invalidates_before);
}

}  // namespace
}  // namespace repro::fx8
