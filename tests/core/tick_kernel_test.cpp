// Fused hot-tick kernel contract tests.
//
// Every "naive" machine here is the naive oracle: the same machine with
// fx8::lane_pass_reference pinned, so the lane pass advances nothing and
// every CE steps through Ce::tick() each cycle. Machine::tick_block(n)
// on the dispatched lane pass must be bit-identical to ticking the
// oracle n times for every block boundary the session controller can
// produce: blocks of one, blocks cut short by a cluster control event,
// blocks requested past the end of the running job, and arbitrary
// interleavings of block and single-cycle advancement. Machines are
// compared through the differential oracle's machine digest, which
// names the first divergent component (tests/oracle/oracle.hpp); the
// oracle's own tables cover the session-level configurations.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "fx8/machine.hpp"
#include "oracle/oracle.hpp"

namespace repro::core {
namespace {

isa::KernelSpec tk_kernel() {
  isa::KernelSpec k;
  k.steps = 6;
  k.compute_cycles = 4;
  k.compute_jitter = 2;
  k.loads_per_step = 2;
  k.stores_per_step = 1;
  k.working_set_bytes = 48 * 1024;
  return k;
}

isa::Program tk_program(std::uint64_t trip) {
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = trip;
  loop.body = tk_kernel();
  return isa::ProgramBuilder("tick-kernel")
      .data_base(0x200000)
      .serial(tk_kernel(), 2)
      .concurrent_loop(loop)
      .build();
}

/// Pin the naive oracle on `m`: every CE steps through Ce::tick().
void make_naive(fx8::Machine& m) {
  m.set_lane_pass(&fx8::lane_pass_reference);
}

// A block of one must behave exactly like one naive tick, cycle by cycle
// through an entire job, including the probe-visible bus opcodes that a
// latch would see on every boundary.
TEST(TickKernel, BlockOfOneMatchesSingleTick) {
  fx8::NoFaultMmu mmu_a;
  fx8::NoFaultMmu mmu_b;
  fx8::Machine naive(fx8::MachineConfig::fx8(), mmu_a);
  make_naive(naive);
  fx8::Machine block(fx8::MachineConfig::fx8(), mmu_b);
  const isa::Program prog = tk_program(24);
  naive.cluster().load(&prog, 1);
  block.cluster().load(&prog, 1);
  Cycle guard = 0;
  while (naive.cluster().busy()) {
    naive.tick();
    EXPECT_EQ(block.tick_block(1), 1u);
    EXPECT_TRUE(oracle::same_machine(naive, block));
    ASSERT_LT(++guard, 1'000'000u);
  }
  EXPECT_FALSE(block.cluster().busy());
}

// A block spanning a cluster control event must stop at the end of the
// cycle that raised it (never after), leaving exactly the state the naive
// loop has at that cycle.
TEST(TickKernel, BlockStopsAtClusterJobCompletion) {
  fx8::NoFaultMmu mmu_a;
  fx8::NoFaultMmu mmu_b;
  fx8::Machine naive(fx8::MachineConfig::fx8(), mmu_a);
  make_naive(naive);
  fx8::Machine block(fx8::MachineConfig::fx8(), mmu_b);
  const isa::Program prog = tk_program(16);
  naive.cluster().load(&prog, 1);
  block.cluster().load(&prog, 1);
  // Request far more cycles than the job needs: each call must return
  // early at the completion event, not run past it.
  while (block.cluster().busy()) {
    const std::uint64_t events_before = block.cluster().control_events();
    const Cycle advanced = block.tick_block(1'000'000);
    ASSERT_GE(advanced, 1u);
    if (block.cluster().control_events() != events_before) {
      // The block stopped on the event cycle: the job completed exactly
      // at block.now(), so the event is one cycle old at most.
      EXPECT_EQ(block.cluster().control_events(), events_before + 1);
    }
  }
  while (naive.cluster().busy()) {
    naive.tick();
  }
  EXPECT_TRUE(oracle::same_machine(naive, block));
}

// A block requested past the end of the loaded job returns early with the
// cycles actually used; the remaining budget is never silently burned on
// an idle machine.
TEST(TickKernel, BlockPastJobEndReturnsEarly) {
  fx8::NoFaultMmu mmu_a;
  fx8::NoFaultMmu mmu_b;
  fx8::Machine naive(fx8::MachineConfig::fx8(), mmu_a);
  make_naive(naive);
  fx8::Machine block(fx8::MachineConfig::fx8(), mmu_b);
  const isa::Program prog = tk_program(8);
  naive.cluster().load(&prog, 1);
  while (naive.cluster().busy()) {
    naive.tick();
  }
  const Cycle job_cycles = naive.now();

  block.cluster().load(&prog, 1);
  Cycle advanced = 0;
  while (block.cluster().busy()) {
    advanced += block.tick_block(job_cycles * 10);
  }
  EXPECT_EQ(advanced, job_cycles);
  EXPECT_EQ(block.now(), naive.now());
  EXPECT_TRUE(oracle::same_machine(naive, block));
}

// Arbitrary interleavings of single ticks and block runs must leave the
// hot lanes (phase, countdowns, per-cycle stat counters) and the cold
// per-component state agreeing with the pure naive run.
TEST(TickKernel, MixedBlockAndNaiveRunsStayConsistent) {
  fx8::NoFaultMmu mmu_a;
  fx8::NoFaultMmu mmu_b;
  fx8::Machine naive(fx8::MachineConfig::fx8(), mmu_a);
  make_naive(naive);
  fx8::Machine mixed(fx8::MachineConfig::fx8(), mmu_b);
  const isa::Program prog = tk_program(40);
  naive.cluster().load(&prog, 1);
  mixed.cluster().load(&prog, 1);
  // Deterministic irregular schedule: single ticks, odd-sized blocks,
  // and blocks of one, repeated until the job drains.
  const std::array<Cycle, 6> blocks = {1, 7, 13, 1, 29, 3};
  std::size_t next = 0;
  while (mixed.cluster().busy()) {
    const Cycle want = blocks[next];
    next = (next + 1) % blocks.size();
    if (want == 1) {
      mixed.tick();
      continue;
    }
    Cycle done = 0;
    while (done < want && mixed.cluster().busy()) {
      done += mixed.tick_block(want - done);
    }
  }
  while (naive.cluster().busy()) {
    naive.tick();
  }
  EXPECT_TRUE(oracle::same_machine(naive, mixed));
}

// --- Width-native machine kernel ----------------------------------------
//
// tick_block runs one machine-wide lane pass per cycle at every width
// and peels only slow lanes into their owning cluster; these suites pin
// that loop bit-identical to the naive oracle across widths 8/16/32/64
// and with detached splits. The whole suite reruns under
// FX8_FORCE_SCALAR in CI, giving the scalar wide pass the same coverage.

std::vector<fx8::MachineConfig> wide_configs() {
  return {fx8::MachineConfig::fx8(), fx8::MachineConfig::fx16(),
          fx8::MachineConfig::fx32(), fx8::MachineConfig::fx64()};
}

isa::Program wk_serial_program(std::uint64_t reps) {
  return isa::ProgramBuilder("wide-detached")
      .data_base(0x900000)
      .serial(tk_kernel(), reps)
      .build();
}

/// Per-cluster jobs of staggered lengths so completions (control events)
/// land on different cycles in different clusters.
std::vector<isa::Program> wk_programs(std::uint32_t n_clusters) {
  std::vector<isa::Program> progs;
  for (std::uint32_t i = 0; i < n_clusters; ++i) {
    progs.push_back(tk_program(8 + 5 * i));
  }
  return progs;
}

void wk_load(fx8::Machine& m, const std::vector<isa::Program>& progs) {
  for (std::uint32_t i = 0; i < m.n_clusters(); ++i) {
    m.cluster(i).load(&progs[i], i + 1);
  }
}

bool wk_any_busy(fx8::Machine& m) {
  for (std::uint32_t i = 0; i < m.n_clusters(); ++i) {
    if (m.cluster(i).busy()) {
      return true;
    }
    for (std::uint32_t slot = 0; slot < m.cluster(i).detached_count();
         ++slot) {
      if (m.cluster(i).detached_busy(slot)) {
        return true;
      }
    }
  }
  return false;
}

// The block loop must reproduce per-cluster naive ticking
// bit-identically at every width preset, with each block stopping at
// the end of a cycle that raised a control event.
TEST(WideKernel, MultiClusterBlockMatchesNaiveAcrossWidths) {
  for (const auto& config : wide_configs()) {
    fx8::NoFaultMmu mmu_a;
    fx8::NoFaultMmu mmu_b;
    fx8::Machine naive(config, mmu_a);
    make_naive(naive);
    fx8::Machine block(config, mmu_b);
    const auto progs = wk_programs(naive.n_clusters());
    wk_load(naive, progs);
    wk_load(block, progs);
    Cycle guard = 0;
    while (wk_any_busy(naive)) {
      naive.tick();
      ASSERT_LT(++guard, 10'000'000u);
    }
    while (wk_any_busy(block)) {
      const std::uint64_t events_before = block.cluster(0).control_events();
      ASSERT_GE(block.tick_block(1'000'000), 1u);
      if (wk_any_busy(block)) {
        // An early stop mid-run can only be a control event's.
        EXPECT_GT(block.cluster(0).control_events(), events_before);
      }
    }
    EXPECT_TRUE(oracle::same_machine(naive, block));
  }
}

// Blocks of one against naive singles, cycle by cycle, on the two-cluster
// machine: every probe-visible boundary of the wide path lines up.
TEST(WideKernel, BlockOfOneMatchesSingleTickAtWidth16) {
  fx8::NoFaultMmu mmu_a;
  fx8::NoFaultMmu mmu_b;
  fx8::Machine naive(fx8::MachineConfig::fx16(), mmu_a);
  make_naive(naive);
  fx8::Machine block(fx8::MachineConfig::fx16(), mmu_b);
  const auto progs = wk_programs(naive.n_clusters());
  wk_load(naive, progs);
  wk_load(block, progs);
  Cycle guard = 0;
  while (wk_any_busy(naive)) {
    naive.tick();
    EXPECT_EQ(block.tick_block(1), 1u);
    EXPECT_TRUE(oracle::same_machine(naive, block));
    ASSERT_LT(++guard, 1'000'000u);
  }
  EXPECT_FALSE(wk_any_busy(block));
}

// Clusters split between loop work and detached serial processes: the
// peel must keep the detached lanes' service position, and detached
// completions must stop blocks exactly as cluster jobs do.
TEST(WideKernel, DetachedSplitMatchesNaiveAcrossWidths) {
  for (auto config : wide_configs()) {
    config.cluster.detached_ces = 2;
    fx8::NoFaultMmu mmu_a;
    fx8::NoFaultMmu mmu_b;
    fx8::Machine naive(config, mmu_a);
    make_naive(naive);
    fx8::Machine block(config, mmu_b);
    const auto progs = wk_programs(naive.n_clusters());
    const isa::Program detached_a = wk_serial_program(6);
    const isa::Program detached_b = wk_serial_program(9);
    const auto load_all = [&](fx8::Machine& m) {
      wk_load(m, progs);
      // Detached load on a subset of clusters, one or two slots each, so
      // live and empty slots coexist.
      for (std::uint32_t i = 0; i < m.n_clusters(); i += 2) {
        m.cluster(i).load_detached(0, &detached_a, 100 + i);
        if (i + 1 < m.n_clusters()) {
          m.cluster(i + 1).load_detached(1, &detached_b, 200 + i);
        }
      }
    };
    load_all(naive);
    load_all(block);
    Cycle guard = 0;
    while (wk_any_busy(naive)) {
      naive.tick();
      ASSERT_LT(++guard, 10'000'000u);
    }
    while (wk_any_busy(block)) {
      ASSERT_GE(block.tick_block(1'000'000), 1u);
    }
    EXPECT_TRUE(oracle::same_machine(naive, block));
  }
}

}  // namespace
}  // namespace repro::core
