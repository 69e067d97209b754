// Fused hot-tick kernel differential tests.
//
// Every "naive" machine here is the naive oracle: the same machine with
// fx8::lane_pass_reference pinned, so the lane pass advances nothing and
// every CE steps through Ce::tick() each cycle. Machine::tick_block(n)
// on the dispatched lane pass must be bit-identical to ticking the
// oracle n times for every block boundary the session controller can
// produce: blocks of one, blocks cut short by a cluster control event,
// blocks requested past the end of the running job, and arbitrary
// interleavings of block and single-cycle advancement. The
// controller-level case drives blocks against probe-latch clamps with
// intervals small enough that every block abuts an acquisition window.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "fx8/machine.hpp"
#include "instr/session_controller.hpp"
#include "os/system.hpp"
#include "workload/generator.hpp"
#include "workload/presets.hpp"

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

/// Probe-visible and accounting state of a standalone machine, compared
/// after naive and block-ticked runs reach the same cycle.
struct MachineState {
  Cycle now = 0;
  LaneMask active_mask = 0;
  std::array<mem::CeBusOp, kMaxCes> ce_ops{};
  std::array<mem::MemBusOp, 2> mem_ops{};
  std::vector<fx8::CeStats> ce_stats;
  fx8::ClusterStats cluster;
  cache::SharedCacheStats cache;
  std::uint64_t control_events = 0;

  static MachineState capture(fx8::Machine& m) {
    MachineState s;
    s.now = m.now();
    s.active_mask = m.active_mask();
    for (CeId ce = 0; ce < m.cluster().width(); ++ce) {
      s.ce_ops[ce] = m.ce_bus_op(ce);
      s.ce_stats.push_back(m.cluster().ce(ce).stats());
    }
    for (std::uint32_t b = 0; b < 2; ++b) {
      s.mem_ops[b] = m.mem_bus_op(b);
    }
    s.cluster = m.cluster().stats();
    s.cache = m.shared_cache().stats();
    s.control_events = m.cluster().control_events();
    return s;
  }
};

void expect_same_state(const MachineState& a, const MachineState& b) {
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.active_mask, b.active_mask) << "at cycle " << a.now;
  EXPECT_EQ(a.ce_ops, b.ce_ops) << "at cycle " << a.now;
  EXPECT_EQ(a.mem_ops, b.mem_ops) << "at cycle " << a.now;
  EXPECT_EQ(a.control_events, b.control_events) << "at cycle " << a.now;
  ASSERT_EQ(a.ce_stats.size(), b.ce_stats.size());
  for (std::size_t ce = 0; ce < a.ce_stats.size(); ++ce) {
    EXPECT_EQ(a.ce_stats[ce].busy_cycles, b.ce_stats[ce].busy_cycles);
    EXPECT_EQ(a.ce_stats[ce].compute_cycles, b.ce_stats[ce].compute_cycles);
    EXPECT_EQ(a.ce_stats[ce].mem_accesses, b.ce_stats[ce].mem_accesses);
    EXPECT_EQ(a.ce_stats[ce].miss_wait_cycles,
              b.ce_stats[ce].miss_wait_cycles);
    EXPECT_EQ(a.ce_stats[ce].fault_wait_cycles,
              b.ce_stats[ce].fault_wait_cycles);
    EXPECT_EQ(a.ce_stats[ce].xbar_conflict_cycles,
              b.ce_stats[ce].xbar_conflict_cycles);
    EXPECT_EQ(a.ce_stats[ce].instances_completed,
              b.ce_stats[ce].instances_completed);
  }
  EXPECT_EQ(a.cluster.iterations_completed, b.cluster.iterations_completed);
  EXPECT_EQ(a.cluster.jobs_completed, b.cluster.jobs_completed);
  EXPECT_EQ(a.cache.accesses, b.cache.accesses);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
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
    expect_same_state(MachineState::capture(naive),
                      MachineState::capture(block));
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
  expect_same_state(MachineState::capture(naive),
                    MachineState::capture(block));
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
  expect_same_state(MachineState::capture(naive),
                    MachineState::capture(block));
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
  expect_same_state(MachineState::capture(naive),
                    MachineState::capture(mixed));
}

// Controller-level: with acquisition intervals so tight that every quiet
// burst is clamped against a probe-latch boundary, the fast-forward path
// (bulk jumps + fused blocks) must reproduce the naive sample records and
// machine clock bit-for-bit.
TEST(TickKernel, BlocksAgainstProbeLatchBoundaries) {
  auto run = [](bool fast_forward) {
    os::SystemConfig sys_config;
    os::System system(sys_config);
    if (!fast_forward) {
      make_naive(system.machine());
    }
    workload::WorkloadGenerator generator(
        workload::session_presets()[2] /* session-3-numeric-heavy */,
        0xB10CB10C);
    instr::SamplingConfig sampling;
    sampling.interval_cycles = 2048;  // 4 x 256-deep acquisitions: latches
    sampling.snapshots_per_sample = 4;
    sampling.buffer_depth = 256;      // cover half of every interval.
    sampling.fast_forward = fast_forward;
    instr::SessionController controller(system, generator, sampling,
                                        0x7E57B10C);
    controller.advance(1000);
    auto records = controller.run_session(6);
    return std::pair{std::move(records), system.now()};
  };
  const auto [naive_records, naive_now] = run(false);
  const auto [fast_records, fast_now] = run(true);
  EXPECT_EQ(naive_now, fast_now);
  ASSERT_EQ(naive_records.size(), fast_records.size());
  for (std::size_t r = 0; r < naive_records.size(); ++r) {
    EXPECT_EQ(naive_records[r].hw.ceop, fast_records[r].hw.ceop)
        << "sample " << r;
    EXPECT_EQ(naive_records[r].hw.membop, fast_records[r].hw.membop)
        << "sample " << r;
    EXPECT_EQ(naive_records[r].hw.num, fast_records[r].hw.num)
        << "sample " << r;
    EXPECT_EQ(naive_records[r].sw.jobs_completed,
              fast_records[r].sw.jobs_completed);
  }
}

// --- Width-native machine kernel ----------------------------------------
//
// tick_block runs one machine-wide lane pass per cycle at every width
// and peels only slow lanes into their owning cluster; these suites pin
// that loop bit-identical to the naive oracle across widths 8/16/32/64,
// with detached splits, and with the scalar pass pinned against the
// dispatched one. The whole suite reruns under FX8_FORCE_SCALAR in CI,
// giving the scalar wide pass the same coverage.

/// Machine-wide probe/accounting state across every cluster.
struct WideState {
  Cycle now = 0;
  LaneMask active_mask = 0;
  std::vector<mem::CeBusOp> ce_ops;
  std::vector<fx8::CeStats> ce_stats;
  std::vector<fx8::ClusterStats> clusters;
  cache::SharedCacheStats cache;
  std::uint64_t control_events = 0;
  std::uint64_t fabric_conflicts = 0;

  static WideState capture(fx8::Machine& m) {
    WideState s;
    s.now = m.now();
    s.active_mask = m.active_mask();
    for (CeId ce = 0; ce < m.total_ces(); ++ce) {
      s.ce_ops.push_back(m.ce_bus_op(ce));
    }
    for (std::uint32_t i = 0; i < m.n_clusters(); ++i) {
      for (CeId c = 0; c < m.cluster(i).width(); ++c) {
        s.ce_stats.push_back(m.cluster(i).ce(c).stats());
      }
      s.clusters.push_back(m.cluster(i).stats());
    }
    s.cache = m.shared_cache().stats();
    s.control_events = m.cluster(0).control_events();
    s.fabric_conflicts = m.fabric() ? m.fabric()->conflicts() : 0;
    return s;
  }
};

void expect_same_wide(const WideState& a, const WideState& b) {
  EXPECT_EQ(a.now, b.now);
  EXPECT_EQ(a.active_mask, b.active_mask) << "at cycle " << a.now;
  EXPECT_EQ(a.ce_ops, b.ce_ops) << "at cycle " << a.now;
  EXPECT_EQ(a.control_events, b.control_events) << "at cycle " << a.now;
  EXPECT_EQ(a.fabric_conflicts, b.fabric_conflicts) << "at cycle " << a.now;
  ASSERT_EQ(a.ce_stats.size(), b.ce_stats.size());
  for (std::size_t ce = 0; ce < a.ce_stats.size(); ++ce) {
    EXPECT_EQ(a.ce_stats[ce].busy_cycles, b.ce_stats[ce].busy_cycles)
        << "ce " << ce;
    EXPECT_EQ(a.ce_stats[ce].compute_cycles, b.ce_stats[ce].compute_cycles)
        << "ce " << ce;
    EXPECT_EQ(a.ce_stats[ce].mem_accesses, b.ce_stats[ce].mem_accesses)
        << "ce " << ce;
    EXPECT_EQ(a.ce_stats[ce].miss_wait_cycles,
              b.ce_stats[ce].miss_wait_cycles)
        << "ce " << ce;
    EXPECT_EQ(a.ce_stats[ce].fault_wait_cycles,
              b.ce_stats[ce].fault_wait_cycles)
        << "ce " << ce;
    EXPECT_EQ(a.ce_stats[ce].xbar_conflict_cycles,
              b.ce_stats[ce].xbar_conflict_cycles)
        << "ce " << ce;
    EXPECT_EQ(a.ce_stats[ce].instances_completed,
              b.ce_stats[ce].instances_completed)
        << "ce " << ce;
  }
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (std::size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].jobs_completed, b.clusters[i].jobs_completed);
    EXPECT_EQ(a.clusters[i].loops_completed, b.clusters[i].loops_completed);
    EXPECT_EQ(a.clusters[i].iterations_completed,
              b.clusters[i].iterations_completed);
    EXPECT_EQ(a.clusters[i].serial_reps_completed,
              b.clusters[i].serial_reps_completed);
    EXPECT_EQ(a.clusters[i].dependence_wait_cycles,
              b.clusters[i].dependence_wait_cycles);
  }
  EXPECT_EQ(a.cache.accesses, b.cache.accesses);
  EXPECT_EQ(a.cache.misses, b.cache.misses);
}

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
    expect_same_wide(WideState::capture(naive), WideState::capture(block));
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
    expect_same_wide(WideState::capture(naive), WideState::capture(block));
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
    expect_same_wide(WideState::capture(naive), WideState::capture(block));
  }
}

// Pinning the scalar pass must reproduce the dispatched (AVX2 where
// available) wide path exactly at every width: the machine-visible
// contract does not depend on the SIMD path taken.
TEST(WideKernel, ScalarPassMatchesDispatchedAcrossWidths) {
  for (const auto& config : wide_configs()) {
    fx8::NoFaultMmu mmu_a;
    fx8::NoFaultMmu mmu_b;
    fx8::Machine dispatched(config, mmu_a);
    fx8::Machine scalar(config, mmu_b);
    scalar.set_lane_pass(&fx8::lane_pass_scalar);
    const auto progs = wk_programs(dispatched.n_clusters());
    wk_load(dispatched, progs);
    wk_load(scalar, progs);
    while (wk_any_busy(dispatched)) {
      dispatched.tick_block(4096);
    }
    while (wk_any_busy(scalar)) {
      scalar.tick_block(4096);
    }
    expect_same_wide(WideState::capture(dispatched),
                     WideState::capture(scalar));
  }
}

// The horizon-driven fast-forward loop (skip quiet stretches, tick the
// rest) must match naive ticking at every width — this is the path that
// leans on the per-cluster horizon cache, so a stale or inexact cache
// entry shows up as state divergence here.
TEST(WideKernel, FastForwardMatchesNaiveAcrossWidths) {
  for (const auto& config : wide_configs()) {
    fx8::NoFaultMmu mmu_a;
    fx8::NoFaultMmu mmu_b;
    fx8::Machine naive(config, mmu_a);
    make_naive(naive);
    fx8::Machine ff(config, mmu_b);
    const auto progs = wk_programs(naive.n_clusters());
    wk_load(naive, progs);
    wk_load(ff, progs);
    Cycle guard = 0;
    while (wk_any_busy(naive)) {
      naive.tick();
      ASSERT_LT(++guard, 10'000'000u);
    }
    while (wk_any_busy(ff)) {
      const Cycle h = ff.quiet_horizon();
      if (h == 0 || h == kHorizonNever) {
        ff.tick();
      } else {
        ff.skip(h);
      }
    }
    // Drain to the naive clock (idle machines tick without events).
    while (ff.now() < naive.now()) {
      ff.tick();
    }
    expect_same_wide(WideState::capture(naive), WideState::capture(ff));
  }
}

}  // namespace
}  // namespace repro::core
