// Fused hot-tick kernel contract tests.
//
// Every "naive" machine here is the naive oracle: the same machine with
// fx8::lane_pass_reference pinned, so every live CE steps through
// Ce::tick() each cycle. Machine::tick_block(n) on the lane horizons,
// where a CE steps only when its quiet horizon runs out and books the
// cycles it sat out when it next steps or the block ends, must be
// bit-identical to ticking the oracle n times for every block boundary
// the session controller can produce: blocks of one, blocks cut short by
// a cluster control event, blocks requested past the end of the running
// job, arbitrary interleavings of block and single-cycle advancement,
// random block lengths, a capsule loaded into a fresh machine mid-run,
// and blocks that jump their quiet stretches, ending inside one or on a
// ticked cycle. Machines are compared through the differential oracle's
// machine digest, which names the first divergent component
// (tests/oracle/oracle.hpp); the oracle's own tables cover the
// session-level configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "base/capsule.hpp"
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
  naive.cluster().load(prog, 1);
  block.cluster().load(prog, 1);
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
  naive.cluster().load(prog, 1);
  block.cluster().load(prog, 1);
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
  naive.cluster().load(prog, 1);
  while (naive.cluster().busy()) {
    naive.tick();
  }
  const Cycle job_cycles = naive.now();

  block.cluster().load(prog, 1);
  Cycle advanced = 0;
  while (block.cluster().busy()) {
    advanced += block.tick_block(job_cycles * 10);
  }
  EXPECT_EQ(advanced, job_cycles);
  EXPECT_EQ(block.now(), naive.now());
  EXPECT_TRUE(oracle::same_machine(naive, block));
}

// --- Width-native machine kernel ----------------------------------------
//
// tick_block selects the due lanes of the whole machine in one scan per
// cycle at every width and steps them in their owning cluster; these
// suites pin that loop bit-identical to the naive oracle across widths
// 8/16/32/64 and with detached splits.

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
    m.cluster(i).load(progs[i], i + 1);
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
        m.cluster(i).load_detached(0, detached_a, 100 + i);
        if (i + 1 < m.n_clusters()) {
          m.cluster(i + 1).load_detached(1, detached_b, 200 + i);
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

// --- Random block lengths ------------------------------------------------
//
// The lane horizons leave countdowns, counters and bus opcodes lagging
// inside a block and catch every live lane up when it ends, so every
// block boundary is a place they could go wrong.

/// Faults on the first touch of every page, with service times of 1 to
/// 40 cycles, so fault waits and their countdown edges run through the
/// block loop too. Copyable: a fresh machine resumes with the MMU state
/// the saved one had.
class FirstTouchMmu final : public fx8::Mmu {
 public:
  Cycle touch(JobId job, CeId /*ce*/, Addr addr) override {
    const Addr page = addr / kPageBytes;
    return mapped_.insert({job, page}).second ? 1 + page % 40 : 0;
  }

 private:
  std::set<std::pair<JobId, Addr>> mapped_;
};

/// A serial job whose steps compute for hundreds of cycles with the bus
/// idle, so its machine is quiet at most block boundaries.
isa::Program compute_bound_program() {
  isa::KernelSpec k = tk_kernel();
  k.compute_cycles = 300;
  k.compute_jitter = 100;
  k.stores_per_step = 0;
  return isa::ProgramBuilder("compute-bound")
      .data_base(0x600000)
      .serial(k, 3)
      .build();
}

/// A machine shape and, per cluster, its job and the serial job each of
/// its detached slots runs (nullptr: none).
struct BlockInput {
  const char* name;
  fx8::MachineConfig config;
  std::vector<const isa::Program*> jobs;
  std::vector<const isa::Program*> detached;

  /// Load the jobs.
  void attach(fx8::Machine& m) const {
    for (std::uint32_t i = 0; i < m.n_clusters(); ++i) {
      fx8::Cluster& cluster = m.cluster(i);
      if (i < jobs.size() && jobs[i] != nullptr) {
        cluster.load(*jobs[i], i + 1);
      }
      if (i >= detached.size() || detached[i] == nullptr) {
        continue;
      }
      for (std::uint32_t slot = 0; slot < cluster.detached_count(); ++slot) {
        cluster.load_detached(slot, *detached[i], 100 + i + slot);
      }
    }
  }
};

// Arbitrary interleavings of single ticks and block runs must leave the
// machine agreeing with the pure naive run at every block boundary: a
// job cut into blocks of random length (1 to 300 cycles) on FX/8
// (saturated, and split with two detached CEs), on FX/64 (one live
// cluster, and two around an idle one) and on FX/16 (a compute-bound
// serial job on cluster 1, cluster 0 idle), carrying on part-way through
// from a capsule of the block machine loaded into a fresh one. Both
// machines must also report the same quiet horizon, which the block
// machine reads off its lanes' due cycles; so the block machine is also
// reloaded at every later boundary where that horizon is positive, where
// a loaded lane must record its horizon rather than be due at once.
TEST(TickKernel, MixedBlockAndNaiveRunsStayConsistent) {
  const isa::Program loop = tk_program(96);
  const isa::Program short_loop = tk_program(40);
  const isa::Program serial = wk_serial_program(7);
  const isa::Program compute = compute_bound_program();
  fx8::MachineConfig split = fx8::MachineConfig::fx8();
  split.cluster.detached_ces = 2;
  const std::vector<BlockInput> inputs = {
      {"fx8 saturated", fx8::MachineConfig::fx8(), {&loop}, {}},
      {"fx8 detached split", split, {&short_loop}, {&serial}},
      {"fx64 one live", fx8::MachineConfig::fx64(), {&loop}, {}},
      {"fx64 two live", fx8::MachineConfig::fx64(),
       {&loop, nullptr, &short_loop}, {}},
      {"fx16 compute-bound", fx8::MachineConfig::fx16(), {nullptr, &compute},
       {}},
  };
  constexpr std::uint32_t kReloadBlock = 4;
  std::uint64_t seed = 0xB10C5EEDULL;  // xorshift64* block lengths
  for (const BlockInput& input : inputs) {
    SCOPED_TRACE(input.name);
    FirstTouchMmu naive_mmu;
    fx8::Machine naive(input.config, naive_mmu);
    make_naive(naive);
    auto block_mmu = std::make_unique<FirstTouchMmu>();
    auto block = std::make_unique<fx8::Machine>(input.config, *block_mmu);
    input.attach(naive);
    input.attach(*block);
    std::uint32_t blocks = 0;
    while (wk_any_busy(naive)) {
      seed ^= seed >> 12;
      seed ^= seed << 25;
      seed ^= seed >> 27;
      const Cycle want = 1 + seed * 0x2545F4914F6CDD1DULL % 300;
      const Cycle advanced = block->tick_block(want);
      ASSERT_TRUE(advanced >= 1 && advanced <= want);
      for (Cycle i = 0; i < advanced; ++i) {
        naive.tick();
      }
      ASSERT_TRUE(oracle::same_machine(naive, *block))
          << "after block " << blocks << " of " << advanced << " cycles";
      // The reference steps every live lane every cycle, so its due
      // cycles are always fresh.
      const Cycle horizon = naive.quiet_horizon();
      ASSERT_EQ(block->quiet_horizon(), horizon) << "after block " << blocks;
      ++blocks;
      if (blocks == kReloadBlock || (blocks > kReloadBlock && horizon > 0)) {
        capsule::Io saver = capsule::Io::saver();
        block->serialize(saver);
        auto fresh_mmu = std::make_unique<FirstTouchMmu>(*block_mmu);
        auto fresh = std::make_unique<fx8::Machine>(input.config, *fresh_mmu);
        capsule::Io loader = capsule::Io::loader(saver.bytes());
        fresh->serialize(loader);
        block = std::move(fresh);
        block_mmu = std::move(fresh_mmu);
        ASSERT_EQ(block->quiet_horizon(), horizon)
            << "after the capsule load at block " << blocks;
      }
      ASSERT_LT(naive.now(), 10'000'000u);
    }
    EXPECT_GT(blocks, kReloadBlock);
    EXPECT_FALSE(wk_any_busy(*block));
  }
}

// --- Jumps inside a block ----------------------------------------------
//
// tick_block jumps any stretch of two or more cycles in which nothing is
// due, reading the horizon at entry and after each ticked cycle that
// stepped no lane and left no fill ready. The reference machine and a
// machine driven one cycle at a time never jump.

/// A loop whose iterations stream loads over a working set far larger
/// than the shared cache, so line fetches keep the buses busy and queue
/// behind busy memory banks.
isa::Program miss_heavy_program() {
  isa::KernelSpec k = tk_kernel();
  k.compute_cycles = 2;
  k.compute_jitter = 1;
  k.loads_per_step = 4;
  k.working_set_bytes = 8 * 1024 * 1024;
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 48;
  loop.body = k;
  return isa::ProgramBuilder("miss-heavy")
      .data_base(0x1000000)
      .concurrent_loop(loop)
      .build();
}

/// Loops of compute-bound iterations each awaiting its predecessor, so
/// waiting workers book dependence-wait cycles across quiet stretches, and
/// each loop's last grant goes to a waiting worker, on a cycle that may
/// step no lane.
isa::Program dependent_program() {
  isa::KernelSpec k = tk_kernel();
  k.compute_cycles = 120;
  k.compute_jitter = 40;
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 12;
  loop.body = k;
  loop.dependence_prob = 1.0;
  isa::ProgramBuilder builder("dependent");
  builder.data_base(0x800000);
  for (int i = 0; i < 6; ++i) {
    builder.concurrent_loop(loop);
  }
  return builder.build();
}

/// True when some bus holds a queued transaction but carries none: its
/// head waits for a busy memory bank.
bool bank_blocked_head(fx8::Machine& m) {
  for (std::uint32_t bus = 0; bus < m.mem_bus_count(); ++bus) {
    if (m.membus().queue_depth(bus) > 0 &&
        m.mem_bus_op(bus) == mem::MemBusOp::kIdle) {
      return true;
    }
  }
  return false;
}

// A session-like sequence on a bare machine: idle gaps between jobs (only
// the IPs live, idling or bursting), a compute-bound serial job, a loop of
// dependent iterations and a miss-heavy loop whose line fetches meet
// memory banks that stay busy longer than a transfer, on FX/8, on one
// two-CE cluster and on FX/64. Gaps and jobs are cut into blocks: a third
// run exactly over the quiet stretch the machine is in and a third last 2
// to 4 cycles, so many jumps end on a block end, the one place a jump's
// leftovers (a grant word a quiet tick would reset) can show; the rest
// last 1 to 2000 cycles, so blocks end on control events, inside quiet
// stretches and on ticked cycles alike. At every block end the block machine must match the
// reference, which ticks every lane every cycle, and a machine advanced
// by tick_block(1), and report the reference's quiet horizon.
TEST(TickKernel, MidBlockJumpsMatchTheReference) {
  const isa::Program compute = compute_bound_program();
  const isa::Program dependent = dependent_program();
  const isa::Program misses = miss_heavy_program();
  const std::vector<const isa::Program*> jobs = {&compute, &dependent,
                                                 &misses, &compute};
  std::uint64_t seed = 0x0DD1E5EEDULL;  // xorshift64* lengths
  const auto draw = [&seed](Cycle bound) -> Cycle {
    seed ^= seed >> 12;
    seed ^= seed << 25;
    seed ^= seed >> 27;
    return 1 + seed * 0x2545F4914F6CDD1DULL % bound;
  };
  fx8::MachineConfig narrow = fx8::MachineConfig::fx8();
  narrow.cluster.n_ces = 2;
  for (fx8::MachineConfig config :
       {fx8::MachineConfig::fx8(), narrow, fx8::MachineConfig::fx64()}) {
    config.memory.bank_busy_cycles = 16;
    SCOPED_TRACE(config.cluster.n_ces * config.n_clusters);
    FirstTouchMmu naive_mmu;
    FirstTouchMmu single_mmu;
    FirstTouchMmu block_mmu;
    fx8::Machine naive(config, naive_mmu);
    make_naive(naive);
    fx8::Machine single(config, single_mmu);
    fx8::Machine block(config, block_mmu);
    const auto length = [&]() -> Cycle {
      switch (draw(3)) {
        case 1:  // One jump over the quiet stretch the machine is in.
          return std::clamp<Cycle>(block.quiet_horizon(), 1, 2000);
        case 2:
          return 1 + draw(3);
        default:
          return draw(2000);
      }
    };
    std::uint32_t blocks = 0;
    std::uint32_t quiet_ends = 0;
    std::uint32_t blocked_heads = 0;
    // Advance all three machines through one block of at most `want`
    // cycles and compare them.
    const auto run_block = [&](Cycle want) {
      const Cycle jumped = block.jumped_cycles();
      const Cycle advanced = block.tick_block(want);
      ASSERT_TRUE(advanced >= 1 && advanced <= want);
      for (Cycle i = 0; i < advanced; ++i) {
        naive.tick();
        ASSERT_EQ(single.tick_block(1), 1u);
        if (bank_blocked_head(naive)) {
          ++blocked_heads;
        }
      }
      ASSERT_TRUE(oracle::same_machine(naive, block))
          << "after block " << blocks << " of " << advanced << " cycles";
      ASSERT_TRUE(oracle::same_machine(naive, single))
          << "after block " << blocks;
      const Cycle horizon = naive.quiet_horizon();
      ASSERT_EQ(block.quiet_horizon(), horizon) << "after block " << blocks;
      if (horizon > 0 && block.jumped_cycles() != jumped) {
        ++quiet_ends;  // The budget ended a jump inside a quiet stretch.
      }
      ++blocks;
    };
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      for (fx8::Machine* m : {&naive, &single, &block}) {
        for (std::uint32_t k = 0; k < m->n_clusters(); k += 3) {
          m->cluster(k).load(*jobs[j], 10 * j + k + 1);
        }
      }
      while (wk_any_busy(naive)) {
        ASSERT_NO_FATAL_FAILURE(run_block(length()));
      }
      for (Cycle gap = 1000 + draw(6000); gap > 0;) {
        const Cycle before = block.now();
        ASSERT_NO_FATAL_FAILURE(run_block(std::min(gap, length())));
        gap -= block.now() - before;
      }
    }
    EXPECT_GT(block.jumps(), 0u);
    EXPECT_GT(block.jumped_cycles(), 0u);
    EXPECT_GT(quiet_ends, 0u);
    EXPECT_GT(blocked_heads, 0u);
    EXPECT_GT(naive.ips()[0].accesses_issued(), 0u);
    EXPECT_EQ(naive.jumps(), 0u);
    EXPECT_EQ(single.jumps(), 0u);
    EXPECT_EQ(naive.cluster(0).stats().jobs_completed, jobs.size());
    EXPECT_GT(naive.cluster(0).stats().dependence_wait_cycles, 0u);
  }
}

}  // namespace
}  // namespace repro::core
