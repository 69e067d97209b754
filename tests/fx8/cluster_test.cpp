#include "fx8/cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <vector>

#include "base/capsule.hpp"
#include "base/expect.hpp"
#include "mem/main_memory.hpp"
#include "mem/memory_bus.hpp"

namespace repro::fx8 {
namespace {

isa::KernelSpec tiny_kernel() {
  isa::KernelSpec k;
  k.steps = 4;
  k.compute_cycles = 3;
  k.loads_per_step = 1;
  k.working_set_bytes = 16 * 1024;
  return k;
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterTest()
      : memory_(mem::MainMemoryConfig{}),
        bus_(mem::MemoryBusConfig{}, memory_),
        cache_(cache::SharedCacheConfig{}, bus_),
        cluster_(ClusterConfig{}, cache_, mmu_, lanes_, events_, now_) {}

  /// Advance machine-style: cluster, then bus, then cache.
  void step() {
    cluster_.tick();
    bus_.tick(now_);
    cache_.tick();
    ++now_;
  }

  Cycle run_job(const isa::Program& prog, Cycle limit = 2'000'000) {
    cluster_.load(prog, 1);
    Cycle used = 0;
    while (cluster_.busy()) {
      step();
      ++used;
      REPRO_EXPECT(used < limit, "job did not finish in limit");
    }
    return used;
  }

  mem::MainMemory memory_;
  mem::MemoryBus bus_;
  cache::SharedCache cache_;
  NoFaultMmu mmu_;
  CeHot lanes_;
  std::uint64_t events_ = 0;
  Cycle now_ = 0;
  Cluster cluster_;
};

TEST_F(ClusterTest, IdleClusterHasNoActiveCes) {
  EXPECT_EQ(cluster_.active_mask(), 0u);
  EXPECT_EQ(cluster_.active_count(), 0u);
  step();
  EXPECT_EQ(cluster_.active_mask(), 0u);
}

TEST_F(ClusterTest, SerialJobUsesExactlyOneCe) {
  const isa::Program prog =
      isa::ProgramBuilder("serial").serial(tiny_kernel(), 5).build();
  cluster_.load(prog, 1);
  while (cluster_.busy()) {
    step();
    if (cluster_.busy()) {
      EXPECT_EQ(cluster_.active_count(), 1u);
    }
  }
  EXPECT_EQ(cluster_.stats().serial_reps_completed, 5u);
  EXPECT_EQ(cluster_.stats().jobs_completed, 1u);
}

TEST_F(ClusterTest, ConcurrentLoopExecutesEveryIterationOnce) {
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 100;
  loop.body = tiny_kernel();
  const isa::Program prog =
      isa::ProgramBuilder("loop").concurrent_loop(loop).build();
  (void)run_job(prog);
  EXPECT_EQ(cluster_.stats().iterations_completed, 100u);
  EXPECT_EQ(cluster_.stats().loops_completed, 1u);
}

TEST_F(ClusterTest, ConcurrentLoopReachesFullWidth) {
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 200;
  loop.body = tiny_kernel();
  const isa::Program prog =
      isa::ProgramBuilder("loop").concurrent_loop(loop).build();
  cluster_.load(prog, 1);
  std::uint32_t max_active = 0;
  while (cluster_.busy()) {
    step();
    max_active = std::max(max_active, cluster_.active_count());
  }
  EXPECT_EQ(max_active, 8u);
}

TEST_F(ClusterTest, LoopSpeedsUpOverSerialExecution) {
  // Same total work as loop iterations vs. serial reps. Compute-heavy so
  // the memory path is not the bottleneck.
  isa::KernelSpec heavy = tiny_kernel();
  heavy.compute_cycles = 20;
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 64;
  loop.body = heavy;
  const isa::Program par =
      isa::ProgramBuilder("par").concurrent_loop(loop).build();
  const Cycle t_par = run_job(par);

  const isa::Program ser =
      isa::ProgramBuilder("ser").serial(heavy, 64).build();
  const Cycle t_ser = run_job(ser);

  const double speedup =
      static_cast<double>(t_ser) / static_cast<double>(t_par);
  EXPECT_GT(speedup, 3.0);
  EXPECT_LE(speedup, 8.5);
}

TEST_F(ClusterTest, SerialAfterLoopContinuesOnLastFinisher) {
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 24;
  loop.body = tiny_kernel();
  const isa::Program prog = isa::ProgramBuilder("mix")
                                .serial(tiny_kernel(), 1)
                                .concurrent_loop(loop)
                                .serial(tiny_kernel(), 1)
                                .build();
  cluster_.load(prog, 1);
  bool saw_loop = false;
  CeId continuation_during_tail = 0;
  std::uint32_t tail_active_mask = 0;
  while (cluster_.busy()) {
    step();
    if (cluster_.active_count() > 1) {
      saw_loop = true;
    }
    if (saw_loop && cluster_.busy() && cluster_.active_count() == 1) {
      continuation_during_tail = cluster_.continuation_ce();
      tail_active_mask = cluster_.active_mask();
    }
  }
  EXPECT_TRUE(saw_loop);
  // The tail serial phase ran on the recorded continuation CE.
  EXPECT_EQ(tail_active_mask, 1u << continuation_during_tail);
}

TEST_F(ClusterTest, ActiveMaskDrainsThroughTransition) {
  // With a trip count of 8 and noticeable jitter, the end of the loop must
  // pass through intermediate active counts rather than jumping 8 -> 0.
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 8 * 6 + 2;
  loop.body = tiny_kernel();
  loop.body.compute_jitter = 2;
  const isa::Program prog =
      isa::ProgramBuilder("drain").concurrent_loop(loop).build();
  cluster_.load(prog, 1);
  std::map<std::uint32_t, int> active_histogram;
  while (cluster_.busy()) {
    step();
    ++active_histogram[cluster_.active_count()];
  }
  EXPECT_GT(active_histogram[8], 0);
  int intermediate = 0;
  for (std::uint32_t n = 2; n <= 7; ++n) {
    intermediate += active_histogram[n];
  }
  EXPECT_GT(intermediate, 0);
}

TEST_F(ClusterTest, DependenceSerializesIterations) {
  isa::ConcurrentLoopPhase free_loop;
  free_loop.trip_count = 64;
  free_loop.body = tiny_kernel();
  const isa::Program free_prog =
      isa::ProgramBuilder("free").concurrent_loop(free_loop).build();
  const Cycle t_free = run_job(free_prog);

  isa::ConcurrentLoopPhase dep_loop = free_loop;
  dep_loop.dependence_prob = 1.0;  // every iteration awaits its predecessor
  const isa::Program dep_prog =
      isa::ProgramBuilder("dep").concurrent_loop(dep_loop).build();
  const Cycle t_dep = run_job(dep_prog);

  EXPECT_GT(t_dep, 2 * t_free);
  EXPECT_GT(cluster_.stats().dependence_wait_cycles, 0u);
}

// Crafted walks are rejected as corrupt: worker iterations past the loop
// (the next control scan would index the CCB's completion bits with
// them) and a dependence-waiter count that disagrees with the workers
// (a fast-forward jump books it once per quiet cycle). The walk of a
// cluster with no detached CEs ends in the eight u64 worker iterations,
// five u64 stats counters and the u32 waiter count.
TEST_F(ClusterTest, LoadRejectsCraftedWorkerWalks) {
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 64;
  loop.body = tiny_kernel();
  loop.dependence_prob = 1.0;
  cluster_.load(isa::ProgramBuilder("dep").concurrent_loop(loop).build(), 1);
  for (int i = 0; i < 50; ++i) {
    step();
  }
  capsule::Io saver = capsule::Io::saver();
  cluster_.serialize(saver);
  const std::vector<std::uint8_t> saved = saver.bytes();
  const std::size_t waiting_at = saved.size() - 4;
  const std::size_t iters_at = waiting_at - 5 * 8 - kMaxCes * 8;
  ASSERT_GT(saved[waiting_at], 0);  // Some worker awaits its predecessor.

  std::vector<std::uint8_t> crafted = saved;
  for (CeId c = 0; c < kMaxCes; ++c) {
    crafted[iters_at + 8 * c + 5] = 1;  // Iteration + 2^40.
  }
  capsule::Io far = capsule::Io::loader(std::move(crafted));
  EXPECT_THROW(cluster_.serialize(far), capsule::CapsuleError);

  crafted = saved;
  ++crafted[waiting_at];
  capsule::Io miscounted = capsule::Io::loader(std::move(crafted));
  EXPECT_THROW(cluster_.serialize(miscounted), capsule::CapsuleError);

  // The saved walk itself loads and runs the loop to its end.
  capsule::Io loader = capsule::Io::loader(saved);
  cluster_.serialize(loader);
  while (cluster_.busy()) {
    step();
  }
  EXPECT_EQ(cluster_.stats().iterations_completed, 64u);
}

// A capsule's loop flag must match the CCB: a cluster loaded "in a loop"
// the CCB never started polls a CCB with no loop on its next control
// scan, and one loaded outside a loop the CCB is running starts it twice.
// The flag is the first of the two booleans ahead of the eight u32 worker
// states, eight u64 worker iterations, five u64 stats counters and the
// u32 waiter count that end the walk.
TEST_F(ClusterTest, LoadRejectsALoopFlagTheCcbDoesNotHold) {
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 16;
  loop.body = tiny_kernel();
  cluster_.load(isa::ProgramBuilder("serial-then-loop")
                    .serial(tiny_kernel(), 50)
                    .concurrent_loop(loop)
                    .build(),
                1);
  for (int i = 0; i < 20; ++i) {
    step();
  }
  const auto walk = [this] {
    capsule::Io saver = capsule::Io::saver();
    cluster_.serialize(saver);
    return saver.bytes();
  };
  const auto in_loop_at = [](const std::vector<std::uint8_t>& bytes) {
    return bytes.size() - 4 - 5 * 8 - kMaxCes * 8 - kMaxCes * 4 - 2;
  };
  const std::vector<std::uint8_t> serial = walk();
  ASSERT_EQ(serial[in_loop_at(serial)], 0);  // Still in the serial phase.
  std::vector<std::uint8_t> crafted = serial;
  crafted[in_loop_at(crafted)] = 1;
  capsule::Io in_loop = capsule::Io::loader(std::move(crafted));
  EXPECT_THROW(cluster_.serialize(in_loop), capsule::CapsuleError);

  // Reload the true walk and run into the loop; clearing the flag there
  // is refused too.
  capsule::Io loader = capsule::Io::loader(serial);
  cluster_.serialize(loader);
  for (Cycle used = 0; cluster_.active_count() < 2; ++used) {
    ASSERT_LT(used, 100'000u);
    step();
  }
  const std::vector<std::uint8_t> looping = walk();
  ASSERT_EQ(looping[in_loop_at(looping)], 1);
  crafted = looping;
  crafted[in_loop_at(crafted)] = 0;
  capsule::Io outside = capsule::Io::loader(std::move(crafted));
  EXPECT_THROW(cluster_.serialize(outside), capsule::CapsuleError);
}

TEST_F(ClusterTest, LoadWhileBusyIsContractViolation) {
  const isa::Program prog =
      isa::ProgramBuilder("p").serial(tiny_kernel(), 100).build();
  cluster_.load(prog, 1);
  EXPECT_THROW(cluster_.load(prog, 2), ContractViolation);
}

TEST_F(ClusterTest, MultiPhaseJobRunsAllPhases) {
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 16;
  loop.body = tiny_kernel();
  const isa::Program prog = isa::ProgramBuilder("multi")
                                .serial(tiny_kernel(), 2)
                                .concurrent_loop(loop)
                                .serial(tiny_kernel(), 1)
                                .concurrent_loop(loop)
                                .build();
  (void)run_job(prog);
  EXPECT_EQ(cluster_.stats().loops_completed, 2u);
  EXPECT_EQ(cluster_.stats().serial_reps_completed, 3u);
  EXPECT_EQ(cluster_.stats().iterations_completed, 32u);
}

TEST_F(ClusterTest, RotatingPolicyStillCompletesLoops) {
  ClusterConfig config;
  config.policy = ServicePolicy::kRotating;
  CeHot lanes;
  std::uint64_t events = 0;
  Cluster rotating(config, cache_, mmu_, lanes, events, now_);
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 50;
  loop.body = tiny_kernel();
  const isa::Program prog =
      isa::ProgramBuilder("rot").concurrent_loop(loop).build();
  rotating.load(prog, 1);
  Cycle used = 0;
  while (rotating.busy()) {
    rotating.tick();
    bus_.tick(now_);
    cache_.tick();
    ++now_;
    ASSERT_LT(++used, 1'000'000u);
  }
  EXPECT_EQ(rotating.stats().iterations_completed, 50u);
}

TEST_F(ClusterTest, NarrowClusterWorks) {
  ClusterConfig config;
  config.n_ces = 2;
  config.policy = ServicePolicy::kAscending;
  CeHot lanes;
  std::uint64_t events = 0;
  Cluster narrow(config, cache_, mmu_, lanes, events, now_);
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 20;
  loop.body = tiny_kernel();
  const isa::Program prog =
      isa::ProgramBuilder("narrow").concurrent_loop(loop).build();
  narrow.load(prog, 1);
  std::uint32_t max_active = 0;
  Cycle used = 0;
  while (narrow.busy()) {
    narrow.tick();
    bus_.tick(now_);
    cache_.tick();
    ++now_;
    max_active = std::max(max_active, narrow.active_count());
    ASSERT_LT(++used, 1'000'000u);
  }
  EXPECT_EQ(max_active, 2u);
  EXPECT_EQ(narrow.stats().iterations_completed, 20u);
}


// --- Service order ------------------------------------------------------
// The service order is the cluster's hardware priority: it decides which
// idle CE the CCB grants the next iteration to, and which CE a same-bank
// crossbar tie goes to. These tests pin it per policy, with detached CEs
// (visited after the service lanes, slot 0 = highest id first), and under
// kRotating at several rotation offsets.

/// A standalone cluster with its own memory system, so every case starts
/// from a cold cache and an unrotated order.
struct OrderRig {
  explicit OrderRig(const ClusterConfig& config)
      : memory(mem::MainMemoryConfig{}),
        bus(mem::MemoryBusConfig{}, memory),
        cache(cache::SharedCacheConfig{}, bus),
        cluster(config, cache, mmu, lanes, events, now) {}

  void step() {
    cluster.tick();
    bus.tick(now);
    cache.tick();
    ++now;
  }

  mem::MainMemory memory;
  mem::MemoryBus bus;
  cache::SharedCache cache;
  NoFaultMmu mmu;
  CeHot lanes;
  std::uint64_t events = 0;
  Cycle now = 0;
  Cluster cluster;
};

class DispatchRecorder : public ClusterObserver {
 public:
  void on_iteration_start(JobId, std::uint64_t, CeId ce, Cycle) override {
    order.push_back(ce);
  }
  std::vector<CeId> order;
};

/// CEs in the order the CCB hands out a loop's first iterations, after
/// `idle_ticks` idle cycles (which advance a kRotating order).
std::vector<CeId> first_dispatches(const ClusterConfig& config,
                                   Cycle idle_ticks) {
  OrderRig rig(config);
  for (Cycle t = 0; t < idle_ticks; ++t) {
    rig.step();
  }
  DispatchRecorder recorder;
  rig.cluster.set_observer(&recorder);
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = rig.cluster.cluster_width();
  loop.body = tiny_kernel();
  loop.body.compute_cycles = 400;  // Nobody finishes before all dispatch.
  const isa::Program prog =
      isa::ProgramBuilder("order").concurrent_loop(loop).build();
  rig.cluster.load(prog, 1);
  while (recorder.order.size() < loop.trip_count) {
    rig.step();
    EXPECT_LT(rig.now, Cycle{1000});
    if (rig.now >= 1000) {
      break;
    }
  }
  rig.cluster.set_observer(nullptr);
  return recorder.order;
}

/// Which of CEs `a` and `b` wins a same-bank crossbar tie on the cycle
/// after `warmup` live cycles. CE 0 runs a long serial compute phase to
/// keep the cluster live (so a kRotating order keeps rotating); `a` and
/// `b` are started by hand on one single-load kernel at one address.
CeId tie_winner(const ClusterConfig& config, Cycle warmup, CeId a, CeId b) {
  OrderRig rig(config);
  isa::KernelSpec hold;
  hold.compute_cycles = 1'000'000;
  hold.loads_per_step = 0;
  const isa::Program prog =
      isa::ProgramBuilder("hold").serial(hold, 1).build();
  rig.cluster.load(prog, 1);
  for (Cycle t = 0; t < warmup; ++t) {
    rig.step();
  }
  isa::KernelSpec probe;
  probe.compute_cycles = 0;
  probe.loads_per_step = 1;
  KernelInstance inst;
  inst.spec = probe;
  inst.job = 2;
  inst.data_base = 0x01000000;
  rig.cluster.ce(a).start(inst);
  rig.cluster.ce(b).start(inst);
  rig.step();
  const std::uint64_t lost_a = rig.cluster.ce(a).stats().xbar_conflict_cycles;
  const std::uint64_t lost_b = rig.cluster.ce(b).stats().xbar_conflict_cycles;
  EXPECT_EQ(lost_a + lost_b, 1u) << "CEs " << a << " and " << b;
  return lost_a == 0 ? a : b;
}

/// Every pair of CEs 1..7 (CE 0 holds the serial phase) must tie-break
/// by its earlier position in `order`.
void expect_ties_follow(const ClusterConfig& config, Cycle warmup,
                        const std::vector<CeId>& order) {
  const auto pos = [&](CeId c) {
    return std::find(order.begin(), order.end(), c) - order.begin();
  };
  for (CeId a = 1; a < 8; ++a) {
    for (CeId b = a + 1; b < 8; ++b) {
      EXPECT_EQ(tie_winner(config, warmup, a, b),
                pos(a) < pos(b) ? a : b)
          << "tie " << a << " vs " << b << " after " << warmup << " cycles";
    }
  }
}

TEST(ServiceOrder, OuterFirstDispatchesAndBreaksTiesOuterFirst) {
  const ClusterConfig config;  // kOuterFirst
  const std::vector<CeId> order = {0, 7, 6, 3, 4, 2, 5, 1};
  EXPECT_EQ(first_dispatches(config, 0), order);
  expect_ties_follow(config, 1, order);
}

TEST(ServiceOrder, AscendingDispatchesAndBreaksTiesAscending) {
  ClusterConfig config;
  config.policy = ServicePolicy::kAscending;
  const std::vector<CeId> order = {0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(first_dispatches(config, 0), order);
  expect_ties_follow(config, 1, order);
}

TEST(ServiceOrder, RotatingOrderAdvancesOneLanePerCycle) {
  ClusterConfig config;
  config.policy = ServicePolicy::kRotating;
  // After three idle cycles the rotation stands at 3, and each later
  // cycle's order starts one lane further on: the first free lane in
  // every cycle's order is the next one up.
  EXPECT_EQ(first_dispatches(config, 3),
            (std::vector<CeId>{3, 4, 5, 6, 7, 0, 1, 2}));
  // The tie after `warmup` live cycles is resolved in the order rotated
  // by `warmup` (the rotation counts every cycle since construction).
  for (Cycle warmup = 1; warmup <= 9; warmup += 2) {
    std::vector<CeId> order;
    for (CeId i = 0; i < 8; ++i) {
      order.push_back(static_cast<CeId>((i + warmup) % 8));
    }
    expect_ties_follow(config, warmup, order);
  }
}

TEST(ServiceOrder, DetachedCesFollowTheServiceLanes) {
  ClusterConfig config;  // kOuterFirst with CEs 6 and 7 detached
  config.detached_ces = 2;
  EXPECT_EQ(first_dispatches(config, 0),
            (std::vector<CeId>{0, 3, 4, 2, 5, 1}));
  // Peel order: the service lanes, then detached slot 0 (CE 7), slot 1.
  expect_ties_follow(config, 1, {0, 3, 4, 2, 5, 1, 7, 6});
}

}  // namespace
}  // namespace repro::fx8
