#include <gtest/gtest.h>

#include <set>

#include "fx8/ccb.hpp"
#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"
#include "workload/kernels.hpp"

namespace repro::fx8 {
namespace {

TEST(CcbChunked, BlocksPartitionTheTripCount) {
  ConcurrencyControlBus ccb;
  ccb.start_loop(16, DispatchPolicy::kStaticChunked, 4);
  // CE c owns [4c, 4c+4).
  std::set<std::uint64_t> seen;
  for (CeId c = 0; c < 4; ++c) {
    for (int k = 0; k < 4; ++k) {
      ccb.begin_cycle();
      const auto iter = ccb.try_dispatch(c);
      ASSERT_TRUE(iter.has_value());
      EXPECT_GE(*iter, 4u * c);
      EXPECT_LT(*iter, 4u * c + 4);
      seen.insert(*iter);
    }
    ccb.begin_cycle();
    EXPECT_FALSE(ccb.try_dispatch(c).has_value()) << "block over-dispensed";
  }
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_TRUE(ccb.all_dispatched());
}

TEST(CcbChunked, UnevenTripLeavesTrailingCesShort) {
  ConcurrencyControlBus ccb;
  ccb.start_loop(10, DispatchPolicy::kStaticChunked, 4);
  // ceil(10/4) = 3: blocks [0,3) [3,6) [6,9) [9,10).
  int per_ce[4] = {0, 0, 0, 0};
  for (CeId c = 0; c < 4; ++c) {
    for (;;) {
      ccb.begin_cycle();
      if (!ccb.try_dispatch(c)) {
        break;
      }
      ++per_ce[c];
    }
  }
  EXPECT_EQ(per_ce[0], 3);
  EXPECT_EQ(per_ce[1], 3);
  EXPECT_EQ(per_ce[2], 3);
  EXPECT_EQ(per_ce[3], 1);
  EXPECT_TRUE(ccb.all_dispatched());
}

TEST(CcbChunked, OneGrantPerCycleStillHolds) {
  ConcurrencyControlBus ccb;
  ccb.start_loop(8, DispatchPolicy::kStaticChunked, 8);
  ccb.begin_cycle();
  EXPECT_TRUE(ccb.try_dispatch(0).has_value());
  EXPECT_FALSE(ccb.try_dispatch(1).has_value());  // budget spent
}

TEST(CcbChunked, ClusterRunsChunkedLoopsToCompletion) {
  NoFaultMmu mmu;
  MachineConfig config = MachineConfig::fx8();
  config.cluster.dispatch = DispatchPolicy::kStaticChunked;
  Machine machine(config, mmu);

  workload::KernelTuning tuning;
  isa::ConcurrentLoopPhase loop;
  loop.body = workload::triad_body(tuning);
  loop.trip_count = 43;  // uneven split
  const isa::Program program = isa::ProgramBuilder("chunked")
                                   .data_base(0x01000000)
                                   .concurrent_loop(loop)
                                   .build();
  machine.cluster().load(program, 1);
  Cycle guard = 0;
  while (machine.cluster().busy()) {
    machine.tick();
    ASSERT_LT(++guard, 2'000'000u);
  }
  EXPECT_EQ(machine.cluster().stats().iterations_completed, 43u);
}

TEST(CcbChunked, ImbalanceHurtsChunkedMoreThanSelfScheduled) {
  auto run = [](DispatchPolicy dispatch) {
    NoFaultMmu mmu;
    MachineConfig config = MachineConfig::fx8();
    config.cluster.dispatch = dispatch;
    config.ip.duty = 0.0;
    Machine machine(config, mmu);
    workload::KernelTuning tuning;
    isa::ConcurrentLoopPhase loop;
    loop.body = workload::triad_body(tuning);
    loop.trip_count = 64;
    loop.long_path_prob = 0.3;
    loop.long_path_extra_steps = 24;
    const isa::Program program = isa::ProgramBuilder("imbalanced")
                                     .seed(99)
                                     .data_base(0x01000000)
                                     .concurrent_loop(loop)
                                     .build();
    machine.cluster().load(program, 1);
    while (machine.cluster().busy()) {
      machine.tick();
    }
    return machine.now();
  };
  EXPECT_GT(run(DispatchPolicy::kStaticChunked),
            run(DispatchPolicy::kSelfScheduled));
}

}  // namespace
}  // namespace repro::fx8
