#include "fx8/ccb.hpp"

#include <gtest/gtest.h>

#include "base/expect.hpp"

namespace repro::fx8 {
namespace {

TEST(Ccb, DispatchesAllIterationsExactlyOnce) {
  ConcurrencyControlBus ccb;
  ccb.start_loop(10);
  std::vector<std::uint64_t> got;
  while (!ccb.all_dispatched()) {
    ccb.begin_cycle();
    if (const auto it = ccb.try_dispatch()) {
      got.push_back(*it);
    }
  }
  ASSERT_EQ(got.size(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_EQ(got[i], i);
  }
}

TEST(Ccb, OneGrantPerCycle) {
  ConcurrencyControlBus ccb;
  ccb.start_loop(10);
  ccb.begin_cycle();
  EXPECT_TRUE(ccb.try_dispatch().has_value());
  EXPECT_FALSE(ccb.try_dispatch().has_value());
  ccb.begin_cycle();
  EXPECT_TRUE(ccb.try_dispatch().has_value());
}

TEST(Ccb, StartLoopGrantsInStartingCycle) {
  ConcurrencyControlBus ccb;
  ccb.start_loop(4);
  // No begin_cycle yet: the cstart cycle itself can dispatch.
  EXPECT_TRUE(ccb.try_dispatch().has_value());
}

TEST(Ccb, CompletionTracking) {
  ConcurrencyControlBus ccb;
  ccb.start_loop(3);
  ccb.begin_cycle();
  (void)ccb.try_dispatch();
  ccb.begin_cycle();
  (void)ccb.try_dispatch();
  ccb.begin_cycle();
  (void)ccb.try_dispatch();
  EXPECT_TRUE(ccb.all_dispatched());
  EXPECT_FALSE(ccb.all_complete());
  ccb.mark_complete(1);
  ccb.mark_complete(0);
  ccb.mark_complete(2);
  EXPECT_TRUE(ccb.all_complete());
  ccb.end_loop();
  EXPECT_FALSE(ccb.loop_active());
}

TEST(Ccb, DoubleCompletionIsContractViolation) {
  ConcurrencyControlBus ccb;
  ccb.start_loop(2);
  ccb.mark_complete(0);
  EXPECT_THROW(ccb.mark_complete(0), ContractViolation);
}

TEST(Ccb, PredecessorDependence) {
  ConcurrencyControlBus ccb;
  ccb.start_loop(4);
  EXPECT_TRUE(ccb.predecessor_complete(0));   // no predecessor
  EXPECT_FALSE(ccb.predecessor_complete(2));  // 1 not complete
  ccb.mark_complete(1);
  EXPECT_TRUE(ccb.predecessor_complete(2));
}

TEST(Ccb, CompletionBitsCrossWordBoundaries) {
  ConcurrencyControlBus ccb;
  const std::uint64_t trip = std::uint64_t{1} << 20;
  ccb.start_loop(trip);
  for (const std::uint64_t iter : {std::uint64_t{63}, std::uint64_t{64},
                                   trip - 1}) {
    EXPECT_FALSE(ccb.predecessor_complete(iter + 1)) << iter;
    ccb.mark_complete(iter);
    EXPECT_TRUE(ccb.predecessor_complete(iter + 1)) << iter;
  }
  // The neighbours of each marked bit are untouched.
  EXPECT_FALSE(ccb.predecessor_complete(63));        // iteration 62
  EXPECT_FALSE(ccb.predecessor_complete(66));        // iteration 65
  EXPECT_FALSE(ccb.predecessor_complete(trip - 1));  // iteration trip - 2
  EXPECT_EQ(ccb.completed(), 3u);
  EXPECT_THROW(ccb.mark_complete(64), ContractViolation);
}

TEST(Ccb, CapsuleCarriesOneBytePerIteration) {
  ConcurrencyControlBus idle;
  capsule::Io idle_io = capsule::Io::saver();
  idle.serialize(idle_io);

  ConcurrencyControlBus ccb;
  ccb.start_loop(130);
  for (const std::uint64_t iter : {0u, 63u, 64u, 129u}) {
    ccb.mark_complete(iter);
  }
  capsule::Io saver = capsule::Io::saver();
  ccb.serialize(saver);
  EXPECT_EQ(saver.bytes().size(), idle_io.bytes().size() + 130);

  ConcurrencyControlBus restored;
  capsule::Io loader = capsule::Io::loader(saver.bytes());
  restored.serialize(loader);
  EXPECT_TRUE(loader.exhausted());
  for (std::uint64_t iter = 0; iter < 130; ++iter) {
    const bool done = iter == 0 || iter == 63 || iter == 64 || iter == 129;
    EXPECT_EQ(restored.predecessor_complete(iter + 1), done) << iter;
  }
  capsule::Io resaved = capsule::Io::saver();
  restored.serialize(resaved);
  EXPECT_EQ(resaved.bytes(), saver.bytes());
}

TEST(Ccb, EndLoopRequiresDrain) {
  ConcurrencyControlBus ccb;
  ccb.start_loop(1);
  EXPECT_THROW(ccb.end_loop(), ContractViolation);
}

TEST(Ccb, CannotStartTwoLoops) {
  ConcurrencyControlBus ccb;
  ccb.start_loop(1);
  EXPECT_THROW(ccb.start_loop(1), ContractViolation);
}

TEST(Ccb, ReusableAfterEndLoop) {
  ConcurrencyControlBus ccb;
  ccb.start_loop(1);
  ccb.begin_cycle();
  (void)ccb.try_dispatch();
  ccb.mark_complete(0);
  ccb.end_loop();
  EXPECT_NO_THROW(ccb.start_loop(5));
  EXPECT_EQ(ccb.trip_count(), 5u);
}

}  // namespace
}  // namespace repro::fx8
