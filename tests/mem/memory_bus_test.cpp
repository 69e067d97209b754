#include "mem/memory_bus.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <vector>

#include "base/capsule.hpp"
#include "base/expect.hpp"
#include "mem/main_memory.hpp"

namespace repro::mem {
namespace {

MemoryBusConfig four_cycle_config() {
  MemoryBusConfig config;
  config.transfer_cycles = 4;  // Pinned: tests below count exact cycles.
  return config;
}

class MemoryBusTest : public ::testing::Test {
 protected:
  MemoryBusTest()
      : memory_(MainMemoryConfig{}), bus_(four_cycle_config(), memory_) {}

  void run_cycles(int n) {
    for (int i = 0; i < n; ++i) {
      bus_.tick(now_++);
    }
  }

  MainMemory memory_;
  MemoryBus bus_;
  Cycle now_ = 0;
};

TEST_F(MemoryBusTest, IdleWhenNothingSubmitted) {
  run_cycles(3);
  EXPECT_EQ(bus_.op_on(0), MemBusOp::kIdle);
  EXPECT_EQ(bus_.op_on(1), MemBusOp::kIdle);
  EXPECT_EQ(bus_.op_cycles(0, MemBusOp::kIdle), 3u);
}

TEST_F(MemoryBusTest, LineFetchOccupiesTransferCycles) {
  const TxnId id = bus_.submit(0, MemBusOp::kLineFetch, 0x100);
  run_cycles(1);
  EXPECT_EQ(bus_.op_on(0), MemBusOp::kLineFetch);
  EXPECT_FALSE(bus_.take_finished(id));
  run_cycles(3);  // transfer_cycles == 4 total
  EXPECT_TRUE(bus_.take_finished(id));
  // A consumed completion is gone.
  EXPECT_FALSE(bus_.take_finished(id));
  run_cycles(1);
  EXPECT_EQ(bus_.op_on(0), MemBusOp::kIdle);
}

TEST_F(MemoryBusTest, SecondBusIndependent) {
  (void)bus_.submit(0, MemBusOp::kLineFetch, 0x100);
  run_cycles(1);
  EXPECT_EQ(bus_.op_on(0), MemBusOp::kLineFetch);
  EXPECT_EQ(bus_.op_on(1), MemBusOp::kIdle);
}

TEST_F(MemoryBusTest, QueuedTransactionsServeInOrder) {
  const TxnId a = bus_.submit(0, MemBusOp::kLineFetch, 0 * kLineBytes);
  const TxnId b = bus_.submit(0, MemBusOp::kWriteBack, 1 * kLineBytes);
  EXPECT_EQ(bus_.queue_depth(0), 2u);
  run_cycles(4);
  EXPECT_TRUE(bus_.take_finished(a));
  EXPECT_FALSE(bus_.take_finished(b));
  run_cycles(4);
  EXPECT_TRUE(bus_.take_finished(b));
}

TEST_F(MemoryBusTest, SaturatedQueueStaysBoundedAndFifo) {
  // A bus whose queue never drains: every completion is replaced by a new
  // submission, so the queue's head never catches up with its tail. The
  // served prefix must still be reclaimed, and service must stay FIFO.
  std::deque<TxnId> waiting;
  std::uint64_t next_line = 0;
  const auto submit_one = [&] {
    waiting.push_back(bus_.submit(0, MemBusOp::kLineFetch,
                                  (next_line++ % 64) * kLineBytes));
  };
  for (int i = 0; i < 8; ++i) {
    submit_one();
  }
  int served = 0;
  std::size_t max_capacity = 0;
  while (served < 5000) {
    run_cycles(1);
    ASSERT_GE(waiting.size(), 2u);
    // Only the oldest transaction may have finished.
    EXPECT_FALSE(bus_.take_finished(waiting[1]));
    if (bus_.take_finished(waiting.front())) {
      waiting.pop_front();
      ++served;
      submit_one();
    }
    EXPECT_GT(bus_.queue_depth(0), 0u);
    max_capacity = std::max(max_capacity, bus_.queue_capacity(0));
    ASSERT_LT(now_, 1'000'000u);
  }
  EXPECT_LE(max_capacity, 32u);
}

TEST_F(MemoryBusTest, InvalidateIsShort) {
  const TxnId id = bus_.submit(1, MemBusOp::kInvalidate, 0);
  run_cycles(1);
  EXPECT_TRUE(bus_.take_finished(id));
  EXPECT_EQ(bus_.op_cycles(1, MemBusOp::kInvalidate), 1u);
}

TEST_F(MemoryBusTest, BankConflictStallsBus) {
  // Two fetches to the same bank back to back: the second waits for the
  // bank to free even though the bus is idle.
  MainMemoryConfig mc;
  mc.bank_busy_cycles = 10;  // Longer than the bus transfer.
  MainMemory slow_memory(mc);
  MemoryBus bus(four_cycle_config(), slow_memory);
  const TxnId a = bus.submit(0, MemBusOp::kLineFetch, 0);
  const TxnId b = bus.submit(0, MemBusOp::kLineFetch, 4 * kLineBytes);
  Cycle now = 0;
  for (int i = 0; i < 4; ++i) {
    bus.tick(now++);
  }
  EXPECT_TRUE(bus.take_finished(a));
  // Bank is busy until cycle 10; bus idles in between.
  int idle_cycles = 0;
  while (!bus.take_finished(b)) {
    bus.tick(now++);
    idle_cycles += bus.op_on(0) == MemBusOp::kIdle ? 1 : 0;
    ASSERT_LT(now, 100u);
  }
  EXPECT_GT(idle_cycles, 0);
}

TEST_F(MemoryBusTest, RejectsBadSubmissions) {
  EXPECT_THROW((void)bus_.submit(9, MemBusOp::kLineFetch, 0),
               ContractViolation);
  EXPECT_THROW((void)bus_.submit(0, MemBusOp::kIdle, 0), ContractViolation);
}

TEST_F(MemoryBusTest, OpCycleCountsAccumulate) {
  (void)bus_.submit(0, MemBusOp::kLineFetch, 0);
  run_cycles(6);
  EXPECT_EQ(bus_.op_cycles(0, MemBusOp::kLineFetch), 4u);
  EXPECT_EQ(bus_.op_cycles(0, MemBusOp::kIdle), 2u);
}

std::uint64_t walk_digest(MemoryBus& bus) {
  capsule::Io io = capsule::Io::digester();
  bus.serialize(io);
  return io.digest();
}

// A ticked idle stretch books its cycles into the quiescent fold, a
// skipped one straight into the idle counter. The capsule walk must not
// tell them apart: both are the same observable bus.
TEST_F(MemoryBusTest, SkippedIdleStretchDigestsLikeTickedOne) {
  MainMemory other_memory(MainMemoryConfig{});
  MemoryBus skipped(four_cycle_config(), other_memory);
  run_cycles(10);
  skipped.tick(0);
  ASSERT_GE(skipped.quiet_horizon(1), 9u);
  skipped.skip(9);
  EXPECT_EQ(skipped.op_cycles(0, MemBusOp::kIdle),
            bus_.op_cycles(0, MemBusOp::kIdle));
  EXPECT_EQ(walk_digest(skipped), walk_digest(bus_));
}

// Crafted walks are rejected as corrupt: an opcode past the last
// enumerator (the next tick would index the opcode counters with it) and
// a queue depth larger than the payload. Bus 0 walks a u64 queue depth,
// then the active transaction: u64 id, u32 opcode, u64 address.
TEST_F(MemoryBusTest, LoadRejectsCraftedWalks) {
  capsule::Io saver = capsule::Io::saver();
  bus_.serialize(saver);
  for (const std::size_t at : {std::size_t{16}, std::size_t{5}}) {
    std::vector<std::uint8_t> crafted = saver.bytes();
    crafted[at] = 200;  // Opcode 200; depth 200 * 2^40.
    capsule::Io loader = capsule::Io::loader(std::move(crafted));
    EXPECT_THROW(bus_.serialize(loader), capsule::CapsuleError) << at;
  }
}

}  // namespace
}  // namespace repro::mem
