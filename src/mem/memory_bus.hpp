// Dual memory-bus model.
//
// Traffic between the caches and main memory runs over two 64-bit buses
// (Appendix C). Each cache module owns one bus. A transaction occupies its
// bus for a fixed transfer time once its memory bank is free; queued
// transactions wait. Each cycle every bus exposes the opcode a probe
// would latch, which is what membop_j in Table 1 counts.
//
// Transactions come in two flavours: *tracked* ones (cache-line fills)
// whose requester polls take_finished(), and *untracked* fire-and-forget
// ones (invalidate broadcasts, write-backs, IP traffic) that only load
// the bus. Keeping the flavours apart keeps the finished set small and
// lets take_finished() consumers gate on the completion epoch instead of
// polling every cycle.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/capsule.hpp"
#include "base/types.hpp"
#include "mem/bus_ops.hpp"
#include "mem/main_memory.hpp"

namespace repro::mem {

using TxnId = std::uint64_t;

struct MemoryBusConfig {
  std::uint32_t bus_count = 2;
  std::uint32_t transfer_cycles = 4;    ///< Bus occupancy of a line move.
  std::uint32_t invalidate_cycles = 1;  ///< Bus occupancy of an invalidate.
};

class MemoryBus {
 public:
  MemoryBus(const MemoryBusConfig& config, MainMemory& memory);

  [[nodiscard]] const MemoryBusConfig& config() const { return config_; }

  /// Queue a tracked transaction on bus `bus`. Returns a token to poll
  /// with take_finished(). `addr` selects the memory bank for ops that
  /// touch memory (fetch, write-back, IP traffic); ignored for
  /// invalidates.
  TxnId submit(std::uint32_t bus, MemBusOp op, Addr addr);

  /// Queue a fire-and-forget transaction: occupies the bus and books its
  /// opcode cycles exactly like submit(), but completion is dropped on
  /// the floor (no token, no epoch bump). For traffic nobody stalls on.
  void submit_untracked(std::uint32_t bus, MemBusOp op, Addr addr);

  /// Advance one cycle. Must be called exactly once per machine cycle with
  /// a strictly increasing `now`.
  void tick(Cycle now);

  /// True (and consumes the completion) if the transaction has finished.
  [[nodiscard]] bool take_finished(TxnId id);

  /// Monotone count of tracked completions. Consumers that poll
  /// take_finished() (the shared cache) skip their poll loop while this
  /// is unchanged: every take_finished() call would return false.
  [[nodiscard]] std::uint64_t completion_epoch() const {
    return completion_epoch_;
  }

  /// Event-horizon fast-forward: cycles of guaranteed pure repetition.
  /// An idle bus contributes kHorizonNever; an active transaction
  /// contributes remaining - 1 (its completion tick must run naively); a
  /// bank-blocked queue head contributes the wait until its bank frees.
  [[nodiscard]] Cycle quiet_horizon(Cycle now) const;
  /// Bulk-apply `cycles` quiet ticks: idle buses book idle opcode
  /// cycles, active transactions count down without completing.
  /// Requires cycles <= quiet_horizon(now).
  void skip(Cycle cycles);

  /// Opcode a probe on bus `bus` would latch for the cycle just ticked.
  [[nodiscard]] MemBusOp op_on(std::uint32_t bus) const;

  /// Number of queued-but-unstarted transactions on a bus (tests).
  [[nodiscard]] std::size_t queue_depth(std::uint32_t bus) const;

  /// Transactions a bus's queue has room for before it reallocates
  /// (tests: a queue that never drains must stay bounded).
  [[nodiscard]] std::size_t queue_capacity(std::uint32_t bus) const;

  /// Lifetime opcode-cycle counts per bus (op indexed by MemBusOp value).
  [[nodiscard]] std::uint64_t op_cycles(std::uint32_t bus, MemBusOp op) const;

  /// Capsule walk: per-bus queues/latches/opcode counters and the
  /// tracked completion set. Idle cycles walk with the quiescent fold
  /// already added in, so a ticked and a skipped idle stretch give the
  /// same bytes; loading resets the fold.
  void serialize(capsule::Io& io);

 private:
  struct PendingTxn {
    TxnId id = 0;  ///< 0 = untracked (fire-and-forget).
    MemBusOp op = MemBusOp::kIdle;
    Addr addr = 0;
  };
  /// FIFO of queued transactions: a vector plus a head index, so steady
  /// push/pop traffic reuses one buffer instead of allocating and freeing
  /// deque nodes. An emptied queue rewinds to index 0; one that never
  /// drains drops its served prefix once that is half the buffer.
  struct TxnQueue {
    std::vector<PendingTxn> items;
    std::size_t head = 0;

    [[nodiscard]] bool empty() const { return head == items.size(); }
    [[nodiscard]] std::size_t size() const { return items.size() - head; }
    [[nodiscard]] const PendingTxn& front() const { return items[head]; }
    void push_back(const PendingTxn& txn) { items.push_back(txn); }
    void pop_front() {
      ++head;
      if (head == items.size()) {
        items.clear();
        head = 0;
      } else if (2 * head >= items.size()) {
        items.erase(items.begin(),
                    items.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
    }
  };
  struct BusState {
    TxnQueue queue;
    PendingTxn active;
    /// Bus cycles left on the active transaction (0 = idle).
    std::uint32_t remaining = 0;
    /// Opcode a probe would latch for the cycle just ticked.
    MemBusOp current_op = MemBusOp::kIdle;
    std::array<std::uint64_t, kNumMemBusOps> op_cycle_counts{};
  };

  void start_next(BusState& bus, Cycle now);

  MemoryBusConfig config_;
  MainMemory& memory_;
  std::vector<BusState> buses_;
  /// Outstanding tracked completions. A plain vector: at most one fill
  /// per CE can be in flight, so the set stays tiny and a linear scan
  /// beats hashing (and never grows unboundedly the way a set fed by
  /// fire-and-forget traffic did).
  std::vector<TxnId> finished_;
  TxnId next_id_ = 1;
  /// True when the last tick left every bus idle with an empty queue:
  /// until the next submit, a tick can only book one idle cycle per bus.
  /// Those cycles accumulate here and are folded into op_cycles() on
  /// read, turning the (dominant) fully-idle tick into a single branch.
  bool quiescent_ = false;
  Cycle quiescent_ticks_ = 0;
  std::uint64_t completion_epoch_ = 0;
};

}  // namespace repro::mem
