#include "mem/memory_bus.hpp"

#include <algorithm>

#include "base/expect.hpp"

namespace repro::mem {

MemoryBus::MemoryBus(const MemoryBusConfig& config, MainMemory& memory)
    : config_(config), memory_(memory), buses_(config.bus_count) {
  REPRO_EXPECT(config.bus_count > 0, "need at least one memory bus");
  REPRO_EXPECT(config.bus_count <= kMaxMemBuses,
               "bus count exceeds the probe's memory-bus channels");
  REPRO_EXPECT(config.transfer_cycles > 0, "transfer time must be positive");
  REPRO_EXPECT(config.invalidate_cycles > 0,
               "invalidate time must be positive");
}

TxnId MemoryBus::submit(std::uint32_t bus, MemBusOp op, Addr addr) {
  REPRO_EXPECT(bus < buses_.size(), "bus index out of range");
  REPRO_EXPECT(op != MemBusOp::kIdle, "cannot submit an idle transaction");
  const TxnId id = next_id_++;
  buses_[bus].queue.push_back(PendingTxn{id, op, addr});
  quiescent_ = false;
  return id;
}

void MemoryBus::submit_untracked(std::uint32_t bus, MemBusOp op, Addr addr) {
  REPRO_EXPECT(bus < buses_.size(), "bus index out of range");
  REPRO_EXPECT(op != MemBusOp::kIdle, "cannot submit an idle transaction");
  buses_[bus].queue.push_back(PendingTxn{0, op, addr});
  quiescent_ = false;
}

void MemoryBus::start_next(BusState& bus, Cycle now) {
  if (bus.queue.empty()) {
    return;
  }
  const PendingTxn& head = bus.queue.front();
  if (head.op == MemBusOp::kInvalidate) {
    bus.active = head;
    bus.remaining = config_.invalidate_cycles;
    bus.queue.pop_front();
    return;
  }
  // Memory-touching transaction: only start when the bank can serve it.
  if (memory_.earliest_start(head.addr, now) > now) {
    return;  // Bank conflict: bus idles this cycle.
  }
  memory_.begin_access(head.addr, now);
  bus.active = head;
  bus.remaining = config_.transfer_cycles;
  bus.queue.pop_front();
}

void MemoryBus::tick(Cycle now) {
  if (quiescent_) {
    // Every bus latched kIdle last tick with an empty queue; nothing can
    // change until the next submit. Book one idle cycle per bus (lazily,
    // see op_cycles()) and keep the latched opcodes as they are.
    ++quiescent_ticks_;
    return;
  }
  bool all_idle = true;
  for (BusState& bus : buses_) {
    if (bus.remaining == 0 && !bus.queue.empty()) {
      start_next(bus, now);
    }
    if (bus.remaining > 0) {
      bus.current_op = bus.active.op;
      --bus.remaining;
      if (bus.remaining == 0 && bus.active.id != 0) {
        finished_.push_back(bus.active.id);
        ++completion_epoch_;
      }
      all_idle = false;
    } else {
      bus.current_op = MemBusOp::kIdle;
      if (!bus.queue.empty()) {
        all_idle = false;  // Bank-blocked head can start without a submit.
      }
    }
    ++bus.op_cycle_counts[static_cast<std::size_t>(bus.current_op)];
  }
  quiescent_ = all_idle;
}

Cycle MemoryBus::quiet_horizon(Cycle now) const {
  Cycle horizon = kHorizonNever;
  for (const BusState& bus : buses_) {
    if (bus.remaining > 0) {
      // Counting down an active transaction is a pure repeat of the same
      // opcode; the tick that completes it (recording the completion and
      // starting the next queued txn) must run naively.
      horizon = std::min<Cycle>(horizon, bus.remaining - 1);
    } else if (!bus.queue.empty()) {
      const PendingTxn& head = bus.queue.front();
      if (head.op == MemBusOp::kInvalidate) {
        return 0;  // Starts unconditionally on the next tick.
      }
      // Head is blocked on its memory bank: the bus idles until the
      // bank frees, and the tick that can start it must run naively.
      const Cycle start = memory_.earliest_start(head.addr, now);
      if (start <= now) {
        return 0;
      }
      horizon = std::min(horizon, start - now);
    }
    if (horizon == 0) {
      return 0;
    }
  }
  return horizon;
}

void MemoryBus::skip(Cycle cycles) {
  for (BusState& bus : buses_) {
    if (bus.remaining > 0) {
      REPRO_EXPECT(cycles < bus.remaining,
                   "memory bus skip past a transaction completion");
      bus.current_op = bus.active.op;
      bus.remaining -= static_cast<std::uint32_t>(cycles);
      bus.op_cycle_counts[static_cast<std::size_t>(bus.active.op)] += cycles;
    } else {
      bus.current_op = MemBusOp::kIdle;
      bus.op_cycle_counts[static_cast<std::size_t>(MemBusOp::kIdle)] +=
          cycles;
    }
  }
}

bool MemoryBus::take_finished(TxnId id) {
  const auto it = std::find(finished_.begin(), finished_.end(), id);
  if (it == finished_.end()) {
    return false;
  }
  *it = finished_.back();
  finished_.pop_back();
  return true;
}

MemBusOp MemoryBus::op_on(std::uint32_t bus) const {
  REPRO_EXPECT(bus < buses_.size(), "bus index out of range");
  return buses_[bus].current_op;
}

std::size_t MemoryBus::queue_depth(std::uint32_t bus) const {
  REPRO_EXPECT(bus < buses_.size(), "bus index out of range");
  return buses_[bus].queue.size();
}

std::size_t MemoryBus::queue_capacity(std::uint32_t bus) const {
  REPRO_EXPECT(bus < buses_.size(), "bus index out of range");
  return buses_[bus].queue.items.capacity();
}

void MemoryBus::serialize(capsule::Io& io) {
  const auto txn = [&io](PendingTxn& t) {
    io.u64(t.id);
    io.enum32(t.op, MemBusOp::kInvalidate);
    io.u64(t.addr);
  };
  for (std::uint32_t b = 0; b < buses_.size(); ++b) {
    BusState& bus = buses_[b];
    const std::uint64_t depth = io.extent(bus.queue.size());
    if (io.loading()) {
      bus.queue.items.assign(static_cast<std::size_t>(depth), PendingTxn{});
      bus.queue.head = 0;
    }
    for (std::size_t i = bus.queue.head; i < bus.queue.items.size(); ++i) {
      txn(bus.queue.items[i]);
    }
    txn(bus.active);
    for (std::size_t op = 0; op < kNumMemBusOps; ++op) {
      // Idle cycles travel folded: a ticked idle stretch books them into
      // quiescent_ticks_, a skipped one into the counter, and the two
      // must walk (and digest) alike.
      std::uint64_t count = op_cycles(b, static_cast<MemBusOp>(op));
      io.u64(count);
      if (io.loading()) {
        bus.op_cycle_counts[op] = count;
      }
    }
    io.u32(bus.remaining);
    io.enum32(bus.current_op, MemBusOp::kInvalidate);
  }
  const std::uint64_t finished = io.extent(finished_.size());
  if (io.loading()) {
    finished_.assign(static_cast<std::size_t>(finished), 0);
  }
  for (TxnId& id : finished_) {
    io.u64(id);
  }
  io.u64(next_id_);
  io.u64(completion_epoch_);
  if (io.loading()) {
    // The quiescent fold is a memo, not state: the loaded counters
    // already hold its cycles, and the next tick re-derives the flag.
    quiescent_ = false;
    quiescent_ticks_ = 0;
  }
}

std::uint64_t MemoryBus::op_cycles(std::uint32_t bus, MemBusOp op) const {
  if (op == MemBusOp::kIdle) {
    REPRO_EXPECT(bus < buses_.size(), "bus index out of range");
    return buses_[bus].op_cycle_counts[static_cast<std::size_t>(op)] +
           quiescent_ticks_;
  }
  REPRO_EXPECT(bus < buses_.size(), "bus index out of range");
  return buses_[bus].op_cycle_counts[static_cast<std::size_t>(op)];
}

}  // namespace repro::mem
