#include "instr/reduction.hpp"

#include <sstream>

#include "base/expect.hpp"
#include "base/text.hpp"

namespace repro::instr {

void EventCounts::accumulate(const ProbeRecord& record, std::uint32_t n_ces,
                             std::uint32_t n_buses) {
  REPRO_EXPECT(n_ces >= 1 && n_ces <= kMaxTopologyCes,
               "CE count out of range");
  REPRO_EXPECT(n_buses >= 1 && n_buses <= mem::kMaxMemBuses,
               "bus count out of range");
  if (n_ces > width) {
    width = n_ces;
  }
  ++records;
  ce_bus_cycles += n_ces;
  const std::uint32_t active = record.active_count();
  REPRO_ENSURE(active <= n_ces, "more active processors than exist");
  ++num[active];
  for (CeId ce = 0; ce < n_ces; ++ce) {
    if (record.ce_active(ce)) {
      ++proc[ce];
    }
    ++ceop[static_cast<std::size_t>(record.ce_ops[ce])];
  }
  for (std::uint32_t bus = 0; bus < n_buses; ++bus) {
    ++membop[static_cast<std::size_t>(record.mem_ops[bus])];
  }
}

void EventCounts::merge(const EventCounts& other) {
  if (other.width > width) {
    width = other.width;
  }
  for (std::size_t j = 0; j < num.size(); ++j) {
    num[j] += other.num[j];
  }
  for (std::size_t j = 0; j < proc.size(); ++j) {
    proc[j] += other.proc[j];
  }
  for (std::size_t j = 0; j < ceop.size(); ++j) {
    ceop[j] += other.ceop[j];
  }
  for (std::size_t j = 0; j < membop.size(); ++j) {
    membop[j] += other.membop[j];
  }
  records += other.records;
  ce_bus_cycles += other.ce_bus_cycles;
}

double EventCounts::miss_rate() const {
  if (ce_bus_cycles == 0) {
    return 0.0;
  }
  const std::uint64_t misses =
      ceop[static_cast<std::size_t>(mem::CeBusOp::kReadMiss)] +
      ceop[static_cast<std::size_t>(mem::CeBusOp::kWriteMiss)];
  return static_cast<double>(misses) / static_cast<double>(ce_bus_cycles);
}

double EventCounts::bus_busy() const {
  if (ce_bus_cycles == 0) {
    return 0.0;
  }
  const std::uint64_t idle =
      ceop[static_cast<std::size_t>(mem::CeBusOp::kIdle)];
  return static_cast<double>(ce_bus_cycles - idle) /
         static_cast<double>(ce_bus_cycles);
}

double EventCounts::mem_bus_busy() const {
  std::uint64_t total = 0;
  for (const std::uint64_t count : membop) {
    total += count;
  }
  if (total == 0) {
    return 0.0;
  }
  const std::uint64_t idle =
      membop[static_cast<std::size_t>(mem::MemBusOp::kIdle)];
  return static_cast<double>(total - idle) / static_cast<double>(total);
}

std::string EventCounts::render() const {
  std::ostringstream os;
  os << "HARDWARE MEASUREMENT EVENT COUNTS (" << records << " records)\n";
  os << "  num_j  (records with j processors active):\n";
  for (std::size_t j = 0; j <= width; ++j) {
    os << "    j=" << j << "  " << with_commas(num[j]) << '\n';
  }
  os << "  proc_j (records with processor j active):\n";
  for (std::size_t j = 0; j < width; ++j) {
    os << "    CE" << j << "  " << with_commas(proc[j]) << '\n';
  }
  os << "  ceop_j (CE bus opcode cycles):\n";
  for (std::size_t j = 0; j < ceop.size(); ++j) {
    os << "    " << pad_right(std::string(name(static_cast<mem::CeBusOp>(j))),
                              11)
       << with_commas(ceop[j]) << '\n';
  }
  os << "  membop_j (memory bus opcode cycles):\n";
  for (std::size_t j = 0; j < membop.size(); ++j) {
    os << "    "
       << pad_right(std::string(name(static_cast<mem::MemBusOp>(j))), 11)
       << with_commas(membop[j]) << '\n';
  }
  return os.str();
}

void ProbeWindow::add(const ProbeRecord& record, std::uint32_t n_ces,
                      std::uint32_t n_buses) {
  counts.accumulate(record, n_ces, n_buses);
  const std::uint32_t active = record.active_count();
  if (active >= 2 && active < n_ces) {
    for (CeId ce = 0; ce < n_ces; ++ce) {
      if (record.ce_active(ce)) {
        ++transition_proc[ce];
      }
    }
  }
}

void ProbeWindow::add(const fx8::ProbeCounters& begin,
                      const fx8::ProbeCounters& end, std::uint32_t n_ces,
                      std::uint32_t n_buses) {
  REPRO_EXPECT(n_ces >= 1 && n_ces <= kMaxTopologyCes,
               "CE count out of range");
  REPRO_EXPECT(n_buses >= 1 && n_buses <= mem::kMaxMemBuses,
               "bus count out of range");
  REPRO_EXPECT(end.now >= begin.now, "counter snapshots out of order");
  const std::uint64_t cycles = end.now - begin.now;
  if (cycles == 0) {
    return;
  }
  if (n_ces > counts.width) {
    counts.width = n_ces;
  }
  counts.records += cycles;
  counts.ce_bus_cycles += cycles * n_ces;
  for (std::size_t j = 0; j <= n_ces; ++j) {
    counts.num[j] += end.active.by_count[j] - begin.active.by_count[j];
  }
  for (std::size_t ce = 0; ce < n_ces; ++ce) {
    counts.proc[ce] += end.active.per_ce[ce] - begin.active.per_ce[ce];
    transition_proc[ce] += end.active.per_ce_transition[ce] -
                           begin.active.per_ce_transition[ce];
  }
  // Parked lanes book no CE-bus cycles: idle is what the others leave.
  std::uint64_t busy = 0;
  for (std::size_t op = 0; op < mem::kNumCeBusOps; ++op) {
    if (op != static_cast<std::size_t>(mem::CeBusOp::kIdle)) {
      const std::uint64_t n = end.ce_op_cycles[op] - begin.ce_op_cycles[op];
      counts.ceop[op] += n;
      busy += n;
    }
  }
  REPRO_ENSURE(busy <= cycles * n_ces, "more busy CE-bus cycles than exist");
  counts.ceop[static_cast<std::size_t>(mem::CeBusOp::kIdle)] +=
      cycles * n_ces - busy;
  for (std::size_t op = 0; op < mem::kNumMemBusOps; ++op) {
    counts.membop[op] += end.mem_op_cycles[op] - begin.mem_op_cycles[op];
  }
}

EventCounts reduce(std::span<const ProbeRecord> records, std::uint32_t n_ces,
                   std::uint32_t n_buses) {
  EventCounts counts;
  for (const ProbeRecord& record : records) {
    counts.accumulate(record, n_ces, n_buses);
  }
  return counts;
}

}  // namespace repro::instr
