// Event-count reduction: Table 1 of the paper.
//
// "The programs ... reduce the acquired data to appropriate event counts":
//   num_j    — number of records with j processors active,
//   proc_j   — number of records with processor j active,
//   ceop_j   — number of records with CE bus opcode = j,
//   membop_j — number of records with memory bus opcode = j.
// The derived system measures of §5 come straight from these counts:
// Missrate (miss cycles / total CE bus cycles), CE Bus Busy (non-idle CE
// bus cycles / total CE bus cycles).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/types.hpp"
#include "instr/signals.hpp"
#include "mem/bus_ops.hpp"

namespace repro::instr {

struct EventCounts {
  /// num_j: records with exactly j processors active, j = 0..width.
  /// Sized for the widest topology; rows past `width` stay zero and are
  /// neither rendered nor reported.
  std::array<std::uint64_t, kMaxTopologyCes + 1> num{};
  /// proc_j: records in which processor j was active.
  std::array<std::uint64_t, kMaxTopologyCes> proc{};
  /// ceop_j: CE-bus opcode occurrences, summed over all CE buses.
  std::array<std::uint64_t, mem::kNumCeBusOps> ceop{};
  /// membop_j: memory-bus opcode occurrences, summed over all buses.
  std::array<std::uint64_t, mem::kNumMemBusOps> membop{};

  std::uint64_t records = 0;
  /// CE bus cycles observed = records * number of CE buses probed.
  std::uint64_t ce_bus_cycles = 0;
  /// Widest machine these counts were reduced from: bounds the num/proc
  /// rows render() emits. Never shrinks below the FX/8's 8 lanes, so
  /// every width-<=8 rendering is unchanged from the pre-topology text.
  std::uint32_t width = kMaxCes;

  void accumulate(const ProbeRecord& record, std::uint32_t n_ces = kMaxCes,
                  std::uint32_t n_buses = 2);
  void merge(const EventCounts& other);

  bool operator==(const EventCounts&) const = default;

  /// Missrate: fraction of CE bus cycles that are cache misses (§5).
  [[nodiscard]] double miss_rate() const;
  /// CE Bus Busy: fraction of CE bus cycles that are not idle, averaged
  /// over all buses (§5).
  [[nodiscard]] double bus_busy() const;
  /// Fraction of memory-bus cycles that are not idle.
  [[nodiscard]] double mem_bus_busy() const;

  /// Table-1-style rendering.
  [[nodiscard]] std::string render() const;

  /// Capsule walk: every reduced count. A loaded width past the widest
  /// topology throws, since render() reads num/proc up to it.
  void serialize(capsule::Io& io) {
    for (std::uint64_t& n : num) {
      io.u64(n);
    }
    for (std::uint64_t& n : proc) {
      io.u64(n);
    }
    for (std::uint64_t& n : ceop) {
      io.u64(n);
    }
    for (std::uint64_t& n : membop) {
      io.u64(n);
    }
    io.u64(records);
    io.u64(ce_bus_cycles);
    io.u32_in(width, 1, kMaxTopologyCes);
  }
};

/// One acquisition reduced: Table 1's counts plus, per CE, the records in
/// which it was active while 2..width-1 CEs were (Figure 7's transition
/// population). The session controller counts a window off the machine's
/// probe counters; a latched record adds the same way a counted cycle
/// does, so a window of latched records is its per-cycle reference.
struct ProbeWindow {
  EventCounts counts;
  std::array<std::uint64_t, kMaxTopologyCes> transition_proc{};

  /// Add one latched record of a machine `n_ces` CEs wide.
  void add(const ProbeRecord& record, std::uint32_t n_ces,
           std::uint32_t n_buses);
  /// Add every cycle between two probe-counter snapshots of a machine
  /// `n_ces` CEs wide, `begin` taken first.
  void add(const fx8::ProbeCounters& begin, const fx8::ProbeCounters& end,
           std::uint32_t n_ces, std::uint32_t n_buses);

  bool operator==(const ProbeWindow&) const = default;
};

/// Reduce a transferred acquisition buffer.
[[nodiscard]] EventCounts reduce(std::span<const ProbeRecord> records,
                                 std::uint32_t n_ces = kMaxCes,
                                 std::uint32_t n_buses = 2);

}  // namespace repro::instr
