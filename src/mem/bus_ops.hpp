// Bus opcode vocabularies observed by the logic-analyzer probes.
//
// The DAS 9100 probes in the study watched (1) each CE's bus to the shared
// cache, (2) the shared memory bus, and (3) the Concurrency Control Bus
// (paper §3.3). These enums are the signal alphabet those probes see; the
// instrumentation layer reduces per-cycle opcode streams to the event
// counts of Table 1 (ceop_j, membop_j).
#pragma once

#include <cstdint>
#include <string_view>

namespace repro::mem {

/// Opcode on a CE <-> shared-cache bus for one cycle.
enum class CeBusOp : std::uint8_t {
  kIdle = 0,       ///< No transaction (compute, idle, or sync wait).
  kRead,           ///< Data read that hits in the shared cache.
  kWrite,          ///< Data write that hits (cache owns a unique copy).
  kReadMiss,       ///< Data read whose lookup missed; fill in flight.
  kWriteMiss,      ///< Data write whose lookup missed (ownership fetch).
  kInstrFetch,     ///< Instruction fetch spilling from the CE icache.
  kWait,           ///< Bus held while an outstanding miss completes.
};
inline constexpr std::size_t kNumCeBusOps = 7;

/// Opcode on one of the two cache <-> memory buses for one cycle.
enum class MemBusOp : std::uint8_t {
  kIdle = 0,       ///< Bus idle.
  kLineFetch,      ///< Cache-line fill from main memory.
  kWriteBack,      ///< Dirty-line write back to main memory.
  kIpTraffic,      ///< IP-cache traffic (interactive / OS / I/O work).
  kInvalidate,     ///< Coherence: revoking a copy so a writer gets a
                   ///< "unique" copy (Appendix C coherence rule).
};
inline constexpr std::size_t kNumMemBusOps = 5;

/// Hard cap on modelled memory buses (the FX/8 has two, the FX/1 one,
/// the wide presets four). The probe's memory-bus channels are a fixed
/// array of this size (instr/signals.hpp).
inline constexpr std::uint32_t kMaxMemBuses = 4;

[[nodiscard]] std::string_view name(CeBusOp op);
[[nodiscard]] std::string_view name(MemBusOp op);

/// True for CE bus opcodes that correspond to a cache miss. The paper's
/// Missrate is "the fraction of total bus cycles corresponding to cache
/// misses" (§5).
[[nodiscard]] constexpr bool is_miss(CeBusOp op) {
  return op == CeBusOp::kReadMiss || op == CeBusOp::kWriteMiss;
}

/// True for CE bus opcodes that occupy the bus. CE Bus Busy is "the
/// fraction of processor-to-cache bus cycles that are not idle" (§5).
[[nodiscard]] constexpr bool is_busy(CeBusOp op) {
  return op != CeBusOp::kIdle;
}

}  // namespace repro::mem
