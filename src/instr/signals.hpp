// Probe signals: what the logic analyzer latches each sample clock.
//
// "Probes from the DAS were connected to the FX/8 at three different
// logical points": each CE's cache-bus opcode, the shared memory bus
// opcode, and the Concurrency Control Bus activity state (§3.3). One
// ProbeRecord is one latched sample of all channels.
#pragma once

#include <array>
#include <cstdint>

#include "base/capsule.hpp"
#include "base/types.hpp"
#include "fx8/machine.hpp"
#include "mem/bus_ops.hpp"

namespace repro::instr {

/// The DAS 9100 used in the study acquires up to 80 signals (§3.3).
inline constexpr std::uint32_t kAnalyzerChannels = 80;

/// One latched sample of every probe channel. Sized for the widest
/// topology (kMaxTopologyCes CEs, kMaxMemBuses memory buses); a run at
/// the machine's actual width only fills — and only renders/reduces —
/// the first total_ces() / bus_count lanes.
struct ProbeRecord {
  Cycle cycle = 0;
  std::array<mem::CeBusOp, kMaxTopologyCes> ce_ops{};
  std::array<mem::MemBusOp, mem::kMaxMemBuses> mem_ops{};
  /// CCB probe: bit j set when global CE j is active.
  LaneMask active_mask = 0;

  [[nodiscard]] std::uint32_t active_count() const;
  [[nodiscard]] bool ce_active(CeId ce) const {
    return (active_mask >> ce) & 1u;
  }

  /// Capsule walk: every latched channel.
  void serialize(capsule::Io& io) {
    io.u64(cycle);
    for (mem::CeBusOp& op : ce_ops) {
      io.enum32(op, mem::CeBusOp::kWait);
    }
    for (mem::MemBusOp& op : mem_ops) {
      io.enum32(op, mem::MemBusOp::kInvalidate);
    }
    io.u64(active_mask);
  }
};

/// Latch the probe channels off the machine for the current cycle.
[[nodiscard]] ProbeRecord latch(const fx8::Machine& machine);

/// Channels consumed by the probe set (3 bits per CE bus opcode, 3 per
/// memory bus, 1 per CCB activity line) — must fit the instrument. The
/// FX/8 probe set fits one DAS 9100; wider topologies model ganged
/// analyzers, one 80-channel mainframe per cluster (docs/topology.md),
/// so the per-cluster channel budget is the bound that must hold.
[[nodiscard]] constexpr std::uint32_t channels_used(std::uint32_t n_ces,
                                                    std::uint32_t n_buses) {
  return n_ces * 3 + n_buses * 3 + n_ces;
}
static_assert(channels_used(kMaxCes, 2) <= kAnalyzerChannels,
              "probe set exceeds the DAS 9100 channel count");

}  // namespace repro::instr
