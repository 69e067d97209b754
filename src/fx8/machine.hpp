// Machine facade: the measured Alliant FX/8 (Figure 1).
//
// Wires main memory, the two memory buses, the shared CE cache, the
// cluster (CEs + crossbar + Concurrency Control Bus), and the Interactive
// Processors with their caches, and exposes the *probe surface* — the
// per-cycle signals the DAS 9100 was clipped onto (§3.3):
//   1. each CE's cache-bus opcode,
//   2. the memory-bus opcodes,
//   3. the Concurrency Control Bus activity state of every CE.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hpp"
#include "cache/ip_cache.hpp"
#include "cache/shared_cache.hpp"
#include "fx8/cluster.hpp"
#include "fx8/fabric.hpp"
#include "fx8/hot_state.hpp"
#include "fx8/lane_kernel.hpp"
#include "fx8/ip.hpp"
#include "fx8/mmu.hpp"
#include "mem/main_memory.hpp"
#include "mem/memory_bus.hpp"

namespace repro::fx8 {

/// True iff `n_clusters` clusters of `ces_per_cluster` CEs each is a
/// shape the machine can build: 1..8 clusters of 1..kMaxCes CEs (each
/// cluster one lane-kernel chunk), so at most kMaxTopologyCes CEs in all.
[[nodiscard]] constexpr bool shape_valid(std::uint32_t n_clusters,
                                         std::uint32_t ces_per_cluster) {
  return n_clusters >= 1 && n_clusters <= kMaxTopologyCes / kMaxCes &&
         ces_per_cluster >= 1 && ces_per_cluster <= kMaxCes;
}

/// The CCB active lines' record: how many cycles the machine spent at each
/// active count, and per CE how many it was active (overall and while
/// 2 <= active count < width, Figure 7's transition population).
struct ActiveLineCycles {
  std::array<std::uint64_t, kMaxTopologyCes + 1> by_count{};
  std::array<std::uint64_t, kMaxTopologyCes> per_ce{};
  std::array<std::uint64_t, kMaxTopologyCes> per_ce_transition{};

  /// Book `cycles` cycles on which the lines read `mask` on a machine
  /// `width` CEs wide.
  void book(LaneMask mask, Cycle cycles, std::uint32_t width);
};

/// Cumulative probe counters: what the DAS reduction counts
/// (instr/reduction.hpp), booked by the components as they advance
/// instead of latched cycle by cycle. Only the difference of two
/// snapshots taken at block ends means anything.
struct ProbeCounters {
  Cycle now = 0;
  /// CE-bus cycles per opcode over every CE. Parked lanes book nothing,
  /// so the kIdle slot undercounts (CeHot::op_cycles).
  std::array<std::uint64_t, mem::kNumCeBusOps> ce_op_cycles{};
  /// Memory-bus cycles per opcode over every bus.
  std::array<std::uint64_t, mem::kNumMemBusOps> mem_op_cycles{};
  ActiveLineCycles active;
};

struct MachineConfig {
  mem::MainMemoryConfig memory;
  mem::MemoryBusConfig membus;
  cache::SharedCacheConfig shared_cache;
  ClusterConfig cluster;
  IpConfig ip;
  std::uint32_t n_ips = 2;
  std::uint64_t seed = 0x1987;
  /// Identical clusters of cluster.n_ces CEs each, sharing the cache and
  /// the memory buses: the machine is n_clusters * cluster.n_ces CEs
  /// wide (docs/topology.md). The measured machine has one.
  std::uint32_t n_clusters = 1;

  /// The measured machine: 8 CEs, 2 IPs, 128 KB shared cache (the CSRD
  /// configuration of Figure 1).
  static MachineConfig fx8();
  /// Entry configuration: 1 CE, 1 IP (the FX/1 of Appendix C).
  static MachineConfig fx1();
  /// Width-scaling presets: 2/4/8 FX/8-style clusters sharing a banked
  /// cache through the cluster fabric, with cache capacity, interleave,
  /// and memory buses scaled alongside (docs/topology.md).
  static MachineConfig fx16();
  static MachineConfig fx32();
  static MachineConfig fx64();
};

class Machine {
 public:
  Machine(const MachineConfig& config, Mmu& mmu);

  /// Advance the whole machine one cycle.
  void tick() { tick_block(1); }
  /// Convenience: tick `cycles` times.
  void run(Cycle cycles);

  // --- Fused hot-tick kernel ------------------------------------------
  /// Advance up to `max_cycles` cycles through the machine's one cycle
  /// loop, stopping early at the end of the cycle that completes a
  /// cluster or detached job (a control event the OS layer reacts to).
  /// The loop works only on the clusters live at entry; idle ones have
  /// nothing to advance. Inside the loop a CE steps only when its quiet
  /// horizon runs out (fx8/lane_kernel.hpp), a stretch of two or more
  /// cycles in which nothing is due is jumped in one go (quiet_horizon();
  /// never on the naive lane_pass_reference), and every live lane catches
  /// up before the call returns.
  /// With `stop_on_active_count`, the block also stops at the end of a
  /// cycle whose CCB active count changed (a triggered capture's watch).
  /// Returns the number of cycles actually advanced (>= 1 when
  /// max_cycles >= 1). Bit-identical to calling tick() that many times;
  /// the caller must guarantee no OS/workload action is due during the
  /// block, exactly as SessionController does.
  Cycle tick_block(Cycle max_cycles, bool stop_on_active_count = false);

  // --- Event-horizon fast-forward -------------------------------------
  /// Minimum quiet horizon across the CE lanes (CeHot::due), the IPs and
  /// the memory buses, 0 while a fill is ready or any live cluster's
  /// control would act: the machine's externally visible behaviour is a
  /// pure repeat for this many cycles (docs/parallel_execution.md). Valid
  /// on every cycle, inside a block too: the lanes' due cycles are exact
  /// even while their countdowns lag.
  [[nodiscard]] Cycle quiet_horizon() const;
  /// Jumps tick_block has taken, and the cycles they covered, since the
  /// machine was built (bookkeeping, not state: the capsule walk leaves
  /// them out).
  [[nodiscard]] std::uint64_t jumps() const { return jumps_; }
  [[nodiscard]] Cycle jumped_cycles() const { return jumped_cycles_; }

  [[nodiscard]] Cycle now() const { return now_; }

  /// Cluster 0 — the whole machine on every width-<=8 configuration.
  /// Single-cluster call sites keep using this accessor unchanged.
  [[nodiscard]] Cluster& cluster() { return *clusters_[0]; }
  [[nodiscard]] const Cluster& cluster() const { return *clusters_[0]; }
  [[nodiscard]] Cluster& cluster(std::uint32_t i) { return *clusters_[i]; }
  [[nodiscard]] const Cluster& cluster(std::uint32_t i) const {
    return *clusters_[i];
  }
  [[nodiscard]] std::uint32_t n_clusters() const {
    return static_cast<std::uint32_t>(clusters_.size());
  }
  /// Total CE count across clusters (the machine width N).
  [[nodiscard]] std::uint32_t total_ces() const {
    return config_.n_clusters * config_.cluster.n_ces;
  }
  /// Second-level bank arbiter; nullptr on single-cluster machines.
  [[nodiscard]] ClusterFabric* fabric() { return fabric_.get(); }
  [[nodiscard]] const ClusterFabric* fabric() const { return fabric_.get(); }
  [[nodiscard]] cache::SharedCache& shared_cache() { return *shared_cache_; }
  [[nodiscard]] const cache::SharedCache& shared_cache() const {
    return *shared_cache_;
  }
  [[nodiscard]] mem::MemoryBus& membus() { return *membus_; }
  [[nodiscard]] mem::MainMemory& memory() { return *memory_; }
  [[nodiscard]] std::vector<Ip>& ips() { return ips_; }
  /// Cache of IP `ip` (indexed like ips()).
  [[nodiscard]] cache::IpCache& ip_cache(std::uint32_t ip) {
    return *ip_caches_[ip];
  }
  [[nodiscard]] const MachineConfig& config() const { return config_; }

  // --- Probe surface -------------------------------------------------
  /// `ce` is the machine-global id — also its index in the machine's
  /// CE lanes, so the probe reads the latched opcode straight out of the
  /// lane array.
  [[nodiscard]] mem::CeBusOp ce_bus_op(CeId ce) const {
    return lanes_.bus_op[ce];
  }
  [[nodiscard]] mem::MemBusOp mem_bus_op(std::uint32_t bus) const {
    return membus_->op_on(bus);
  }
  /// Memory-bus count.
  [[nodiscard]] std::uint32_t mem_bus_count() const {
    return membus_->config().bus_count;
  }
  /// The probe's counters up to now(): exact between blocks, when every
  /// live lane has caught up.
  [[nodiscard]] ProbeCounters probe_counters() const;
  /// CCB probe: bitmask of concurrent/serial-active CEs over global ids
  /// (each cluster's local mask shifted to its ce_base).
  [[nodiscard]] LaneMask active_mask() const {
    LaneMask mask = 0;
    for (const auto& cluster : clusters_) {
      // A cluster with no job and no live detached slot contributes no
      // active lines — skip its worker/detached scan.
      if (cluster->lanes_live()) {
        mask |= static_cast<LaneMask>(cluster->active_mask())
                << cluster->ce_base();
      }
    }
    return mask;
  }

  /// Capsule walk over the full machine: the clock and the control-event
  /// counter first (each walked once; the clusters read both, and a
  /// cluster's load resyncs its lanes to the clock), then memory, buses,
  /// caches, the clusters with the programs they run, the fabric and the
  /// IPs.
  void serialize(capsule::Io& io);

  /// How tick_block selects the lanes to step each cycle
  /// (select_lane_pass(), the lane horizons, by default). Exposed so
  /// differential tests can pin lane_pass_reference, the naive oracle.
  void set_lane_pass(LanePassFn pass) { lane_pass_ = pass; }

 private:
  /// Re-read the CCB active lines; if they moved, book the cycles the
  /// old lines held. Returns true if the active count changed.
  bool rebook_active_lines();

  MachineConfig config_;
  std::unique_ptr<mem::MainMemory> memory_;
  std::unique_ptr<mem::MemoryBus> membus_;
  std::unique_ptr<cache::SharedCache> shared_cache_;
  /// Second-level bank arbiter; only constructed for n_clusters > 1 so
  /// the single-cluster machine is byte-for-byte the pre-topology path.
  std::unique_ptr<ClusterFabric> fabric_;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  /// Lane selection used by tick_block.
  LanePassFn lane_pass_;
  std::vector<std::unique_ptr<cache::IpCache>> ip_caches_;
  std::vector<Ip> ips_;
  /// Every cluster's CE lanes in one cluster-major block (lane index =
  /// global CE id = ce_base + local lane), so one due-lane scan covers
  /// the whole machine.
  CeHot lanes_;
  /// Monotone count of cluster control events (job / detached-job
  /// completions), which every cluster bumps: everything the OS layer
  /// can react to. tick_block stops at the end of the cycle that bumps
  /// it, so the scheduler's next tick runs naively, exactly as lockstep
  /// ticking would.
  std::uint64_t control_events_ = 0;
  /// The one clock: every cluster reads it by reference.
  Cycle now_ = 0;
  /// The CCB active lines as last re-read, the cycle from which they have
  /// read so, and what the cycles before it booked. tick_block re-reads
  /// the lines after the control pass of a cycle that moved
  /// CeHot::active_changes (the count it last saw). Bookkeeping, not
  /// state: a capsule load re-reads the lines at the loaded clock.
  LaneMask active_lines_ = 0;
  Cycle active_since_ = 0;
  ActiveLineCycles active_booked_;
  std::uint64_t active_changes_seen_ = 0;
  std::uint64_t jumps_ = 0;
  Cycle jumped_cycles_ = 0;
};

}  // namespace repro::fx8
