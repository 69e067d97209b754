// Machine topology as a first-class runtime parameter.
//
// The measured machine is one 8-CE cluster, but the measurement pipeline
// is width-agnostic (§4.1: the measures "may be applied at any level of
// multiprocessing capability"). TopologyConfig names the knobs that grow
// the machine past the FX/8 — total CE count, cluster count, and
// overrides for the cache-bank and memory-bus fan-out — and
// resolve_topology() turns them into the shape Machine actually builds:
// n_clusters identical clusters of total/n_clusters CEs each, every
// cluster at most kMaxCes wide (the lane kernel's chunk width), sharing
// the banked cache and the memory buses through a second-level
// crossbar-of-crossbars (fx8/fabric.hpp). See docs/topology.md.
#pragma once

#include <cstdint>

#include "base/expect.hpp"
#include "base/types.hpp"
#include "mem/bus_ops.hpp"

namespace repro::fx8 {

/// Topology knobs carried by MachineConfig. Zero means "inherit the
/// legacy single-cluster field" so every existing FX/1..FX/8 config —
/// which sets cluster.n_ces directly — keeps its exact meaning.
struct TopologyConfig {
  /// Total CE count across all clusters; 0 = n_clusters * cluster.n_ces.
  std::uint32_t n_ces = 0;
  /// Number of identical clusters sharing the cache and memory buses.
  std::uint32_t n_clusters = 1;
  /// Shared-cache bank override; 0 = shared_cache.banks.
  std::uint32_t cache_banks = 0;
  /// Memory-bus count override; 0 = membus.bus_count.
  std::uint32_t mem_buses = 0;
};

/// The shape resolve_topology() derives for Machine to build.
struct ResolvedTopology {
  std::uint32_t n_clusters = 1;
  std::uint32_t ces_per_cluster = kMaxCes;
  std::uint32_t total_ces = kMaxCes;
};

/// True iff the topology names a machine the lane kernel can chunk:
/// clusters of equal width 1..kMaxCes, at most kMaxTopologyCes CEs
/// total (the LaneMask capacity), and sane fan-out overrides.
[[nodiscard]] constexpr bool topology_valid(const TopologyConfig& t,
                                            std::uint32_t fallback_ces) {
  if (t.n_clusters < 1 || t.n_clusters > kMaxTopologyCes / kMaxCes) {
    return false;
  }
  const std::uint32_t total =
      t.n_ces != 0 ? t.n_ces : t.n_clusters * fallback_ces;
  if (total < 1 || total > kMaxTopologyCes) {
    return false;
  }
  if (total % t.n_clusters != 0) {
    return false;  // Clusters must be identical 8-lane-chunkable blocks.
  }
  const std::uint32_t per = total / t.n_clusters;
  if (per < 1 || per > kMaxCes) {
    return false;
  }
  if (t.cache_banks > 64) {
    return false;  // Crossbar grant masks are one 64-bit word.
  }
  return t.mem_buses <= mem::kMaxMemBuses;
}

/// Resolve (and validate) the topology against the per-cluster fallback
/// width (ClusterConfig::n_ces). Aborts on an invalid combination — CLI
/// front-ends validate with topology_valid() first and reject politely.
[[nodiscard]] inline ResolvedTopology resolve_topology(
    const TopologyConfig& t, std::uint32_t fallback_ces) {
  REPRO_EXPECT(topology_valid(t, fallback_ces),
               "invalid machine topology (clusters must be identical, "
               "1..8 CEs each, <= 64 CEs total)");
  ResolvedTopology r;
  r.n_clusters = t.n_clusters;
  r.total_ces = t.n_ces != 0 ? t.n_ces : t.n_clusters * fallback_ces;
  r.ces_per_cluster = r.total_ces / r.n_clusters;
  return r;
}

}  // namespace repro::fx8
