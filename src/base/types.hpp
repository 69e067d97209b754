// Core scalar types shared by every module of the FX/8 reproduction.
#pragma once

#include <cstdint>
#include <cstddef>

namespace repro {

/// Machine cycle count. The whole simulator is cycle-stepped; one Cycle is
/// one tick of the (shared) cluster clock.
using Cycle = std::uint64_t;

/// Virtual or physical byte address inside the simulated machine.
using Addr = std::uint64_t;

/// Identifier of a Computational Element within the cluster, 0..7.
using CeId = std::uint32_t;

/// Identifier of an Interactive Processor, 0-based.
using IpId = std::uint32_t;

/// Identifier of a simulated process/job.
using JobId = std::uint64_t;

/// Maximum width of one cluster — eight Computational Elements, the
/// FX/8's complex. This is also the chunk width of the wide lane kernel
/// (fx8/lane_kernel.hpp): machines wider than this are built as several
/// clusters and advanced in 8-lane passes.
inline constexpr std::uint32_t kMaxCes = 8;

/// Maximum machine-wide CE count across all clusters (fx8::shape_valid):
/// kMaxCes lanes in each of up to eight clusters.
inline constexpr std::uint32_t kMaxTopologyCes = 64;

/// Machine-wide per-CE bitmask (bit = global CE id). Wide enough for the
/// largest supported topology; within one cluster the low kMaxCes bits
/// are used.
using LaneMask = std::uint64_t;

/// Page size of Concentrix on the FX/8 (Appendix C: 4 Kbyte pages).
inline constexpr std::uint64_t kPageBytes = 4096;

/// Cache line size used by the shared CE cache model.
inline constexpr std::uint64_t kLineBytes = 32;

/// Horizon sentinel for the event-horizon fast-forward: a component whose
/// state can never change without external input reports this from its
/// quiet_horizon() (docs/parallel_execution.md).
inline constexpr Cycle kHorizonNever = ~static_cast<Cycle>(0);

}  // namespace repro
