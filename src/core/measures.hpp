// The paper's concurrency measures (§4.1).
//
//   c_j      = P(number of active processors = j)                    (4.1)
//   Cw       = Σ_{j=2..P} c_j          — Workload Concurrency        (4.2)
//   c_{j|c}  = P(active = j | active > 1)                            (4.3)
//   Pc       = Σ_{j=2..P} j · c_{j|c}  — Mean Concurrency Level      (4.4)
//
// "The above measures may be applied at any level of multiprocessing
// capability of a given machine" — they are computed from nothing but the
// active-processor histogram (num_j of Table 1), at whatever scope that
// histogram was collected (sample, session, or the whole study).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "base/capsule.hpp"
#include "base/types.hpp"

namespace repro::core {

struct ConcurrencyMeasures {
  /// Machine width P the measures were computed against (total CEs
  /// across clusters on wide topologies).
  std::uint32_t width = kMaxCes;

  /// c_j for j = 0..P (entries above `width` are zero).
  std::array<double, kMaxTopologyCes + 1> c{};

  /// Workload Concurrency, eq. 4.2.
  double cw = 0.0;

  /// c_{j|c} for j = 2..P; undefined (all zero) when cw == 0.
  std::array<double, kMaxTopologyCes + 1> c_cond{};

  /// Mean Concurrency Level, eq. 4.4; only meaningful if pc_defined.
  double pc = 0.0;
  /// "If all c_j values from 2 to P are 0, this value is undefined."
  bool pc_defined = false;

  /// Compute from an active-processor histogram: counts[j] = number of
  /// records with j processors active, j = 0..width.
  static ConcurrencyMeasures from_counts(
      std::span<const std::uint64_t> counts);

  /// One-line summary for reports.
  [[nodiscard]] std::string describe() const;

  /// Capsule walk: derived measures travel whole inside cached results
  /// (src/artifacts/result_store.hpp) rather than being refit on load. A
  /// loaded width past the widest topology throws, since renders read
  /// c and c_cond up to it.
  void serialize(capsule::Io& io) {
    io.u32_in(width, 1, kMaxTopologyCes);
    for (double& v : c) {
      io.f64(v);
    }
    io.f64(cw);
    for (double& v : c_cond) {
      io.f64(v);
    }
    io.f64(pc);
    io.boolean(pc_defined);
  }
};

}  // namespace repro::core
