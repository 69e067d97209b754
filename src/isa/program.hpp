// Programs: what a job executes on the cluster.
//
// A Program alternates serial phases (one CE interprets a kernel) and
// concurrent DO-loop phases (iterations self-scheduled across the cluster
// over the Concurrency Control Bus), mirroring how the Alliant FORTRAN
// compiler emits code (paper §3.2, Figure 2).
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "base/types.hpp"
#include "isa/kernel.hpp"

namespace repro::isa {

/// Serial section of a program: `reps` executions of `body` on one CE.
struct SerialPhase {
  KernelSpec body;
  std::uint64_t reps = 1;

  void serialize(capsule::Io& io) {
    body.serialize(io);
    io.u64(reps);
  }
};

/// A compiler-parallelized DO loop.
struct ConcurrentLoopPhase {
  /// Total iterations of the loop.
  std::uint64_t trip_count = 8;

  /// Work per iteration.
  KernelSpec body;

  /// Iterations walk one shared region: iteration i's accesses start at
  /// data_base + i*stride*loads, so adjacent iterations on different CEs
  /// share cache lines (paper §5.1: "data and instruction locality across
  /// processors lessens the overall impact on the cache").
  bool shared_data = true;

  /// Probability an iteration takes a longer conditional path (paper §4.3:
  /// iteration-dependent branching makes processors lead/lag one another).
  double long_path_prob = 0.0;
  /// Extra steps executed on the long path.
  std::uint32_t long_path_extra_steps = 0;

  /// Fraction of iterations carrying a dependence on their predecessor;
  /// such iterations must await the predecessor's cadvance over the CCB.
  double dependence_prob = 0.0;

  /// Cycles consumed per synchronization wait poll (CCB traffic only; the
  /// paper notes sync waits generate no cache/memory bus traffic, §5.1).
  std::uint32_t await_poll_cycles = 4;

  void serialize(capsule::Io& io) {
    io.u64(trip_count);
    body.serialize(io);
    io.boolean(shared_data);
    io.f64(long_path_prob);
    io.u32(long_path_extra_steps);
    io.f64(dependence_prob);
    io.u32(await_poll_cycles);
  }
};

using Phase = std::variant<SerialPhase, ConcurrentLoopPhase>;

/// One schedulable unit of work.
struct Program {
  std::string name = "program";
  std::vector<Phase> phases;

  /// Base virtual address of the program's data region. Each program gets
  /// a disjoint region so jobs do not share cache lines with one another.
  Addr data_base = 0;

  /// Deterministic per-program seed used for iteration-level randomness
  /// (jitter, conditional paths, hot/cold selection).
  std::uint64_t seed = 1;

  void validate() const;

  /// Total trip count across all concurrent phases (for tests/diagnostics).
  [[nodiscard]] std::uint64_t total_concurrent_iterations() const;

  /// True if any phase is a concurrent loop.
  [[nodiscard]] bool has_concurrency() const;

  /// Capsule walk: phase list (with variant discriminants) and scalars.
  /// A load validates the program (capsule::CapsuleError if invalid).
  void serialize(capsule::Io& io) {
    io.str(name);
    const std::uint64_t count = io.extent(phases.size());
    if (io.loading()) {
      phases.assign(static_cast<std::size_t>(count), SerialPhase{});
    }
    for (Phase& phase : phases) {
      std::uint8_t which =
          std::holds_alternative<ConcurrentLoopPhase>(phase) ? 1 : 0;
      io.u8(which);
      if (io.loading()) {
        if (which > 1) {
          throw capsule::CapsuleError("capsule: bad program phase tag");
        }
        if (which == 1) {
          phase = ConcurrentLoopPhase{};
        }
      }
      std::visit([&io](auto& p) { p.serialize(io); }, phase);
    }
    io.u64(data_base);
    io.u64(seed);
    if (io.loading()) {
      capsule::check_loaded(*this);
    }
  }
};

/// Convenience builder for the common serial/loop/serial... shape.
class ProgramBuilder {
 public:
  explicit ProgramBuilder(std::string name);

  ProgramBuilder& seed(std::uint64_t s);
  ProgramBuilder& data_base(Addr base);
  ProgramBuilder& serial(KernelSpec body, std::uint64_t reps = 1);
  ProgramBuilder& concurrent_loop(ConcurrentLoopPhase loop);

  [[nodiscard]] Program build() const;

 private:
  Program prog_;
};

}  // namespace repro::isa
