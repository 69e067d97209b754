// Kernel descriptors — the unit of work a Computational Element interprets.
//
// The original workload was compiled FX/FORTRAN. We do not reproduce a
// full 68020-style instruction set; what the measurements observe is the
// *bus behaviour* of executing code, so a kernel is described by the
// parameters that determine bus behaviour: compute cycles per step, memory
// accesses per step, the address pattern those accesses walk, and the
// instruction-cache footprint of the code. The CE interpreter (src/fx8)
// "microcodes" these descriptors cycle by cycle.
#pragma once

#include <cstdint>
#include <string>

#include "base/capsule.hpp"
#include "base/types.hpp"

namespace repro::isa {

/// How a kernel's data accesses walk memory.
enum class AccessPattern : std::uint8_t {
  /// Sequential walk with a fixed stride over the working set (typical of
  /// vectorizable FORTRAN array code: matmul rows, triad, stencils).
  kStreaming,
  /// Most accesses fall in a small hot set; the rest stream (typical of
  /// serial/scalar code: editors, compilers, shells).
  kHotCold,
};

/// Static description of a block of straight-line-ish code executed as a
/// sequence of `steps` inner steps.
struct KernelSpec {
  std::string name = "kernel";

  /// Inner steps per execution of this kernel (per loop iteration when used
  /// as a concurrent-loop body).
  std::uint32_t steps = 1;

  /// Register-to-register compute cycles per step (no bus traffic).
  std::uint32_t compute_cycles = 4;
  /// Uniform jitter applied to compute_cycles, in cycles (+/-).
  std::uint32_t compute_jitter = 0;

  /// Data accesses issued per step.
  std::uint32_t loads_per_step = 1;
  std::uint32_t stores_per_step = 0;

  AccessPattern pattern = AccessPattern::kStreaming;

  /// Bytes between successive streaming accesses.
  std::uint64_t stride_bytes = 8;
  /// Size of the region the streaming walk wraps around in.
  std::uint64_t working_set_bytes = 64 * 1024;
  /// For kHotCold: fraction of accesses that hit the hot set.
  double hot_fraction = 0.9;
  /// For kHotCold: size of the hot set.
  std::uint64_t hot_set_bytes = 2 * 1024;

  /// Instruction footprint of the compiled kernel. Fits in the CE's 16 KB
  /// internal instruction cache when <= that size; larger footprints spill
  /// instruction fetches onto the shared cache.
  std::uint64_t code_bytes = 4 * 1024;

  /// Fraction of steps that are 32-element vector register operations;
  /// these add compute cycles but no bus traffic (paper §5.1: register-to-
  /// register vector operations reduce CE-to-cache traffic).
  double vector_fraction = 0.0;
  std::uint32_t vector_cycles = 8;

  /// Validate parameter sanity; throws ContractViolation on nonsense.
  void validate() const;

  /// Capsule walk over every field.
  void serialize(capsule::Io& io) {
    io.str(name);
    io.u32(steps);
    io.u32(compute_cycles);
    io.u32(compute_jitter);
    io.u32(loads_per_step);
    io.u32(stores_per_step);
    io.enum32(pattern, AccessPattern::kHotCold);
    io.u64(stride_bytes);
    io.u64(working_set_bytes);
    io.f64(hot_fraction);
    io.u64(hot_set_bytes);
    io.u64(code_bytes);
    io.f64(vector_fraction);
    io.u32(vector_cycles);
  }
};

/// Human-readable one-line summary (for reports and examples).
[[nodiscard]] std::string describe(const KernelSpec& spec);

}  // namespace repro::isa
