// Interleaved main memory model.
//
// The FX/8 main memory is four-way interleaved with up to 64 MB capacity
// (Appendix C; the capacity sizes the VM layer's frame pool,
// os::VmConfig::physical_bytes). We model bank occupancy: a line access
// engages one bank for a fixed busy time; a second access to a busy bank
// must wait, which is how memory contention shows up as extra memory-bus
// cycles.
#pragma once

#include <array>
#include <cstdint>

#include "base/capsule.hpp"
#include "base/types.hpp"

namespace repro::mem {

struct MainMemoryConfig {
  std::uint32_t interleave = 4;     ///< Number of banks.
  std::uint32_t bank_busy_cycles = 4;  ///< Bank occupancy per line access.
};

class MainMemory {
 public:
  explicit MainMemory(const MainMemoryConfig& config);

  [[nodiscard]] const MainMemoryConfig& config() const { return config_; }

  /// Bank index serving the line containing `addr`.
  [[nodiscard]] std::uint32_t bank_of(Addr addr) const;

  /// Earliest cycle (>= now) at which the bank for `addr` can begin a new
  /// access; does not reserve the bank.
  [[nodiscard]] Cycle earliest_start(Addr addr, Cycle now) const;

  /// Reserve the bank for an access starting at `start`; returns the cycle
  /// at which the access completes (bank data available).
  Cycle begin_access(Addr addr, Cycle start);

  /// Total accesses served, for statistics/tests.
  [[nodiscard]] std::uint64_t access_count() const { return accesses_; }

  /// Capsule walk: bank occupancy deadlines and the access counter.
  void serialize(capsule::Io& io) {
    for (Cycle& free_at : bank_free_at_) {
      io.u64(free_at);
    }
    io.u64(accesses_);
  }

 private:
  MainMemoryConfig config_;
  /// interleave - 1 when the interleave is a power of two (every real
  /// configuration), so bank_of masks; 0 otherwise, and bank_of divides.
  std::uint32_t bank_mask_ = 0;
  // Cycle until which each bank is busy. Sized at construction.
  std::array<Cycle, 16> bank_free_at_{};
  std::uint64_t accesses_ = 0;
};

}  // namespace repro::mem
