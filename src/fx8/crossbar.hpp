// Crossbar between the CEs and the shared-cache banks.
//
// "Connection to these cache modules is accomplished through a crossbar
// switch which routes both address and data between cache and CE"
// (Appendix C). Each cycle a bank can serve one requester; contention
// shows up on the losing CE's bus as a wait cycle. Priority is positional:
// the cluster services CEs in its configured order, so the crossbar just
// enforces one-grant-per-bank bookkeeping.
#pragma once

#include <cstdint>

#include "base/capsule.hpp"
#include "base/expect.hpp"
#include "base/types.hpp"
#include "fx8/fabric.hpp"

namespace repro::fx8 {

class Crossbar {
 public:
  explicit Crossbar(std::uint32_t banks);

  /// Reset per-cycle grants. Call once per machine cycle before CEs act.
  /// Grants live in one bitmask so the per-cycle reset is a single store
  /// (this runs every machine cycle of every session).
  void begin_cycle() { taken_ = 0; }

  /// Try to route an access to `bank` this cycle; true on success. An
  /// intra-cluster conflict (the bank already granted to a sibling CE)
  /// and a cross-cluster fabric rejection both count here — the losing
  /// CE retries next cycle either way.
  /// Inline: this sits on the per-access hot path of every CE.
  [[nodiscard]] bool try_acquire(std::uint32_t bank) {
    REPRO_EXPECT(bank < banks_, "bank index out of range");
    const std::uint64_t bit = std::uint64_t{1} << bank;
    if (taken_ & bit) {
      ++conflicts_;
      return false;
    }
    if (fabric_ != nullptr && !fabric_->try_acquire(bank)) {
      ++conflicts_;
      return false;
    }
    taken_ |= bit;
    return true;
  }

  /// Lifetime count of rejected (conflicted) acquisitions.
  [[nodiscard]] std::uint64_t conflicts() const { return conflicts_; }

  /// Attach the machine's second-level arbiter (multi-cluster machines
  /// only; nullptr detaches). Structural wiring, not evolving state: it
  /// stays out of the capsule walk.
  void attach_fabric(ClusterFabric* fabric) { fabric_ = fabric; }

  /// Capsule walk: this cycle's grant mask and lifetime conflicts.
  void serialize(capsule::Io& io) {
    io.u64(taken_);
    io.u64(conflicts_);
  }

 private:
  std::uint32_t banks_;
  /// Banks granted this cycle (one bit per bank).
  std::uint64_t taken_ = 0;
  std::uint64_t conflicts_ = 0;
  ClusterFabric* fabric_ = nullptr;
};

}  // namespace repro::fx8
