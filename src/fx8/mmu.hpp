// Memory-management interface between the machine and the OS layer.
//
// CEs present virtual addresses. The OS (src/os) supplies the policy —
// page tables, fault accounting, fault service time — through this
// interface, keeping the hardware model free of OS types. The simulator
// indexes the shared cache by virtual address (jobs get disjoint regions,
// so there is no aliasing); the MMU's observable contribution is the page
// faults the kernel counters log, exactly the software measurement the
// paper collected (§3.3).
#pragma once

#include <array>
#include <cstdint>

#include "base/types.hpp"

namespace repro::fx8 {

class Mmu {
 public:
  virtual ~Mmu() = default;

  /// The CE-facing entry point: touch `addr` on behalf of `job` from
  /// processor `ce`. A per-CE single-entry memo of the last resident
  /// (job, page) skips the virtual touch() call entirely for the
  /// within-page streaming accesses that dominate saturated sessions.
  /// The memo works at kPageBytes granularity, the system page size
  /// every Mmu implementation shares. It is not state: a memo hit only
  /// saves a lookup whose answer is "resident", so dropping the memo
  /// changes no behaviour and no capsule walks it. Implementations must
  /// call invalidate_translations() whenever a mapping is removed and
  /// whenever a capsule load replaces their page tables.
  Cycle translate(JobId job, CeId ce, Addr addr) {
    Memo& memo = memo_[ce];
    const Addr page = addr / kPageBytes;
    if (memo.epoch == epoch_ && memo.page == page && memo.job == job) {
      return 0;
    }
    const Cycle stall = touch(job, ce, addr);
    // A non-zero return maps the page (see touch), so the page is
    // resident either way and the memo entry is valid.
    memo = {epoch_, job, page};
    return stall;
  }

  /// Touch `addr` on behalf of `job` from processor `ce`. Returns the
  /// number of cycles the access must stall for fault service (0 when the
  /// page is already mapped). A non-zero return maps the page, so the
  /// retried access will not fault again.
  virtual Cycle touch(JobId job, CeId ce, Addr addr) = 0;

 protected:
  /// Drop every memoized translation.
  void invalidate_translations() { ++epoch_; }

 private:
  struct Memo {
    std::uint64_t epoch = 0;
    JobId job = 0;
    Addr page = 0;
  };
  /// One entry per global CE id.
  std::array<Memo, kMaxTopologyCes> memo_{};
  std::uint64_t epoch_ = 1;
};

/// MMU that never faults; used by unit tests of the bare machine.
class NoFaultMmu final : public Mmu {
 public:
  Cycle touch(JobId, CeId, Addr) override { return 0; }
};

}  // namespace repro::fx8
