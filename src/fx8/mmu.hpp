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

#include <vector>

#include "base/capsule.hpp"
#include "base/expect.hpp"
#include "base/types.hpp"

namespace repro::fx8 {

class Mmu {
 public:
  virtual ~Mmu() = default;

  /// The CE-facing entry point: touch `addr` on behalf of `job` from
  /// processor `ce`. A per-CE single-entry memo of the last resident
  /// (job, page) skips the virtual touch() call entirely for the
  /// within-page streaming accesses that dominate saturated sessions;
  /// implementations must call invalidate_translations() whenever any
  /// mapping is removed. The memo works at kPageBytes granularity — the
  /// system page size every Mmu implementation shares.
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

  /// Grow the per-CE memo to cover `n` CE lanes (a machine with
  /// global CE ids up to n-1). Called by Machine at construction; only
  /// ever grows, and the default kMaxCes entries mean machines of width
  /// <= 8 never reallocate (keeping the capsule walk byte-stable for
  /// them). Growing wipes the memos — harmless before any activity, and
  /// behaviour-neutral anyway since a memo miss just re-touches a
  /// resident page. Virtual so implementations holding their own per-CE
  /// state (os::VirtualMemory) can widen it in the same call.
  virtual void ensure_lanes(std::uint32_t n) {
    REPRO_EXPECT(n <= kMaxTopologyCes, "lane count beyond topology maximum");
    if (n <= lanes_) {
      return;
    }
    lanes_ = n;
    memo_.assign(lanes_, Memo{});
  }

  /// CE lanes the translation memo currently covers.
  [[nodiscard]] std::uint32_t lanes() const { return lanes_; }

  /// Capsule walk over the per-CE translation memos and their
  /// epoch. Derived classes call this from their own serialize().
  void serialize_translation_state(capsule::Io& io) {
    for (Memo& memo : memo_) {
      io.u64(memo.epoch);
      io.u64(memo.job);
      io.u64(memo.page);
    }
    io.u64(epoch_);
  }

 protected:
  /// Drop every memoized translation (some mapping was removed).
  void invalidate_translations() { ++epoch_; }

 private:
  struct Memo {
    std::uint64_t epoch = 0;
    JobId job = 0;
    Addr page = 0;
  };
  std::uint32_t lanes_ = kMaxCes;
  std::vector<Memo> memo_ = std::vector<Memo>(kMaxCes);
  std::uint64_t epoch_ = 1;
};

/// MMU that never faults; used by unit tests of the bare machine.
class NoFaultMmu final : public Mmu {
 public:
  Cycle touch(JobId, CeId, Addr) override { return 0; }
};

}  // namespace repro::fx8
