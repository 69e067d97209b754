// Shared Computational-Element cache (the two CPC modules).
//
// The eight CEs share a 128 KB, four-way interleaved cache split into two
// Computational Element Cache modules, reached through a crossbar
// (Appendix C). Misses go to main memory over the module's memory bus.
// Coherence with the IP cache follows the machine's "unique copy before
// modify" rule: a write needs a unique copy, and obtaining one broadcasts
// an invalidate on the memory bus.
//
// Cross-CE locality is first-class here: concurrent-loop iterations on
// different CEs touch neighbouring addresses, so a line fetched for one CE
// hits for its neighbours — the mechanism the paper credits for miss rate
// being insensitive to Mean Concurrency Level (§5.1, §5.3).
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "base/capsule.hpp"
#include "base/expect.hpp"
#include "base/types.hpp"
#include "mem/bus_ops.hpp"
#include "mem/memory_bus.hpp"

namespace repro::cache {

enum class AccessType : std::uint8_t { kRead, kWrite, kInstrFetch };

enum class LineState : std::uint8_t { kInvalid, kShared, kUnique };

struct SharedCacheConfig {
  std::uint64_t total_bytes = 128 * 1024;
  std::uint32_t banks = 4;          ///< Interleave factor across modules.
  std::uint32_t modules = 2;        ///< CPC modules (one memory bus each).
  std::uint32_t ways = 2;           ///< Set associativity within a bank.
};

/// Outcome of presenting an access to the cache.
enum class AccessOutcome : std::uint8_t {
  kHit,         ///< Served this cycle.
  kMissStarted, ///< Miss; a fill was issued; requester must wait.
  kMissMerged,  ///< Miss on a line already being filled; requester waits.
};

struct SharedCacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t write_upgrades = 0;   ///< Shared->Unique ownership fetches.
  std::uint64_t write_backs = 0;
  std::uint64_t merged_misses = 0;    ///< Cross-CE fill sharing events.
  std::uint64_t snoop_invalidations = 0;
};

class SharedCache {
 public:
  /// `n_ces` is the requesters the MSHRs track: the machine's total CE
  /// count across clusters (global CE ids index the waiter masks).
  SharedCache(const SharedCacheConfig& config, mem::MemoryBus& bus,
              std::uint32_t n_ces = kMaxCes);

  [[nodiscard]] const SharedCacheConfig& config() const { return config_; }

  /// Present an access from `ce`. On kHit the access is complete. On a
  /// miss outcome the CE must stall until take_fill_ready(ce) is true.
  /// At most one outstanding miss per CE (enforced).
  AccessOutcome access(CeId ce, Addr addr, AccessType type);

  /// Progress outstanding fills; call once per machine cycle after the
  /// memory bus has ticked. A fill can only complete on a tick where a
  /// tracked bus transaction finished, so the poll loop is gated on the
  /// bus completion epoch: the common cycle is two loads and a compare.
  void tick() {
    if (fills_.empty() || bus_.completion_epoch() == seen_epoch_) {
      return;
    }
    drain_fills();
  }

  /// True (consuming the flag) once the CE's outstanding miss has filled.
  [[nodiscard]] bool take_fill_ready(CeId ce);

  /// True while the CE has a miss outstanding.
  [[nodiscard]] bool miss_outstanding(CeId ce) const {
    REPRO_EXPECT(ce < n_ces_, "CE index out of range");
    return (miss_outstanding_mask_ >> ce) & 1u;
  }

  /// True while CE `ce` has a completed fill waiting to be consumed by
  /// take_fill_ready (const peek for the CE's quiet horizon).
  [[nodiscard]] bool fill_ready(CeId ce) const {
    return (fill_ready_mask_ >> ce) & 1u;
  }

  /// The whole fill-ready word (one bit per global CE id). The machine's
  /// lane selection (fx8/lane_kernel.hpp) steps every flagged lane, and
  /// Machine::quiet_horizon() is 0 while any bit is set.
  [[nodiscard]] LaneMask fill_ready_mask() const { return fill_ready_mask_; }

  /// Coherence request from the IP side: drop any copy of this line.
  void snoop_invalidate(Addr addr);

  /// Bank serving an address (crossbar arbitration needs this). Banks are
  /// a power of two in every real configuration, so the modulo reduces to
  /// a shift-and-mask (this runs several times per machine cycle).
  [[nodiscard]] std::uint32_t bank_of(Addr addr) const {
    if (bank_mask_ != 0 || config_.banks == 1) {
      return static_cast<std::uint32_t>(addr >> kLineShift) & bank_mask_;
    }
    return static_cast<std::uint32_t>((addr / kLineBytes) % config_.banks);
  }
  /// Module (and hence memory bus) behind a bank.
  [[nodiscard]] std::uint32_t module_of_bank(std::uint32_t bank) const;

  [[nodiscard]] const SharedCacheStats& stats() const { return stats_; }

  /// True if the line holding `addr` is present (tests).
  [[nodiscard]] bool contains(Addr addr) const;

  /// Capsule walk: every line, the in-flight fills (in issue order),
  /// stats, the miss/fill masks and the LRU clock.
  void serialize(capsule::Io& io);

 private:
  struct Line {
    Addr tag = 0;
    LineState state = LineState::kInvalid;
    bool dirty = false;
    std::uint64_t last_use = 0;  ///< LRU stamp.
  };
  struct Fill {
    mem::TxnId txn = 0;
    LaneMask waiters = 0;      ///< Bitmask of stalled CEs (global ids).
    bool want_unique = false;  ///< Fill triggered by a write.
  };

  static constexpr std::uint32_t kLineShift =
      std::countr_zero(static_cast<std::uint32_t>(kLineBytes));

  [[nodiscard]] Addr line_addr(Addr addr) const;
  [[nodiscard]] std::size_t set_index(Addr addr) const;
  [[nodiscard]] Line* find_line(Addr addr);
  [[nodiscard]] const Line* find_line(Addr addr) const;
  Line& victim_for(Addr addr);
  /// The poll loop tick() guards: install completed fills, wake waiters.
  void drain_fills();

  SharedCacheConfig config_;
  mem::MemoryBus& bus_;
  std::vector<Line> lines_;          ///< sets_ * ways_, bank-major layout.
  std::size_t sets_per_bank_ = 0;
  /// Pow-2 fast-path masks; 0 disables (non-pow-2 geometry falls back to
  /// division). bank_mask_ doubles as the pow-2 flag for bank_of.
  std::uint32_t bank_mask_ = 0;
  std::uint32_t bank_shift_ = 0;
  std::size_t set_mask_ = 0;
  bool sets_pow2_ = false;
  /// Banks per module, and its log2 when a power of two (every real
  /// geometry): module_of_bank shifts, falling back to one division.
  std::uint32_t banks_per_module_ = 1;
  std::uint32_t module_shift_ = 0;
  bool modules_pow2_ = false;
  /// Requesters the MSHRs track (the machine width).
  std::uint32_t n_ces_;
  /// In-flight fills keyed by line address, in issue order. A vector,
  /// not a hash map: drain order decides victim choice, LRU stamps, and
  /// write-back submit order, so it must be deterministic state a
  /// capsule can reproduce — and with at most one outstanding miss per
  /// CE the set never exceeds n_ces_ entries, where a linear scan wins
  /// anyway.
  std::vector<std::pair<Addr, Fill>> fills_;
  /// Bus completion epoch at the last drain; unchanged epoch = no fill
  /// can have completed.
  std::uint64_t seen_epoch_ = 0;
  SharedCacheStats stats_;
  /// CEs (bit = global CE id) whose outstanding miss has filled but not
  /// yet been consumed by take_fill_ready().
  LaneMask fill_ready_mask_ = 0;
  /// CEs with a miss outstanding: set at the missing access, cleared when
  /// take_fill_ready() consumes the fill.
  LaneMask miss_outstanding_mask_ = 0;
  /// LRU clock: bumped once per access and per line install.
  std::uint64_t use_clock_ = 0;
};

}  // namespace repro::cache
