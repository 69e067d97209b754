// Concurrency Control Bus.
//
// "Both synchronization and processor scheduling functions are handled in
// hardware, and make use of the Concurrency Control Bus" (§3.2). The CCB
// hands loop iterations to requesting CEs one grant per cycle
// (self-scheduling, [19] in the paper), tracks completion so
// dependence-carrying iterations can await their predecessor, and knows
// when the loop has drained. The CE that completes the final iteration
// continues serial execution (Figure 2).
#pragma once

#include <cstdint>
#include <array>
#include <optional>
#include <vector>

#include "base/capsule.hpp"
#include "base/expect.hpp"
#include "base/types.hpp"

namespace repro::fx8 {

/// How loop iterations are handed to processors. Self-scheduling is what
/// the FX/8 hardware does ([19] in the paper); static chunking is the
/// compile-time alternative the era's scheduling literature (the paper's
/// ref [8]) compares against — each CE owns a contiguous block.
enum class DispatchPolicy : std::uint8_t {
  kSelfScheduled,
  kStaticChunked,
};

class ConcurrencyControlBus {
 public:
  ConcurrencyControlBus() = default;

  /// Begin dispatching a loop of `trip_count` iterations. `width` is the
  /// number of participating CEs (chunked mode splits across it).
  void start_loop(std::uint64_t trip_count,
                  DispatchPolicy policy = DispatchPolicy::kSelfScheduled,
                  std::uint32_t width = kMaxCes);

  /// Reset per-cycle grant budget; call once per machine cycle.
  void begin_cycle();

  /// Try to obtain the next undispatched iteration for CE `ce`. At most
  /// `grants_per_cycle` (hardware serialization: 1) succeed per cycle.
  /// Self-scheduled mode ignores `ce` (one shared queue); chunked mode
  /// draws from the CE's own block.
  [[nodiscard]] std::optional<std::uint64_t> try_dispatch(CeId ce = 0);

  /// Record completion of iteration `iter`.
  void mark_complete(std::uint64_t iter);

  /// Dependence check: can iteration `iter` begin its body? True when it
  /// has no predecessor or the predecessor has completed.
  [[nodiscard]] bool predecessor_complete(std::uint64_t iter) const {
    REPRO_EXPECT(active_, "no loop being dispatched");
    if (iter == 0) {
      return true;
    }
    return is_complete(iter - 1);
  }

  [[nodiscard]] bool loop_active() const { return active_; }
  // The cluster's per-cycle control scan polls these; keep them inline.
  [[nodiscard]] bool all_dispatched() const {
    REPRO_EXPECT(active_, "no loop being dispatched");
    return dispatched_count_ >= trip_;
  }
  [[nodiscard]] bool all_complete() const {
    REPRO_EXPECT(active_, "no loop being dispatched");
    return completed_count_ >= trip_;
  }
  [[nodiscard]] std::uint64_t trip_count() const { return trip_; }
  [[nodiscard]] std::uint64_t dispatched() const { return dispatched_count_; }
  [[nodiscard]] std::uint64_t completed() const { return completed_count_; }
  [[nodiscard]] DispatchPolicy policy() const { return policy_; }

  /// Close out a drained loop; requires all_complete().
  void end_loop();

  /// Capsule walk over the dispatch state of the (possibly inactive)
  /// current loop, including this cycle's grant budget.
  void serialize(capsule::Io& io) {
    io.boolean(active_);
    io.enum32(policy_, DispatchPolicy::kStaticChunked);
    io.u64(trip_);
    io.u64(next_iter_);
    io.u64(dispatched_count_);
    io.u64(completed_count_);
    // One u8 per iteration on the wire, one bit in memory.
    const std::uint64_t n = io.extent(trip_);
    if (io.loading()) {
      if (n != trip_) {
        throw capsule::CapsuleError("capsule: CCB completion count mismatch");
      }
      complete_.assign(static_cast<std::size_t>(words_for(n)), 0);
    }
    for (std::uint64_t iter = 0; iter < n; ++iter) {
      std::uint8_t done = is_complete(iter) ? 1 : 0;
      io.u8(done);
      if (done != 0) {
        complete_[iter / 64] |= std::uint64_t{1} << (iter % 64);
      }
    }
    for (std::uint64_t& next : chunk_next_) {
      io.u64(next);
    }
    for (std::uint64_t& end : chunk_end_) {
      io.u64(end);
    }
    io.u32(grants_left_);
  }

 private:
  [[nodiscard]] static std::uint64_t words_for(std::uint64_t trip) {
    return (trip + 63) / 64;
  }
  [[nodiscard]] bool is_complete(std::uint64_t iter) const {
    return ((complete_[iter / 64] >> (iter % 64)) & 1u) != 0;
  }

  bool active_ = false;
  DispatchPolicy policy_ = DispatchPolicy::kSelfScheduled;
  std::uint64_t trip_ = 0;
  std::uint64_t next_iter_ = 0;          ///< Self-scheduled queue head.
  std::uint64_t dispatched_count_ = 0;
  std::uint64_t completed_count_ = 0;
  /// Completion bitset, one bit per iteration: a 2^20-trip loop costs
  /// 128 KiB rather than 1 MiB.
  std::vector<std::uint64_t> complete_;
  /// Chunked mode: per-CE [next, end) block cursors.
  std::array<std::uint64_t, kMaxCes> chunk_next_{};
  std::array<std::uint64_t, kMaxCes> chunk_end_{};
  /// Iteration-dispatch grants left this cycle.
  std::uint32_t grants_left_ = 0;
  static constexpr std::uint32_t kGrantsPerCycle = 1;
};

}  // namespace repro::fx8
