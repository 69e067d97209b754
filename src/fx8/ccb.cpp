#include "fx8/ccb.hpp"

#include <algorithm>

#include "base/expect.hpp"

namespace repro::fx8 {

void ConcurrencyControlBus::start_loop(std::uint64_t trip_count,
                                       DispatchPolicy policy,
                                       std::uint32_t width) {
  REPRO_EXPECT(!active_, "CCB already dispatching a loop");
  REPRO_EXPECT(trip_count > 0, "loop must have at least one iteration");
  REPRO_EXPECT(width >= 1 && width <= kMaxCes, "width must be 1..8");
  active_ = true;
  policy_ = policy;
  trip_ = trip_count;
  next_iter_ = 0;
  dispatched_count_ = 0;
  completed_count_ = 0;
  complete_.assign(static_cast<std::size_t>(words_for(trip_count)), 0);
  if (policy == DispatchPolicy::kStaticChunked) {
    // Contiguous blocks of ceil(trip/width); trailing CEs may own less
    // (or nothing) when the trip count does not divide evenly.
    const std::uint64_t chunk = (trip_count + width - 1) / width;
    for (std::uint32_t c = 0; c < kMaxCes; ++c) {
      if (c < width) {
        chunk_next_[c] = std::min<std::uint64_t>(c * chunk, trip_count);
        chunk_end_[c] = std::min<std::uint64_t>((c + 1) * chunk, trip_count);
      } else {
        chunk_next_[c] = 0;
        chunk_end_[c] = 0;
      }
    }
  }
  // The starting cycle gets a full grant budget so dispatch can begin in
  // the same cycle the cstart instruction executes.
  grants_left_ = kGrantsPerCycle;
}

void ConcurrencyControlBus::begin_cycle() { grants_left_ = kGrantsPerCycle; }

std::optional<std::uint64_t> ConcurrencyControlBus::try_dispatch(CeId ce) {
  REPRO_EXPECT(active_, "no loop being dispatched");
  if (grants_left_ == 0) {
    return std::nullopt;
  }
  if (policy_ == DispatchPolicy::kStaticChunked) {
    REPRO_EXPECT(ce < kMaxCes, "CE index out of range");
    if (chunk_next_[ce] >= chunk_end_[ce]) {
      return std::nullopt;
    }
    --grants_left_;
    ++dispatched_count_;
    return chunk_next_[ce]++;
  }
  if (next_iter_ >= trip_) {
    return std::nullopt;
  }
  --grants_left_;
  ++dispatched_count_;
  return next_iter_++;
}

void ConcurrencyControlBus::mark_complete(std::uint64_t iter) {
  REPRO_EXPECT(active_, "no loop being dispatched");
  REPRO_EXPECT(iter < trip_, "iteration index out of range");
  REPRO_EXPECT(!is_complete(iter), "iteration completed twice");
  complete_[iter / 64] |= std::uint64_t{1} << (iter % 64);
  ++completed_count_;
}

void ConcurrencyControlBus::end_loop() {
  REPRO_EXPECT(active_ && all_complete(), "loop not drained");
  active_ = false;
  trip_ = 0;
  next_iter_ = 0;
  dispatched_count_ = 0;
  completed_count_ = 0;
  complete_.clear();
}

}  // namespace repro::fx8
