// Lane-selection tests.
//
// Machine::tick_block selects the lanes to step each cycle with one scan
// over the machine-wide lane block at every width: the 64-lane horizon
// selection must equal both its definition (due <= now, or fill ready)
// and eight per-cluster 8-lane windows, fuzzed over random lane states;
// the naive reference selects every live lane.
#include "fx8/lane_kernel.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

namespace repro {
namespace {

/// Deterministic xorshift64* stream for the fuzz states.
std::uint64_t next_rand(std::uint64_t& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return s * 0x2545F4914F6CDD1DULL;
}

/// Random due cycles around `now`, biased toward the decision edge.
fx8::CeHot random_hot(std::uint64_t& seed, Cycle now) {
  fx8::CeHot hot{};
  for (CeId c = 0; c < kMaxTopologyCes; ++c) {
    const std::array<Cycle, 6> edges = {0,       now - 1, now,
                                        now + 1, now + 50, kHorizonNever};
    hot.due[c] = edges[next_rand(seed) % edges.size()];
  }
  return hot;
}

// The machine-wide 64-lane selection must equal the lanes whose due
// cycle has come or whose fill is ready, and the composition of eight
// per-cluster 8-lane windows — the exact reduction the width-native
// tick_block performs.
TEST(WideKernelFuzz, WidePassMatchesPerClusterWindows) {
  std::uint64_t seed = 0xD15EA5EDBEEFULL;
  for (int iter = 0; iter < 5000; ++iter) {
    const Cycle now = 1 + next_rand(seed) % 1000;
    const fx8::CeHot hot = random_hot(seed, now);
    const LaneMask fill_ready = next_rand(seed) & next_rand(seed);

    LaneMask want = fill_ready;
    for (CeId c = 0; c < kMaxTopologyCes; ++c) {
      if (hot.due[c] <= now) {
        want |= LaneMask{1} << c;
      }
    }
    const LaneMask wide =
        fx8::lane_pass_horizon(hot, fill_ready, kMaxTopologyCes, now);
    ASSERT_EQ(wide, want) << "iter " << iter;

    LaneMask windows = 0;
    for (std::uint32_t base = 0; base < kMaxTopologyCes; base += kMaxCes) {
      fx8::CeHot window{};
      for (CeId c = 0; c < kMaxCes; ++c) {
        window.due[c] = hot.due[base + c];
      }
      windows |= fx8::lane_pass_horizon(window, (fill_ready >> base) & 0xFFu,
                                        kMaxCes, now)
                 << base;
    }
    ASSERT_EQ(wide, windows) << "iter " << iter;

    // Lanes at n_lanes and beyond are never selected.
    const LaneMask prefix =
        fx8::lane_pass_horizon(hot, fill_ready, 17, now);
    ASSERT_EQ(prefix, want & ((LaneMask{1} << 17) - 1)) << "iter " << iter;
  }
}

// The naive oracle selects every lane below n, whatever the lane state,
// so every CE steps through Ce::tick() every cycle.
TEST(LanePass, ReferenceReportsEveryLiveLaneSlow) {
  std::uint64_t seed = 0x0DDBA11ULL;
  for (const std::uint32_t n : {1u, 8u, 17u, 64u}) {
    const fx8::CeHot hot = random_hot(seed, 100);
    const LaneMask selected =
        fx8::lane_pass_reference(hot, next_rand(seed), n, 100);
    const LaneMask want = n == 64 ? ~LaneMask{0} : (LaneMask{1} << n) - 1;
    EXPECT_EQ(selected, want) << "n " << n;
  }
  EXPECT_STREQ(fx8::lane_pass_name(&fx8::lane_pass_reference), "reference");
  EXPECT_STREQ(fx8::lane_pass_name(fx8::select_lane_pass()), "horizon");
}

}  // namespace
}  // namespace repro
