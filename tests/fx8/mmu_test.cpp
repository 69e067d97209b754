// Translation memo.
//
// Mmu::translate keeps a single-entry memo per CE of the last resident
// (job, page), so within-page streaming accesses skip the virtual touch()
// call. These tests pin the memo's two rules at the Mmu level: a
// same-page repeat never reaches touch(), and invalidate_translations()
// forces the next translate to touch again.
#include "fx8/mmu.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace repro::fx8 {
namespace {

/// Records every touch() it serves.
class SpyMmu final : public Mmu {
 public:
  struct Touch {
    JobId job;
    CeId ce;
    Addr addr;
  };

  Cycle touch(JobId job, CeId ce, Addr addr) override {
    touches.push_back(Touch{job, ce, addr});
    return 0;
  }

  using Mmu::invalidate_translations;

  std::vector<Touch> touches;
};

// The first translate of a page reaches touch(); repeats within the same
// (job, CE, page) memo-hit and skip it.
TEST(MmuMemo, SamePageRepeatSkipsTouch) {
  SpyMmu mmu;
  constexpr JobId kJob = 7;
  constexpr CeId kCe = 3;
  constexpr Addr kAddr = 0x200040;

  EXPECT_EQ(mmu.translate(kJob, kCe, kAddr), 0u);
  ASSERT_EQ(mmu.touches.size(), 1u);
  EXPECT_EQ(mmu.touches[0].job, kJob);
  EXPECT_EQ(mmu.touches[0].ce, kCe);
  EXPECT_EQ(mmu.touches[0].addr, kAddr);

  EXPECT_EQ(mmu.translate(kJob, kCe, kAddr + 8), 0u);
  EXPECT_EQ(mmu.translate(kJob, kCe, kAddr + 64), 0u);
  EXPECT_EQ(mmu.touches.size(), 1u);
}

// Invalidation drops every CE's memo: each next translate touches again.
TEST(MmuMemo, InvalidationForcesRetouch) {
  SpyMmu mmu;
  for (CeId ce = 0; ce < kMaxCes; ++ce) {
    (void)mmu.translate(1, ce, 0x1000);
  }
  EXPECT_EQ(mmu.touches.size(), kMaxCes);
  for (CeId ce = 0; ce < kMaxCes; ++ce) {
    (void)mmu.translate(1, ce, 0x1000);
  }
  EXPECT_EQ(mmu.touches.size(), kMaxCes);  // All memo hits.

  mmu.invalidate_translations();
  for (CeId ce = 0; ce < kMaxCes; ++ce) {
    (void)mmu.translate(1, ce, 0x1000);
  }
  EXPECT_EQ(mmu.touches.size(), 2 * kMaxCes);
}

}  // namespace
}  // namespace repro::fx8
