#include "instr/logic_analyzer.hpp"

#include <gtest/gtest.h>

#include "base/expect.hpp"

namespace repro::instr {
namespace {

ProbeRecord record_with_active(std::uint32_t n_active, Cycle cycle = 0) {
  ProbeRecord record;
  record.cycle = cycle;
  record.active_mask = n_active == 0 ? 0 : (1u << n_active) - 1;
  return record;
}

TEST(LogicAnalyzer, StartsDisarmed) {
  LogicAnalyzer analyzer{AnalyzerConfig{}};
  EXPECT_EQ(analyzer.state(), AnalyzerState::kDisarmed);
  EXPECT_FALSE(analyzer.sample(record_with_active(8)));
}

TEST(LogicAnalyzer, ImmediateModeCaptures512Records) {
  LogicAnalyzer analyzer{AnalyzerConfig{}};
  analyzer.arm();
  EXPECT_EQ(analyzer.state(), AnalyzerState::kCapturing);
  for (int i = 0; i < 511; ++i) {
    EXPECT_FALSE(analyzer.sample(record_with_active(3, static_cast<Cycle>(i))));
  }
  EXPECT_TRUE(analyzer.sample(record_with_active(3, 511)));
  EXPECT_TRUE(analyzer.complete());
  const auto buffer = analyzer.transfer();
  EXPECT_EQ(buffer.size(), 512u);
  EXPECT_EQ(buffer.front().cycle, 0u);
  EXPECT_EQ(buffer.back().cycle, 511u);
}

TEST(LogicAnalyzer, AllActiveTriggerWaitsForFullWidth) {
  AnalyzerConfig config;
  config.trigger = TriggerMode::kAllActive;
  config.buffer_depth = 8;
  LogicAnalyzer analyzer(config);
  analyzer.arm();
  EXPECT_EQ(analyzer.state(), AnalyzerState::kArmed);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(analyzer.sample(record_with_active(7)));
    EXPECT_EQ(analyzer.state(), AnalyzerState::kArmed);
  }
  // 8-active fires and the triggering record is captured.
  EXPECT_FALSE(analyzer.sample(record_with_active(8)));
  EXPECT_EQ(analyzer.state(), AnalyzerState::kCapturing);
  for (int i = 0; i < 7; ++i) {
    analyzer.sample(record_with_active(8));
  }
  EXPECT_TRUE(analyzer.complete());
}

TEST(LogicAnalyzer, TransitionTriggerNeedsFullThenLower) {
  AnalyzerConfig config;
  config.trigger = TriggerMode::kTransitionFromFull;
  config.buffer_depth = 4;
  LogicAnalyzer analyzer(config);
  analyzer.arm();
  // 7-active alone never fires (no prior full state).
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(analyzer.sample(record_with_active(7)));
  }
  EXPECT_EQ(analyzer.state(), AnalyzerState::kArmed);
  // Full, then still-full: no fire.
  (void)analyzer.sample(record_with_active(8));
  (void)analyzer.sample(record_with_active(8));
  EXPECT_EQ(analyzer.state(), AnalyzerState::kArmed);
  // Full -> 6: fires, captures from the transition record.
  (void)analyzer.sample(record_with_active(6, 100));
  EXPECT_EQ(analyzer.state(), AnalyzerState::kCapturing);
  (void)analyzer.sample(record_with_active(5));
  (void)analyzer.sample(record_with_active(4));
  (void)analyzer.sample(record_with_active(3));
  ASSERT_TRUE(analyzer.complete());
  const auto buffer = analyzer.transfer();
  EXPECT_EQ(buffer.front().cycle, 100u);
}

TEST(LogicAnalyzer, TransitionFromFullToIdleAlsoFires) {
  AnalyzerConfig config;
  config.trigger = TriggerMode::kTransitionFromFull;
  config.buffer_depth = 1;
  LogicAnalyzer analyzer(config);
  analyzer.arm();
  (void)analyzer.sample(record_with_active(8));
  EXPECT_TRUE(analyzer.sample(record_with_active(0)));
  EXPECT_TRUE(analyzer.complete());
}

TEST(LogicAnalyzer, RearmClearsState) {
  AnalyzerConfig config;
  config.buffer_depth = 2;
  LogicAnalyzer analyzer(config);
  analyzer.arm();
  (void)analyzer.sample(record_with_active(1, 1));
  analyzer.arm();  // re-arm mid-capture
  (void)analyzer.sample(record_with_active(2, 10));
  (void)analyzer.sample(record_with_active(2, 11));
  const auto buffer = analyzer.transfer();
  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.front().cycle, 10u);
}

TEST(LogicAnalyzer, TransferBeforeCompleteIsContractViolation) {
  LogicAnalyzer analyzer{AnalyzerConfig{}};
  analyzer.arm();
  EXPECT_THROW((void)analyzer.transfer(), ContractViolation);
}

TEST(LogicAnalyzer, RecordsReadTheCompletedBufferInPlace) {
  AnalyzerConfig config;
  config.buffer_depth = 2;
  LogicAnalyzer analyzer(config);
  analyzer.arm();
  (void)analyzer.sample(record_with_active(1, 7));
  EXPECT_THROW((void)analyzer.records(), ContractViolation);
  (void)analyzer.sample(record_with_active(2, 8));
  ASSERT_TRUE(analyzer.complete());
  ASSERT_EQ(analyzer.records().size(), 2u);
  EXPECT_EQ(analyzer.records().front().cycle, 7u);
  const auto buffer = analyzer.transfer();
  ASSERT_EQ(buffer.size(), 2u);
  EXPECT_EQ(buffer.back().cycle, 8u);
  EXPECT_EQ(analyzer.state(), AnalyzerState::kDisarmed);
}

TEST(LogicAnalyzer, CompleteAnalyzerIgnoresSamples) {
  AnalyzerConfig config;
  config.buffer_depth = 1;
  LogicAnalyzer analyzer(config);
  analyzer.arm();
  (void)analyzer.sample(record_with_active(1, 5));
  ASSERT_TRUE(analyzer.complete());
  EXPECT_FALSE(analyzer.sample(record_with_active(2, 6)));
  const auto buffer = analyzer.transfer();
  EXPECT_EQ(buffer.front().cycle, 5u);
}

TEST(LogicAnalyzer, RejectsBadConfig) {
  AnalyzerConfig zero_depth;
  zero_depth.buffer_depth = 0;
  EXPECT_THROW(LogicAnalyzer{zero_depth}, ContractViolation);

  AnalyzerConfig wide_width;
  wide_width.full_width = 64;  // Topology ceiling: accepted.
  EXPECT_NO_THROW(LogicAnalyzer{wide_width});

  AnalyzerConfig bad_width;
  bad_width.full_width = 65;  // Past kMaxTopologyCes: rejected.
  EXPECT_THROW(LogicAnalyzer{bad_width}, ContractViolation);
}

TEST(ProbeRecord, ActiveCountPopcounts) {
  ProbeRecord record;
  record.active_mask = 0b10110001;
  EXPECT_EQ(record.active_count(), 4u);
  EXPECT_TRUE(record.ce_active(0));
  EXPECT_FALSE(record.ce_active(1));
  EXPECT_TRUE(record.ce_active(7));
}

TEST(Channels, ProbeSetFitsTheInstrument) {
  EXPECT_LE(channels_used(8, 2), kAnalyzerChannels);
}

}  // namespace
}  // namespace repro::instr
