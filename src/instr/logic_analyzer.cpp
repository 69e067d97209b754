#include "instr/logic_analyzer.hpp"

#include <utility>

#include "base/expect.hpp"

namespace repro::instr {

LogicAnalyzer::LogicAnalyzer(const AnalyzerConfig& config)
    : config_(config) {
  REPRO_EXPECT(config.buffer_depth > 0, "buffer depth must be positive");
  REPRO_EXPECT(config.full_width >= 1 && config.full_width <= kMaxTopologyCes,
               "full width must be 1..64");
}

void LogicAnalyzer::arm() {
  buffer_.clear();
  buffer_.reserve(config_.buffer_depth);
  have_previous_ = false;
  previous_active_ = 0;
  state_ = config_.trigger == TriggerMode::kImmediate
               ? AnalyzerState::kCapturing
               : AnalyzerState::kArmed;
}

bool LogicAnalyzer::trigger_fires(const ProbeRecord& record) {
  const std::uint32_t active = record.active_count();
  switch (config_.trigger) {
    case TriggerMode::kImmediate:
      return true;
    case TriggerMode::kAllActive:
      return active == config_.full_width;
    case TriggerMode::kTransitionFromFull: {
      const bool fires = have_previous_ &&
                         previous_active_ == config_.full_width &&
                         active < config_.full_width;
      return fires;
    }
  }
  return false;
}

bool LogicAnalyzer::sample(const ProbeRecord& record) {
  switch (state_) {
    case AnalyzerState::kDisarmed:
    case AnalyzerState::kComplete:
      return false;
    case AnalyzerState::kArmed: {
      const bool fires = trigger_fires(record);
      previous_active_ = record.active_count();
      have_previous_ = true;
      if (!fires) {
        return false;
      }
      state_ = AnalyzerState::kCapturing;
      [[fallthrough]];
    }
    case AnalyzerState::kCapturing:
      buffer_.push_back(record);
      if (buffer_.size() == config_.buffer_depth) {
        state_ = AnalyzerState::kComplete;
        return true;
      }
      return false;
  }
  return false;
}

std::span<const ProbeRecord> LogicAnalyzer::records() const {
  REPRO_EXPECT(complete(), "read before the acquisition completed");
  return buffer_;
}

std::vector<ProbeRecord> LogicAnalyzer::transfer() {
  REPRO_EXPECT(complete(), "transfer before the acquisition completed");
  state_ = AnalyzerState::kDisarmed;
  return std::exchange(buffer_, {});
}

}  // namespace repro::instr
