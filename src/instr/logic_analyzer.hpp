// DAS 9100-style logic analyzer.
//
// "This instrument acquires the state of up to 80 signals, and stores this
// data in a 512-deep buffer memory. The DAS is fully controllable through
// an i/o port" (§3.3). Three trigger modes cover the study's experiments:
//   * immediate      — random workload sampling (§3.5, first group),
//   * all-active     — trigger when all N processors are concurrent-active
//                      (§3.5, ten high-concurrency sessions),
//   * transition     — trigger when activity falls from all-active to
//                      fewer (§3.5, five transition sessions).
// Hardware monitoring is non-intrusive: the analyzer only reads the probe
// record the machine already exposes.
#pragma once

#include <cstdint>
#include <vector>

#include "base/ring_buffer.hpp"
#include "instr/signals.hpp"

namespace repro::instr {

enum class TriggerMode : std::uint8_t {
  kImmediate,
  kAllActive,
  kTransitionFromFull,
};

enum class AnalyzerState : std::uint8_t {
  kDisarmed,
  kArmed,      ///< Watching for the trigger condition.
  kCapturing,  ///< Trigger fired; filling the buffer.
  kComplete,   ///< Buffer full; ready to transfer.
};

struct AnalyzerConfig {
  std::size_t buffer_depth = 512;
  TriggerMode trigger = TriggerMode::kImmediate;
  /// Processor count that constitutes "all active" for the trigger modes.
  std::uint32_t full_width = kMaxCes;

  /// Capsule walk. Unlike most configs this one travels: it is staged
  /// state on the DAS command port, and the controller rebuilds an armed
  /// analyzer from the capsuled copy on load.
  void serialize(capsule::Io& io) {
    auto depth = static_cast<std::uint64_t>(buffer_depth);
    io.u64(depth);
    buffer_depth = static_cast<std::size_t>(depth);
    io.enum32(trigger, TriggerMode::kTransitionFromFull);
    io.u32(full_width);
  }
};

class LogicAnalyzer {
 public:
  explicit LogicAnalyzer(const AnalyzerConfig& config);

  /// Arm for a new acquisition (clears any previous buffer).
  void arm();

  /// Present one probe record (call every sample clock while attached).
  /// Returns true when this record completed the acquisition.
  bool sample(const ProbeRecord& record);

  [[nodiscard]] AnalyzerState state() const { return state_; }
  [[nodiscard]] bool complete() const {
    return state_ == AnalyzerState::kComplete;
  }

  /// Transfer the acquisition buffer (requires complete()); the analyzer
  /// returns to disarmed.
  [[nodiscard]] std::vector<ProbeRecord> transfer();

  [[nodiscard]] const AnalyzerConfig& config() const { return config_; }

  /// Capsule walk over acquisition state. The owner must construct the
  /// analyzer from the capsuled config first (the ring buffer's capacity
  /// is structural); this walks only the mutable state.
  void serialize(capsule::Io& io) {
    io.enum32(state_, AnalyzerState::kComplete);
    buffer_.serialize(io,
                      [](capsule::Io& inner, ProbeRecord& record) {
                        record.serialize(inner);
                      });
    io.u32(previous_active_);
    io.boolean(have_previous_);
  }

 private:
  [[nodiscard]] bool trigger_fires(const ProbeRecord& record);

  AnalyzerConfig config_;
  AnalyzerState state_ = AnalyzerState::kDisarmed;
  RingBuffer<ProbeRecord> buffer_;
  std::uint32_t previous_active_ = 0;
  bool have_previous_ = false;
};

}  // namespace repro::instr
