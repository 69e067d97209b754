// DAS 9100-style logic analyzer.
//
// "This instrument acquires the state of up to 80 signals, and stores this
// data in a 512-deep buffer memory. The DAS is fully controllable through
// an i/o port" (§3.3). Fed one latched probe record per cycle, this class
// is the instrument itself: the per-cycle reference for the session
// controller, which reads the same acquisitions off the machine's probe
// counters instead (instr/session_controller.hpp) and is held to this
// analyzer by tests/instr/probe_window_test.cpp. Three trigger modes
// cover the study's experiments:
//   * immediate      — random workload sampling (§3.5, first group),
//   * all-active     — trigger when all N processors are concurrent-active
//                      (§3.5, ten high-concurrency sessions),
//   * transition     — trigger when activity falls from all-active to
//                      fewer (§3.5, five transition sessions).
// Hardware monitoring is non-intrusive: the analyzer only reads the probe
// record the machine already exposes. An acquisition stops when the
// buffer fills, so the buffer is a plain vector reserved to its depth.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

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
};

class LogicAnalyzer {
 public:
  explicit LogicAnalyzer(const AnalyzerConfig& config);

  /// Arm for a new acquisition (clears any previous buffer, keeping its
  /// storage).
  void arm();

  /// Present one probe record (call every sample clock while attached).
  /// Returns true when this record completed the acquisition.
  bool sample(const ProbeRecord& record);

  [[nodiscard]] AnalyzerState state() const { return state_; }
  [[nodiscard]] bool complete() const {
    return state_ == AnalyzerState::kComplete;
  }

  /// The completed acquisition, oldest first (requires complete()); valid
  /// until the next arm() or transfer().
  [[nodiscard]] std::span<const ProbeRecord> records() const;

  /// Move the acquisition buffer out (requires complete()); the analyzer
  /// returns to disarmed.
  [[nodiscard]] std::vector<ProbeRecord> transfer();

 private:
  [[nodiscard]] bool trigger_fires(const ProbeRecord& record);

  AnalyzerConfig config_;
  AnalyzerState state_ = AnalyzerState::kDisarmed;
  std::vector<ProbeRecord> buffer_;
  std::uint32_t previous_active_ = 0;
  bool have_previous_ = false;
};

}  // namespace repro::instr
