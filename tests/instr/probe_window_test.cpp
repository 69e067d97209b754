// The probe's counters against its per-cycle reference: an acquisition
// the session controller counts off the machine's cumulative counters
// (fx8::ProbeCounters) must equal, field for field, the same cycles fed
// one latched record at a time to a LogicAnalyzer and reduced, and both
// must leave the system in the same state at the same cycle.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "instr/logic_analyzer.hpp"
#include "instr/reduction.hpp"
#include "instr/session_controller.hpp"
#include "workload/presets.hpp"

namespace repro::instr {
namespace {

constexpr std::uint64_t kGeneratorSeed = 0x5EED;
constexpr std::uint64_t kControllerSeed = 0xC0DE;
constexpr std::size_t kDepth = 256;

struct Shape {
  std::string name;
  os::SystemConfig config;
  workload::WorkloadMix mix;
  Cycle warmup = 0;
  /// Whether every CE is ever active: the triggers can fire.
  bool fills = false;
};

std::vector<Shape> shapes() {
  const std::vector<workload::WorkloadMix> sessions =
      workload::session_presets();
  // Each mix and warmup is picked so the machine fills some thousands of
  // cycles after the warmup and drops from full later still.
  Shape fx8{"fx8", {}, sessions[2], 3000, true};
  Shape fx16{"fx16d1", {}, sessions[4], 20000, true};
  fx16.config.machine = fx8::MachineConfig::fx16();
  fx16.config.machine.cluster.detached_ces = 1;
  // A light session never fills 64 CEs (its armed captures time out) and
  // leaves quiet stretches, so its windows hold jumps.
  Shape fx64{"fx64", {}, sessions[0], 3000, false};
  fx64.config.machine = fx8::MachineConfig::fx64();
  return {fx8, fx16, fx64};
}

struct Rig {
  explicit Rig(const Shape& shape)
      : system(shape.config),
        generator(shape.mix, kGeneratorSeed),
        controller(system, generator, sampling(), kControllerSeed) {
    controller.advance(shape.warmup);
  }

  static SamplingConfig sampling() {
    SamplingConfig config;
    config.buffer_depth = kDepth;
    return config;
  }

  /// One lockstep cycle, exactly as the controller's naive step.
  void step() {
    generator.tick(system);
    system.tick();
  }

  [[nodiscard]] std::uint32_t active() const {
    return static_cast<std::uint32_t>(
        std::popcount(system.machine().active_mask()));
  }
  [[nodiscard]] std::uint32_t width() const {
    return system.machine().total_ces();
  }

  os::System system;
  workload::WorkloadGenerator generator;
  SessionController controller;
};

/// The per-cycle reference: lockstep cycles, each latched into an armed
/// analyzer, until it completes or `timeout` cycles pass; the buffer
/// folded into a window record by record.
std::optional<ProbeWindow> latched_capture(Rig& rig, TriggerMode trigger,
                                           Cycle timeout) {
  const fx8::Machine& machine = rig.system.machine();
  const std::uint32_t n_ces = machine.total_ces();
  const std::uint32_t n_buses = machine.mem_bus_count();
  LogicAnalyzer analyzer(
      {.buffer_depth = kDepth, .trigger = trigger, .full_width = n_ces});
  analyzer.arm();
  for (Cycle c = 0; c < timeout; ++c) {
    rig.step();
    if (analyzer.sample(latch(machine))) {
      break;
    }
  }
  if (!analyzer.complete()) {
    return std::nullopt;
  }
  ProbeWindow window;
  for (const ProbeRecord& record : analyzer.records()) {
    window.add(record, n_ces, n_buses);
  }
  EXPECT_EQ(window.counts, reduce(analyzer.records(), n_ces, n_buses));
  return window;
}

/// Lockstep steps from the warmed-up rig after which the active count
/// reads `from` and, one step later, `to` (any count, when `to` is
/// unset); nullopt if none within `limit` steps.
std::optional<Cycle> steps_before(
    const Shape& shape, const std::function<bool(const Rig&)>& from,
    const std::function<bool(const Rig&)>& to = nullptr,
    Cycle limit = 200000) {
  Rig scout(shape);
  bool held = from(scout);
  for (Cycle steps = 0; steps < limit; ++steps) {
    if (held && !to) {
      return steps;
    }
    scout.step();
    if (held && to(scout)) {
      return steps;
    }
    held = from(scout);
  }
  return std::nullopt;
}

bool all_active(const Rig& rig) { return rig.active() == rig.width(); }

struct Outcome {
  bool fired = false;
  Cycle advanced = 0;
  std::uint64_t jumps = 0;  ///< Jumps the counted capture took.
};

/// Capture once by counters and once by latches on two identical rigs,
/// each first stepped `position` lockstep cycles past the warmup, and
/// require the same window, clock and state.
Outcome compare(const Shape& shape, TriggerMode trigger, Cycle timeout,
                Cycle position = 0) {
  Rig counted(shape);
  Rig latched(shape);
  for (Cycle s = 0; s < position; ++s) {
    counted.step();
    latched.step();
  }
  const Cycle start = counted.system.now();
  const std::uint64_t jumps = counted.controller.ff_stats().jumps;
  const std::optional<ProbeWindow> window =
      counted.controller.capture_triggered(trigger, timeout);
  const std::optional<ProbeWindow> reference =
      latched_capture(latched, trigger, timeout);
  EXPECT_EQ(window.has_value(), reference.has_value());
  if (window && reference) {
    EXPECT_EQ(window->counts, reference->counts);
    EXPECT_EQ(window->transition_proc, reference->transition_proc);
    EXPECT_EQ(window->counts.records, kDepth);
  }
  EXPECT_EQ(counted.system.now(), latched.system.now());
  EXPECT_EQ(counted.system.state_digest(), latched.system.state_digest());
  return {window.has_value(), counted.system.now() - start,
          counted.controller.ff_stats().jumps - jumps};
}

TEST(ProbeWindow, CountersMatchLatchedRecords) {
  for (const Shape& shape : shapes()) {
    SCOPED_TRACE(shape.name);
    {
      SCOPED_TRACE("immediate");
      const Outcome out = compare(shape, TriggerMode::kImmediate, 20000);
      EXPECT_TRUE(out.fired);
      EXPECT_EQ(out.advanced, kDepth);
      if (shape.name == "fx64") {
        EXPECT_GT(out.jumps, 0u) << "the window held no jump";
      }
    }
    {
      SCOPED_TRACE("immediate, timeout mid-capture");
      const Outcome out = compare(shape, TriggerMode::kImmediate, kDepth / 2);
      EXPECT_FALSE(out.fired);
      EXPECT_EQ(out.advanced, kDepth / 2);
    }
    const std::optional<Cycle> full = steps_before(shape, all_active);
    ASSERT_EQ(full.has_value(), shape.fills);
    const Cycle armed_timeout = full ? 200000 : 20000;
    {
      SCOPED_TRACE("all active");
      const Outcome out =
          compare(shape, TriggerMode::kAllActive, armed_timeout);
      EXPECT_EQ(out.fired, full.has_value());
      if (full) {
        // Fires on the armed cycle that first latches every CE active.
        EXPECT_EQ(out.advanced, *full + kDepth - 1);
      }
    }
    {
      SCOPED_TRACE("transition from full");
      const Outcome out =
          compare(shape, TriggerMode::kTransitionFromFull, armed_timeout);
      EXPECT_EQ(out.fired, full.has_value());
    }
    if (!full) {
      continue;
    }
    {
      SCOPED_TRACE("all active, already holding when armed");
      const Outcome out =
          compare(shape, TriggerMode::kAllActive, armed_timeout, *full);
      EXPECT_TRUE(out.fired);
      EXPECT_EQ(out.advanced, kDepth) << "did not fire on the first cycle";
    }
    {
      SCOPED_TRACE("all active, timeout mid-capture");
      const Outcome whole =
          compare(shape, TriggerMode::kAllActive, armed_timeout);
      ASSERT_GE(whole.advanced, kDepth);
      // The trigger fires kDepth cycles before the end: stop halfway in.
      const Cycle timeout = whole.advanced - kDepth / 2;
      const Outcome out = compare(shape, TriggerMode::kAllActive, timeout);
      EXPECT_FALSE(out.fired);
      EXPECT_EQ(out.advanced, timeout);
    }
    {
      SCOPED_TRACE("transition, drop on the first armed cycle");
      // Armed on a full cycle whose successor drops: the drop has no
      // armed predecessor, so it must not fire.
      const std::optional<Cycle> before_drop = steps_before(
          shape, all_active, [](const Rig& rig) { return !all_active(rig); });
      ASSERT_TRUE(before_drop.has_value());
      const Outcome out = compare(shape, TriggerMode::kTransitionFromFull,
                                  armed_timeout, *before_drop);
      if (out.fired) {
        EXPECT_GT(out.advanced, kDepth) << "fired on the first armed cycle";
      }
    }
  }
}

}  // namespace
}  // namespace repro::instr
