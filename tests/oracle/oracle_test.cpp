// The differential oracle: every fast configuration is held to the naive
// reference (fx8::lane_pass_reference pinned, so every CE steps through
// Ce::tick(), and fast-forward off), run in lockstep over the same input.
// Rows: ff (lane horizons, fast-forward on), lane_only (lane horizons,
// fast-forward off) and checkpoint (ff plus save_session -> fresh rig ->
// load_session at every boundary, the re-sealed bytes equal to the
// saved; the loaded machine's quiet horizon equal to the saved one's and
// the row's fast-forward accounting equal to the ff row's, so a loaded
// run takes the same jump decisions). At the warmup end
// and after every sample or capture a row must match the reference on
// System::state_digest(), the generator and controller walks and the
// boundary's record, and its skipped + block + naive cycles must sum to
// its clock; a mismatch names the first divergent component
// (oracle.hpp). The study table compares whole StudyResult digests.
#include "oracle/oracle.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cctype>
#include <functional>
#include <memory>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "base/capsule.hpp"
#include "core/checkpoint.hpp"
#include "core/study.hpp"
#include "workload/presets.hpp"

namespace repro::oracle {
namespace {

/// One oracle input: a workload mix on a machine shape ("fxN", "fxNdM"
/// with M detached CEs, "fx16" or "fx64") under one measurement schedule:
/// a warmup, then `samples` boundaries, one per sampled interval or, when
/// `trigger` is set, per triggered capture.
struct Input {
  workload::WorkloadMix mix;
  std::string shape;
  instr::SamplingConfig sampling;
  Cycle warmup = 0;
  std::uint32_t samples = 0;
  std::optional<instr::TriggerMode> trigger;
};

// Names the parameterised cases: "session_3_numeric_heavy_fx64".
void PrintTo(const Input& input, std::ostream* os) {
  std::string name = input.mix.name + "_" + input.shape;
  if (input.trigger) {
    name.insert(0, *input.trigger == instr::TriggerMode::kAllActive
                       ? "all_active_"
                       : "from_full_");
  }
  for (char& c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) == 0) {
      c = '_';
    }
  }
  *os << name;
}

/// Fixed rig seeds: the oracle compares configurations, not seeds.
constexpr std::uint64_t kGeneratorSeed = 0xFEED5EED;
constexpr std::uint64_t kControllerSeed = 0xACE0FACE;
constexpr Cycle kCaptureTimeout = 20000;

Input make_input(const workload::WorkloadMix& mix, const std::string& shape,
                 Cycle warmup, std::uint32_t samples, Cycle interval,
                 std::uint32_t snapshots = 5,
                 std::optional<instr::TriggerMode> trigger = std::nullopt) {
  Input input{mix, shape, {}, warmup, samples, trigger};
  input.sampling.interval_cycles = interval;
  input.sampling.snapshots_per_sample = snapshots;
  input.sampling.buffer_depth = 256;
  return input;
}

os::SystemConfig system_config(const std::string& shape) {
  os::SystemConfig config;
  if (shape == "fx16") {
    config.machine = fx8::MachineConfig::fx16();
  } else if (shape == "fx64") {
    config.machine = fx8::MachineConfig::fx64();
  } else {
    const std::size_t d = shape.find('d');
    config.machine.cluster.n_ces =
        static_cast<std::uint32_t>(std::stoul(shape.substr(2, d - 2)));
    if (d != std::string::npos) {
      config.machine.cluster.detached_ces =
          static_cast<std::uint32_t>(std::stoul(shape.substr(d + 1)));
    }
  }
  return config;
}

instr::SamplingConfig with_ff(instr::SamplingConfig sampling,
                              bool fast_forward) {
  sampling.fast_forward = fast_forward;
  return sampling;
}

/// One measurement rig: the system, the workload feeding it and the
/// controller sampling it.
struct Rig {
  os::System system;
  workload::WorkloadGenerator generator;
  instr::SessionController controller;

  /// `reference` pins fx8::lane_pass_reference (every CE steps every
  /// cycle); otherwise the machine keeps its lane horizons.
  Rig(const Input& input, bool fast_forward, bool reference = false)
      : system(system_config(input.shape)),
        generator(input.mix, kGeneratorSeed),
        controller(system, generator, with_ff(input.sampling, fast_forward),
                   kControllerSeed) {
    if (reference) {
      system.machine().set_lane_pass(&fx8::lane_pass_reference);
    }
  }

  /// Every component of the session walk, in walk order.
  std::vector<Component> components() {
    std::vector<Component> out;
    const auto add = [&out](std::string path, auto&& walk) {
      capsule::Io io = capsule::Io::digester();
      walk(io);
      out.push_back({std::move(path), io.digest()});
    };
    add("counters", [&](capsule::Io& io) { system.counters().serialize(io); });
    add("vm", [&](capsule::Io& io) { system.vm().serialize(io); });
    for (Component& c : machine_components(system.machine())) {
      out.push_back(std::move(c));
    }
    add("scheduler",
        [&](capsule::Io& io) { system.scheduler().serialize(io); });
    add("generator", [&](capsule::Io& io) { generator.serialize(io); });
    add("controller",
        [&](capsule::Io& io) { controller.serialize_schedule(io); });
    return out;
  }

  /// What a boundary is compared on.
  std::array<std::uint64_t, 3> key(std::uint64_t record) {
    capsule::Io io = capsule::Io::digester();
    generator.serialize(io);
    controller.serialize_schedule(io);
    return {system.state_digest(), io.digest(), record};
  }

  /// Advance to `boundary`; returns the digest of what the step recorded
  /// (the sample, or the captured window's counts).
  std::uint64_t advance(const Input& input, std::uint32_t boundary) {
    capsule::Io io = capsule::Io::digester();
    if (boundary == 0) {
      controller.advance(input.warmup);
    } else if (input.trigger) {
      auto window =
          controller.capture_triggered(*input.trigger, kCaptureTimeout);
      bool fired = window.has_value();
      io.boolean(fired);
      if (window) {
        window->counts.serialize(io);
        for (std::uint64_t& n : window->transition_proc) {
          io.u64(n);
        }
      }
    } else {
      instr::SampleRecord record = controller.take_sample();
      record.serialize(io);
    }
    return io.digest();
  }

  std::vector<std::uint8_t> save() {
    return core::save_session(system, generator, controller);
  }
};

struct Row {
  const char* name;
  bool fast_forward;
  bool checkpoint;
};

/// The ff row comes first: the checkpoint row's accounting is held to
/// what it recorded at the same boundary.
constexpr Row kRows[] = {
    {"ff", true, false},
    {"lane_only", false, false},
    {"checkpoint", true, true},
};

/// A planted divergence (self-test): runs on the ff row's rig and its
/// boundary record once the row reaches kFaultBoundary.
using Fault = std::function<void(Rig&, std::uint64_t& record)>;
constexpr std::uint32_t kFaultBoundary = 1;

/// Run the reference and every row in lockstep over the input's
/// boundaries. Returns nothing when every row matched everywhere, else
/// "row ff, mix session-3-numeric-heavy, shape fx64: first divergence at
/// boundary 2 in machine.cluster[3].ce[5]".
std::optional<std::string> run(const Input& input,
                               const Fault& fault = nullptr) {
  Rig reference(input, /*fast_forward=*/false, /*reference=*/true);
  std::vector<std::unique_ptr<Rig>> rigs;
  for (const Row& row : kRows) {
    rigs.push_back(
        std::make_unique<Rig>(input, row.fast_forward));
  }
  for (std::uint32_t b = 0; b <= input.samples; ++b) {
    const auto expected = reference.key(reference.advance(input, b));
    for (std::size_t r = 0; r < rigs.size(); ++r) {
      const Row& row = kRows[r];
      std::unique_ptr<Rig>& rig = rigs[r];
      std::uint64_t record = rig->advance(input, b);
      if (fault && r == 0 && b == kFaultBoundary) {
        fault(*rig, record);
      }
      std::string component;
      if (row.checkpoint) {
        const std::vector<std::uint8_t> sealed = rig->save();
        auto fresh =
            std::make_unique<Rig>(input, row.fast_forward);
        core::load_session(sealed, fresh->system, fresh->generator,
                           fresh->controller);
        if (fresh->save() != sealed) {
          component = first_divergence(rig->components(), fresh->components());
        } else if (fresh->system.machine().quiet_horizon() !=
                   rig->system.machine().quiet_horizon()) {
          component = "machine.quiet_horizon (after load)";
        } else if (rig->controller.ff_stats() !=
                   rigs[0]->controller.ff_stats()) {
          component = "controller.ff_stats (vs row ff)";
        }
        rig = std::move(fresh);
      }
      const instr::FastForwardStats& ff = rig->controller.ff_stats();
      if (component.empty() &&
          ff.skipped_cycles + ff.block_cycles + ff.naive_cycles !=
              rig->system.now()) {
        component = "controller.ff_stats (split does not sum to now)";
      }
      if (component.empty() && rig->key(record) != expected) {
        component = first_divergence(reference.components(), rig->components());
      }
      if (!component.empty()) {
        return "row " + std::string(row.name) + ", mix " + input.mix.name +
               ", shape " + input.shape + ": first divergence at boundary " +
               std::to_string(b) + " in " + component;
      }
    }
  }
  return std::nullopt;
}

/// The nine session presets plus the lock and RCU contention mixes.
std::vector<workload::WorkloadMix> mixes() {
  std::vector<workload::WorkloadMix> all = workload::session_presets();
  all.push_back(workload::lock_contention_mix(workload::LockType::kTicket));
  all.push_back(workload::lock_contention_mix(workload::LockType::kMcs));
  all.push_back(workload::rcu_search_mix());
  return all;
}

/// Sampled schedule: two 12,000-cycle samples of five 256-deep
/// acquisitions after a 3,000-cycle warmup.
std::vector<Input> sampled_inputs() {
  std::vector<Input> inputs;
  for (const workload::WorkloadMix& mix : mixes()) {
    for (const char* shape :
         {"fx1", "fx2", "fx4", "fx4d2", "fx8", "fx8d2", "fx16", "fx64"}) {
      inputs.push_back(make_input(mix, shape, 3000, 2, 12000));
    }
  }
  return inputs;
}

/// Tight-latch schedule: 2,048-cycle intervals holding four 256-deep
/// acquisitions, so every quiet stretch abuts a probe-latch boundary.
/// Triggered schedule: three 256-deep captures after a warmup. One job
/// spans one cluster, so on FX/16 and FX/64 the triggers time out and
/// those cases compare the timeout path.
std::vector<Input> latch_inputs() {
  std::vector<Input> inputs;
  for (const char* shape : {"fx8", "fx16", "fx64"}) {
    inputs.push_back(
        make_input(workload::session_presets()[2], shape, 1000, 6, 2048, 4));
    for (const instr::TriggerMode trigger :
         {instr::TriggerMode::kAllActive,
          instr::TriggerMode::kTransitionFromFull}) {
      inputs.push_back(make_input(workload::high_concurrency_mix(), shape,
                                  5000, 3, 120000, 5, trigger));
    }
  }
  return inputs;
}

class Oracle : public ::testing::TestWithParam<Input> {};

TEST_P(Oracle, EveryRowMatchesTheReference) {
  EXPECT_EQ(run(GetParam()), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(Sampled, Oracle, ::testing::ValuesIn(sampled_inputs()),
                         ::testing::PrintToStringParamName());
INSTANTIATE_TEST_SUITE_P(Latched, Oracle, ::testing::ValuesIn(latch_inputs()),
                         ::testing::PrintToStringParamName());

/// Digest of a whole StudyResult; `with_ff` false zeroes the fast-forward
/// bookkeeping first (by design it differs between fast and naive runs).
std::uint64_t study_digest(core::StudyResult result, bool with_ff) {
  if (!with_ff) {
    result.ff = {};
    for (core::SessionResult& session : result.sessions) {
      session.ff = {};
    }
  }
  capsule::Io io = capsule::Io::digester();
  result.serialize(io);
  return io.digest();
}

/// Machine shape.
class StudyOracle : public ::testing::TestWithParam<std::string> {};

// threads = 4 must reproduce threads = 1 bit for bit, ff bookkeeping
// included; fast-forward off must reproduce it up to that bookkeeping.
TEST_P(StudyOracle, PooledAndNaiveMatchSerial) {
  core::StudyConfig config;
  config.system = system_config(GetParam());
  config.samples_per_session = 8;
  config.sampling.interval_cycles = 3000;
  config.sampling.buffer_depth = 256;
  config.warmup_cycles = 1000;
  config.threads = 1;
  const std::vector<workload::WorkloadMix> all = mixes();
  const core::StudyResult serial = core::run_study(all, config);
  config.threads = 4;
  const core::StudyResult pooled = core::run_study(all, config);
  config.fast_forward = false;
  const core::StudyResult naive = core::run_study(all, config);

  EXPECT_EQ(study_digest(pooled, true), study_digest(serial, true));
  EXPECT_EQ(study_digest(naive, false), study_digest(serial, false));
  EXPECT_GT(serial.ff.skipped_cycles, 0u);
  EXPECT_EQ(naive.ff.skipped_cycles, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, StudyOracle,
                         ::testing::Values(std::string("fx8"),
                                           std::string("fx4d1")),
                         [](const auto& param) { return param.param; });

/// Flip one bit of a component through its own walk: save, flip the low
/// bit of the byte `from_end` bytes before the end, load.
template <typename Part>
void flip_bit(Part& part, std::size_t from_end) {
  capsule::Io saver = capsule::Io::saver();
  part.serialize(saver);
  std::vector<std::uint8_t> bytes = saver.bytes();
  bytes[bytes.size() - from_end] ^= 1;
  capsule::Io loader = capsule::Io::loader(std::move(bytes));
  part.serialize(loader);
}

// A bit flipped after boundary 1 in one component of the ff row must be
// reported at exactly that boundary and component. A record that differs
// while every component walk agrees has no component to name; it still
// fails, as "unattributed".
TEST(OracleSelfTest, NamesThePlantedDivergence) {
  struct Case {
    const char* shape;
    const char* component;
    Fault fault;
  };
  // Each walk ends in a u64 counter (8 from the end); the generator's
  // ends in a bool after its arrival clock (9 from the end).
  const Case cases[] = {
      {"fx8", "counters",
       [](Rig& r, auto&) { flip_bit(r.system.counters(), 8); }},
      {"fx8", "machine.membus",
       [](Rig& r, auto&) { flip_bit(r.system.machine().membus(), 8); }},
      {"fx8", "machine.shared_cache",
       [](Rig& r, auto&) { flip_bit(r.system.machine().shared_cache(), 8); }},
      {"fx64", "machine.cluster[3].ce[5]",
       [](Rig& r, auto&) {
         flip_bit(r.system.machine().cluster(3).ce(5), 8);
       }},
      {"fx8", "generator", [](Rig& r, auto&) { flip_bit(r.generator, 9); }},
      {"fx8", "unattributed", [](Rig&, std::uint64_t& record) { record ^= 1; }},
  };
  for (const Case& c : cases) {
    const Input input =
        make_input(workload::session_presets()[2], c.shape, 3000, 2, 12000);
    EXPECT_EQ(run(input, c.fault),
              "row ff, mix session-3-numeric-heavy, shape " +
                  std::string(c.shape) +
                  ": first divergence at boundary 1 in " + c.component);
  }
}

}  // namespace
}  // namespace repro::oracle
