// Contention-scenario differential tests: the lock and RCU workloads
// must be bit-identical across every execution strategy the study
// engine offers — single- vs. multi-threaded, dispatched vs.
// scalar-forced SIMD, detached clusters — and their
// in-flight state must survive a capsule round trip exactly.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/study.hpp"
#include "instr/session_controller.hpp"
#include "os/system.hpp"
#include "workload/generator.hpp"
#include "workload/presets.hpp"

namespace repro::core {
namespace {

std::vector<workload::WorkloadMix> contention_mixes() {
  return {workload::lock_contention_mix(workload::LockType::kTicket),
          workload::lock_contention_mix(workload::LockType::kMcs),
          workload::rcu_search_mix()};
}

StudyConfig contention_config(std::uint32_t threads = 1) {
  StudyConfig config;
  config.samples_per_session = 6;
  config.replicates_per_session = 8;
  config.sampling.interval_cycles = 6000;
  config.warmup_cycles = 2000;
  config.threads = threads;
  return config;
}

void expect_identical(const StudyResult& a, const StudyResult& b) {
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  EXPECT_EQ(a.totals.num, b.totals.num);
  EXPECT_EQ(a.totals.ceop, b.totals.ceop);
  EXPECT_EQ(a.totals.membop, b.totals.membop);
  EXPECT_EQ(a.totals.records, b.totals.records);
  EXPECT_EQ(a.overall.cw, b.overall.cw);
  EXPECT_EQ(a.overall.pc, b.overall.pc);
  EXPECT_EQ(a.ff.skipped_cycles, b.ff.skipped_cycles);
  EXPECT_EQ(a.ff.jumps, b.ff.jumps);
  for (std::size_t s = 0; s < a.sessions.size(); ++s) {
    EXPECT_EQ(a.sessions[s].name, b.sessions[s].name);
    EXPECT_EQ(a.sessions[s].totals.num, b.sessions[s].totals.num);
    EXPECT_EQ(a.sessions[s].overall.cw, b.sessions[s].overall.cw);
    ASSERT_EQ(a.sessions[s].samples.size(), b.sessions[s].samples.size());
    for (std::size_t i = 0; i < a.sessions[s].samples.size(); ++i) {
      EXPECT_EQ(a.sessions[s].samples[i].measures.cw,
                b.sessions[s].samples[i].measures.cw);
      EXPECT_EQ(a.sessions[s].samples[i].bus_busy,
                b.sessions[s].samples[i].bus_busy);
    }
  }
}

// The FIFO critical-section chains exercise the CCB dependence release
// far harder than the numeric presets; the pooled replicate tasks must
// still reproduce the serial path bit-for-bit.
TEST(ContentionStudy, ThreadedMatchesSerial) {
  const auto mixes = contention_mixes();
  expect_identical(run_study(mixes, contention_config(1)),
                   run_study(mixes, contention_config(4)));
}

TEST(ContentionStudy, ScalarForcedMatchesDispatched) {
  const auto mixes = contention_mixes();
  const StudyConfig config = contention_config();
  // Restore the caller's setting afterwards: a scalar-forced run of the
  // suite must keep the scalar pass for every test that follows.
  const char* caller = std::getenv("FX8_FORCE_SCALAR");
  const std::optional<std::string> saved =
      caller != nullptr ? std::optional<std::string>(caller) : std::nullopt;
  const StudyResult dispatched = run_study(mixes, config);
  ASSERT_EQ(setenv("FX8_FORCE_SCALAR", "1", 1), 0);
  const StudyResult scalar = run_study(mixes, config);
  ASSERT_EQ(saved ? setenv("FX8_FORCE_SCALAR", saved->c_str(), 1)
                  : unsetenv("FX8_FORCE_SCALAR"),
            0);
  expect_identical(dispatched, scalar);
}

// Detached CEs never take the fast lane path; the lock chains must
// still pool bit-identically on a narrow, partially-detached cluster.
TEST(ContentionStudy, DetachedClusterThreadedMatchesSerial) {
  const auto mixes = contention_mixes();
  StudyConfig serial_config = contention_config(1);
  serial_config.system.machine.cluster.n_ces = 4;
  serial_config.system.machine.cluster.detached_ces = 1;
  serial_config.replicates_per_session = 4;
  StudyConfig threaded_config = serial_config;
  threaded_config.threads = 4;
  expect_identical(run_study(mixes, serial_config),
                   run_study(mixes, threaded_config));
}

// --- Capsule round trip of in-flight lock state ------------------------

struct Rig {
  os::System system;
  workload::WorkloadGenerator generator;
  instr::SessionController controller;
  Rig(const workload::WorkloadMix& mix, std::uint64_t seed)
      : system(os::SystemConfig{}),
        generator(mix, seed),
        controller(system, generator, instr::SamplingConfig{},
                   seed ^ 0x5A5AULL) {}
};

// A session stopped mid-stream — with partially-executed dependence
// chains (queued "lock waiters") live inside the CCB — must restore to
// the same digest and re-seal to the very bytes it was loaded from.
TEST(ContentionCapsule, MidStreamLockStateRoundTrips) {
  for (const workload::WorkloadMix& mix : contention_mixes()) {
    Rig rig(mix, 0xC0DE);
    rig.controller.advance(9000);  // Mid-round, nothing aligned.

    const std::uint64_t before =
        session_digest(rig.system, rig.generator, rig.controller);
    const auto sealed =
        save_session(rig.system, rig.generator, rig.controller);

    Rig fresh(mix, 0xD00D);  // Genuinely different state before loading.
    EXPECT_NE(session_digest(fresh.system, fresh.generator,
                             fresh.controller),
              before)
        << mix.name;
    load_session(sealed, fresh.system, fresh.generator, fresh.controller);
    EXPECT_EQ(session_digest(fresh.system, fresh.generator,
                             fresh.controller),
              before)
        << mix.name;
    EXPECT_EQ(save_session(fresh.system, fresh.generator, fresh.controller),
              sealed)
        << mix.name;

    // And the restored rig keeps ticking in lockstep with the original.
    rig.controller.advance(5000);
    fresh.controller.advance(5000);
    EXPECT_EQ(session_digest(fresh.system, fresh.generator,
                             fresh.controller),
              session_digest(rig.system, rig.generator, rig.controller))
        << mix.name;
  }
}

}  // namespace
}  // namespace repro::core
