#include "core/checkpoint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <ios>
#include <limits>
#include <memory>
#include <vector>

#include "base/rng.hpp"
#include "isa/program.hpp"
#include "workload/presets.hpp"

namespace repro::core {
namespace {

instr::SamplingConfig tiny_sampling() {
  instr::SamplingConfig sampling;
  sampling.interval_cycles = 6000;
  return sampling;
}

/// The measurement rig the study engine schedules; member order matters
/// (the controller references the system and the generator).
struct Rig {
  os::System system;
  workload::WorkloadGenerator generator;
  instr::SessionController controller;

  Rig(const workload::WorkloadMix& mix, const os::SystemConfig& config,
      const instr::SamplingConfig& sampling, std::uint64_t seed)
      : system(config),
        generator(mix, mix64(seed ^ 0xABCD)),
        controller(system, generator, sampling, mix64(seed ^ 0x5A5A)) {}
};

std::unique_ptr<Rig> warm_rig(std::size_t preset = 2,
                              std::uint64_t seed = 0x1234) {
  auto rig = std::make_unique<Rig>(workload::session_presets()[preset],
                                   os::SystemConfig{}, tiny_sampling(), seed);
  rig->controller.advance(3000);
  return rig;
}

std::uint64_t digest(instr::SampleRecord record) {
  capsule::Io io = capsule::Io::digester();
  record.serialize(io);
  return io.digest();
}

TEST(CapsuleSession, FingerprintMismatchRejected) {
  auto original = warm_rig();
  const auto sealed = save_session(original->system, original->generator,
                                   original->controller);

  os::SystemConfig narrow;
  narrow.machine.cluster.n_ces = 4;
  Rig other(workload::session_presets()[2], narrow, tiny_sampling(), 0x1234);
  EXPECT_THROW(
      load_session(sealed, other.system, other.generator, other.controller),
      capsule::CapsuleError);
}

TEST(CapsuleSession, LoadIntoUsedRigContinuesIdentically) {
  // A load must leave nothing of the loading rig's own past behind: a
  // rig that ran other jobs on another seed (warm translation memos
  // included) continues exactly like the rig that saved.
  const std::size_t presets[] = {1, 2, 5, 7};
  const std::uint64_t seeds[] = {0x9999, 0x4242, 0x7777};
  for (const std::size_t preset : presets) {
    for (const std::uint64_t seed : seeds) {
      auto saved = warm_rig(preset);
      const auto sealed = save_session(saved->system, saved->generator,
                                       saved->controller);
      Rig used(workload::session_presets()[preset], os::SystemConfig{},
               tiny_sampling(), seed);
      used.controller.advance(30000);
      load_session(sealed, used.system, used.generator, used.controller);
      for (int sample = 0; sample < 3; ++sample) {
        EXPECT_EQ(digest(used.controller.take_sample()),
                  digest(saved->controller.take_sample()))
            << "preset " << preset << ", seed 0x" << std::hex << seed
            << ", sample " << sample;
      }
      EXPECT_EQ(used.system.state_digest(), saved->system.state_digest())
          << "preset " << preset << ", seed 0x" << std::hex << seed;
    }
  }
}

TEST(CapsuleSystem, ArbitraryCycleSaveRestores) {
  // Nothing aligns the capsule to a sample or scheduler boundary: stop
  // at an odd mid-activity cycle and the restored system must still
  // track the original tick for tick.
  auto rig = warm_rig();
  rig->controller.advance(12347);

  const auto sealed = rig->system.save_capsule();
  os::System fresh((os::SystemConfig()));
  fresh.load_capsule(sealed);
  EXPECT_EQ(fresh.state_digest(), rig->system.state_digest());

  rig->system.run(777);
  fresh.run(777);
  EXPECT_EQ(fresh.state_digest(), rig->system.state_digest());
  EXPECT_EQ(fresh.now(), rig->system.now());
}

TEST(CapsuleSystem, RewindRetakesTheFaultItJustTook) {
  // The sharpest used system is the one that saved: run it one cycle past
  // the save, through a cycle in which a CE takes a page fault, and load
  // the capsule back. That CE's translation memo now names the page the
  // loaded state has not mapped, on the very access the CE repeats first,
  // so a load that kept memos would skip the fault.
  Cycle lead = 0;  // Cycles until the next CE page fault, found on a twin.
  {
    auto twin = warm_rig();
    const std::uint64_t faults = twin->system.vm().stats().faults;
    while (twin->system.vm().stats().faults == faults) {
      twin->system.tick();
      ++lead;
      ASSERT_LT(lead, 1'000'000u) << "no CE page fault";
    }
  }
  auto rig = warm_rig();
  os::System& system = rig->system;
  system.run(lead - 1);
  const auto sealed = system.save_capsule();
  const std::uint64_t faults = system.vm().stats().faults;
  system.tick();
  ASSERT_EQ(system.vm().stats().faults, faults + 1);
  const std::uint64_t ahead = system.state_digest();
  system.load_capsule(sealed);
  system.tick();
  EXPECT_EQ(system.vm().stats().faults, faults + 1);
  EXPECT_EQ(system.state_digest(), ahead);
}

TEST(CapsuleSystem, LoadRejectsTamperedCapsule) {
  os::System system((os::SystemConfig()));
  system.run(500);
  auto sealed = system.save_capsule();

  auto version_skew = sealed;
  version_skew[8] = static_cast<std::uint8_t>(capsule::kFormatVersion + 3);
  EXPECT_THROW(system.load_capsule(version_skew), capsule::CapsuleError);

  auto corrupt = sealed;
  corrupt[corrupt.size() / 2] ^= 0x01;
  EXPECT_THROW(system.load_capsule(corrupt), capsule::CapsuleError);

  os::SystemConfig narrow;
  narrow.machine.cluster.n_ces = 4;
  os::System other(narrow);
  EXPECT_THROW(other.load_capsule(sealed), capsule::CapsuleError);
  // The fingerprint check fires before any state is touched.
  EXPECT_EQ(other.now(), 0u);
}

/// A loop job whose body's working set is `working_set` bytes.
os::Job loop_job(JobId id, std::uint64_t working_set) {
  isa::ConcurrentLoopPhase loop;
  loop.trip_count = 64;
  loop.body.steps = 6;
  loop.body.working_set_bytes = working_set;
  os::Job job;
  job.id = id;
  job.program = isa::ProgramBuilder("loop")
                    .data_base(0x01000000)
                    .concurrent_loop(loop)
                    .build();
  return job;
}

TEST(CapsuleSystem, LoadRejectsAProgramItCouldNotRun) {
  // A loop body with no working set passes the envelope once re-sealed,
  // and the next iteration start would divide by it. Every copy of the
  // field (the queued job, the cluster's running program, the CEs'
  // specs), zeroed alone, must be refused at load.
  constexpr std::uint64_t kWorkingSet = 0x5A5A58;
  os::System system((os::SystemConfig()));
  system.scheduler().submit(loop_job(1, kWorkingSet));
  system.scheduler().submit(loop_job(2, kWorkingSet));
  system.run(300);
  ASSERT_TRUE(system.machine().cluster().busy());
  ASSERT_EQ(system.scheduler().queue_depth(), 1u);
  const std::vector<std::uint8_t> payload =
      capsule::unseal(system.save_capsule());
  int copies = 0;
  for (std::size_t at = 0; at + 8 <= payload.size(); ++at) {
    std::uint64_t value = 0;
    for (std::size_t b = 0; b < 8; ++b) {
      value |= static_cast<std::uint64_t>(payload[at + b]) << (8 * b);
    }
    if (value != kWorkingSet) {
      continue;
    }
    ++copies;
    std::vector<std::uint8_t> mutant = payload;
    std::fill_n(mutant.begin() + static_cast<std::ptrdiff_t>(at), 8, 0);
    os::System fresh((os::SystemConfig()));
    EXPECT_THROW(fresh.load_capsule(capsule::seal(mutant)),
                 capsule::CapsuleError)
        << "working set zeroed at payload byte " << at;
  }
  EXPECT_GE(copies, 3);
}

TEST(CapsuleSystem, LoadRejectsABusyClusterWithNoRunningJob) {
  // Jobs loaded straight onto the machine leave the scheduler without
  // the records it reaps them by: a capsule of that state is corrupt.
  os::SystemConfig config;
  config.machine.cluster.detached_ces = 1;
  const isa::Program serial =
      isa::ProgramBuilder("serial").serial(isa::KernelSpec{}, 50).build();
  for (const bool detached : {false, true}) {
    os::System system(config);
    if (detached) {
      system.machine().cluster().load_detached(0, serial, 9);
    } else {
      system.machine().cluster().load(serial, 9);
    }
    system.run(40);
    ASSERT_TRUE(system.machine().cluster().lanes_live());
    const auto sealed = system.save_capsule();
    os::System fresh(config);
    EXPECT_THROW(fresh.load_capsule(sealed), capsule::CapsuleError)
        << (detached ? "detached slot" : "cluster");
  }
}

TEST(CapsuleStudyCheckpoint, ProgressRoundTrips) {
  auto rig = warm_rig();
  StudyCheckpoint progress;
  progress.samples_total = 4;
  for (int i = 0; i < 2; ++i) {
    progress.records.push_back(rig->controller.take_sample());
    ++progress.samples_done;
  }
  const auto sealed = save_study_checkpoint(progress, rig->system,
                                            rig->generator, rig->controller);

  auto resumed = warm_rig(2, 0x7777);
  const StudyCheckpoint loaded = load_study_checkpoint(
      sealed, resumed->system, resumed->generator, resumed->controller);

  EXPECT_EQ(loaded.samples_done, 2u);
  EXPECT_EQ(loaded.samples_total, 4u);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_EQ(digest(loaded.records[0]), digest(progress.records[0]));
  EXPECT_EQ(digest(loaded.records[1]), digest(progress.records[1]));
  EXPECT_EQ(session_digest(resumed->system, resumed->generator,
                           resumed->controller),
            session_digest(rig->system, rig->generator, rig->controller));
}

TEST(DigestRoundTrip, DigestsDiscriminateStates) {
  auto a = warm_rig(2, 0x1234);
  auto b = warm_rig(2, 0x1235);
  EXPECT_NE(session_digest(a->system, a->generator, a->controller),
            session_digest(b->system, b->generator, b->controller));

  const std::uint64_t now = session_digest(a->system, a->generator,
                                           a->controller);
  a->controller.advance(1000);
  EXPECT_NE(session_digest(a->system, a->generator, a->controller), now);
}

// --- The state walk, pinned -----------------------------------------------
//
// System::state_digest() after fixed session runs, recorded once. Every
// serialize() walk feeds it, so a refactor that claims to leave capsule
// bytes alone (where a component keeps a field, how it is stored) must
// leave these numbers alone too. A change that means to move the walk or
// the trajectory re-records them: run
//   test_core --gtest_filter='CapsuleStateWalk.*'
// and copy each "state digest now 0x..." value into its case.
struct PinCase {
  const char* name;
  os::SystemConfig config;
  workload::WorkloadMix mix;
  std::uint64_t digest;
};

std::vector<PinCase> pin_cases() {
  const workload::WorkloadMix session3 = workload::session_presets()[2];
  os::SystemConfig fx8;
  // FX/16 with one detached CE per cluster, fed session 3's kernels half
  // serial, in short gaps and larger bursts, so that at the pin point both clusters hold a
  // job, both detached slots run one and the fabric has turned requests
  // away: the fabric, the CCBs, the detached slots and both memory buses
  // carry live state into the walk.
  os::SystemConfig fx16_detached;
  fx16_detached.machine = fx8::MachineConfig::fx16();
  fx16_detached.machine.cluster.detached_ces = 1;
  workload::WorkloadMix busy = session3;
  busy.concurrent_job_fraction = 0.5;
  busy.mean_idle_cycles = 1000;
  busy.mean_burst_jobs = 4;
  // The rotating service order reads the cluster clock every cycle.
  os::SystemConfig fx8_rotating;
  fx8_rotating.machine.cluster.policy = fx8::ServicePolicy::kRotating;
  return {
      {"fx8", fx8, session3, 0xcf74023568014ef9},
      {"fx16_detached", fx16_detached, busy, 0x3520dd048105f7f2},
      {"fx8_rotating", fx8_rotating, session3, 0xe2acdfc722f3d0ed},
  };
}

TEST(CapsuleStateWalk, DigestsArePinned) {
  for (const PinCase& pin : pin_cases()) {
    Rig rig(pin.mix, pin.config, tiny_sampling(), 0x1987);
    rig.controller.advance(3000);
    (void)rig.controller.take_sample();
    (void)rig.controller.take_sample();
    const std::uint64_t digest = rig.system.state_digest();
    EXPECT_EQ(digest, pin.digest)
        << pin.name << ": state digest now 0x" << std::hex << digest;
    const fx8::Machine& machine = rig.system.machine();
    EXPECT_GT(machine.cluster().stats().loops_completed, 0u) << pin.name;
    if (machine.fabric() != nullptr) {
      EXPECT_GT(machine.fabric()->conflicts(), 0u);
      EXPECT_TRUE(machine.cluster(0).detached_busy(0));
      EXPECT_TRUE(machine.cluster(1).detached_busy(0));
    }
  }
}

TEST(CapsuleStateWalk, Fx16DetachedRoundTripContinuesIdentically) {
  // The pin rig with both clusters' jobs and both detached slots live:
  // the programs they run cross the capsule with them, so a fresh system
  // continues exactly like the one that saved.
  const PinCase pin = pin_cases()[1];
  Rig rig(pin.mix, pin.config, tiny_sampling(), 0x1987);
  rig.controller.advance(3000);
  (void)rig.controller.take_sample();
  (void)rig.controller.take_sample();
  os::System& system = rig.system;
  for (std::uint32_t k = 0; k < 2; ++k) {
    ASSERT_TRUE(system.machine().cluster(k).busy()) << "cluster " << k;
    ASSERT_TRUE(system.machine().cluster(k).detached_busy(0))
        << "cluster " << k;
  }
  os::System fresh(pin.config);
  fresh.load_capsule(system.save_capsule());
  EXPECT_EQ(fresh.state_digest(), system.state_digest());
  system.run(20000);
  fresh.run(20000);
  EXPECT_EQ(fresh.state_digest(), system.state_digest());
  EXPECT_EQ(fresh.now(), system.now());
}

TEST(CapsuleStateWalk, TranslationMemosAreNotState) {
  // Releasing a job id that was never issued drops every translation
  // memo and changes nothing else. A memo only saves a page-table
  // lookup, so the two rigs must stay identical in state and in samples.
  Rig kept(workload::session_presets()[2], os::SystemConfig{},
           tiny_sampling(), 0x1987);
  Rig dropped(workload::session_presets()[2], os::SystemConfig{},
              tiny_sampling(), 0x1987);
  kept.controller.advance(3000);
  dropped.controller.advance(3000);
  dropped.system.vm().release_job(std::numeric_limits<JobId>::max());
  EXPECT_EQ(dropped.system.state_digest(), kept.system.state_digest());
  EXPECT_EQ(digest(dropped.controller.take_sample()),
            digest(kept.controller.take_sample()));
  EXPECT_EQ(dropped.system.state_digest(), kept.system.state_digest());
}

// --- Crafted capsules -----------------------------------------------------
//
// The envelope digest only catches accidental damage: a payload edited
// and then re-sealed passes it (fx8meter --resume reads such files). Each
// seeded mutant — a bit flip, a truncation, or a small little-endian u64
// (the likely element count) pushed past 2^40 — is re-sealed and loaded:
// it must load and re-digest, or throw CapsuleError. A crash or any other
// exception fails. Returns how many mutants loaded cleanly.
template <typename Load>
int fuzz(const std::vector<std::uint8_t>& payload, std::uint64_t seed,
         Load&& load) {
  Rng rng(seed);
  int loaded = 0;
  for (int i = 0; i < 150; ++i) {
    std::vector<std::uint8_t> mutant = payload;
    const std::size_t at = rng.uniform(payload.size() - 8);
    switch (rng.uniform(3)) {
      case 0:
        mutant[at] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
        break;
      case 1:
        mutant.resize(at);
        break;
      default:
        for (std::size_t c = at; c < at + 4096 && c + 8 < mutant.size(); ++c) {
          if (mutant[c] != 0 && std::all_of(&mutant[c + 2], &mutant[c + 8],
                                            [](auto b) { return b == 0; })) {
            mutant[c + 5] = 1;
            break;
          }
        }
    }
    try {
      load(capsule::seal(mutant));
      ++loaded;
    } catch (const capsule::CapsuleError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what();
    }
  }
  return loaded;
}

TEST(CapsuleFuzz, MutatedSystemCapsulesLoadOrThrowCapsuleError) {
  auto rig = warm_rig();
  const auto payload = capsule::unseal(rig->system.save_capsule());
  EXPECT_GT(fuzz(payload, 0xF022,
                 [](const auto& sealed) {
                   os::System fresh((os::SystemConfig()));
                   fresh.load_capsule(sealed);
                   (void)fresh.state_digest();
                 }),
            0);  // Flips in plain counters load: the walk is reached.
}

TEST(CapsuleFuzz, MutatedStudyCheckpointsLoadOrThrowCapsuleError) {
  auto rig = warm_rig();
  const StudyCheckpoint progress{
      2, 3, {rig->controller.take_sample(), rig->controller.take_sample()}};
  const auto payload = capsule::unseal(save_study_checkpoint(
      progress, rig->system, rig->generator, rig->controller));
  EXPECT_GT(fuzz(payload, 0xF023,
                 [](const auto& sealed) {
                   Rig fresh(workload::session_presets()[2], {},
                             tiny_sampling(), 0x1234);
                   (void)load_study_checkpoint(sealed, fresh.system,
                                               fresh.generator,
                                               fresh.controller);
                   (void)session_digest(fresh.system, fresh.generator,
                                        fresh.controller);
                 }),
            0);
}

}  // namespace
}  // namespace repro::core
