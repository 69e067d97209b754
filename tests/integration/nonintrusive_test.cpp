// The §3.3 non-intrusiveness claim, as a property test.
//
// "the hardware monitoring is inherently non-intrusive ... no
// modifications were required to the system in order to perform the
// measurements." In the reproduction that must be literal: a system
// driven with the full instrumentation stack attached must follow the
// EXACT same trajectory as one driven bare. Any probe that perturbs the
// machine (a stray tick, a shared RNG draw, a cache access) breaks this.
#include <gtest/gtest.h>

#include "instr/session_controller.hpp"
#include "os/system.hpp"
#include "trace/tracer.hpp"
#include "workload/generator.hpp"
#include "workload/presets.hpp"

namespace repro::instr {
namespace {

TEST(NonIntrusive, SamplingDoesNotPerturbTheMachine) {
  const workload::WorkloadMix mix = workload::session_presets()[2];
  constexpr Cycle kCycles = 120000;
  constexpr std::uint64_t kSeed = 0x0B5E;

  // Bare run: workload + system only.
  os::System bare{os::SystemConfig{}};
  workload::WorkloadGenerator bare_generator(mix, kSeed);
  for (Cycle c = 0; c < kCycles; ++c) {
    bare_generator.tick(bare);
    bare.tick();
  }

  // Instrumented run: same seeds, full sampling via the DAS controller.
  os::System measured{os::SystemConfig{}};
  workload::WorkloadGenerator measured_generator(mix, kSeed);
  SamplingConfig sampling;
  sampling.interval_cycles = kCycles / 2;
  SessionController controller(measured, measured_generator, sampling,
                               0x12345);
  for (int s = 0; s < 2; ++s) {
    (void)controller.take_sample();  // drives exactly kCycles cycles
  }

  // The whole machine and OS state, not a handful of totals.
  EXPECT_EQ(bare.state_digest(), measured.state_digest())
      << "instrumentation perturbed the machine trajectory";
}

TEST(NonIntrusive, TracingDoesNotPerturbTheMachineEither) {
  const workload::WorkloadMix mix = workload::session_presets()[5];
  constexpr Cycle kCycles = 80000;

  os::System bare{os::SystemConfig{}};
  workload::WorkloadGenerator bare_generator(mix, 0x77AACE);
  for (Cycle c = 0; c < kCycles; ++c) {
    bare_generator.tick(bare);
    bare.tick();
  }

  os::System traced{os::SystemConfig{}};
  trace::EventTracer tracer;
  traced.machine().cluster().set_observer(&tracer);
  workload::WorkloadGenerator traced_generator(mix, 0x77AACE);
  for (Cycle c = 0; c < kCycles; ++c) {
    traced_generator.tick(traced);
    traced.tick();
  }

  EXPECT_EQ(bare.state_digest(), traced.state_digest())
      << "the marker tracer perturbed the machine trajectory";
  EXPECT_FALSE(tracer.events().empty());
}

}  // namespace
}  // namespace repro::instr
