// Whole-run accounting of the probe: the reduction's identities on every
// sample and capture fold of a core::run, and where a study's cycles go
// now that acquisitions advance through blocks like any other stretch.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/presets.hpp"
#include "core/run.hpp"
#include "core/study.hpp"
#include "workload/presets.hpp"

namespace repro::core {
namespace {

/// Table 1's identities on one fold of windows from a machine `width`
/// CEs wide with `buses` memory buses: every record has one active count,
/// its active CEs are that count, every CE-bus cycle carries one opcode,
/// and so does every memory-bus cycle.
void expect_identities(const instr::EventCounts& counts, std::uint32_t width,
                       std::uint32_t buses, const std::string& what) {
  SCOPED_TRACE(what);
  std::uint64_t records = 0;
  std::uint64_t active = 0;
  for (std::size_t j = 0; j < counts.num.size(); ++j) {
    records += counts.num[j];
    active += j * counts.num[j];
    if (j > width) {
      EXPECT_EQ(counts.num[j], 0u) << "num row " << j << " past the width";
    }
  }
  std::uint64_t proc = 0;
  for (std::size_t ce = 0; ce < counts.proc.size(); ++ce) {
    proc += counts.proc[ce];
    if (ce >= width) {
      EXPECT_EQ(counts.proc[ce], 0u) << "proc row " << ce << " past the width";
    }
  }
  std::uint64_t ce_cycles = 0;
  for (const std::uint64_t n : counts.ceop) {
    ce_cycles += n;
  }
  std::uint64_t mem_cycles = 0;
  for (const std::uint64_t n : counts.membop) {
    mem_cycles += n;
  }
  EXPECT_EQ(records, counts.records) << "sum of num_j";
  EXPECT_EQ(active, proc) << "sum of j * num_j against sum of proc_j";
  EXPECT_EQ(counts.ce_bus_cycles, counts.records * width);
  EXPECT_EQ(ce_cycles, counts.ce_bus_cycles) << "sum of ceop_j";
  EXPECT_EQ(mem_cycles, counts.records * buses) << "sum of membop_j";
}

/// A machine shape and a mix; `fills` when the mix fills the machine
/// soon after the warmup, so its captures complete.
struct Shape {
  const char* name;
  os::SystemConfig config;
  workload::WorkloadMix mix;
  Cycle warmup = 0;
  bool fills = false;
};

std::vector<Shape> shapes() {
  Shape fx8{"fx8", {}, workload::high_concurrency_mix(), 3000, true};
  Shape fx16{"fx16d1", {}, workload::session_presets()[4], 20000, true};
  fx16.config.machine = fx8::MachineConfig::fx16();
  fx16.config.machine.cluster.detached_ces = 1;
  Shape fx64{"fx64", {}, workload::high_concurrency_mix(), 3000, false};
  fx64.config.machine = fx8::MachineConfig::fx64();
  return {fx8, fx16, fx64};
}

TEST(ReductionIdentities, HoldOnEveryFoldOfWholeRuns) {
  for (const Shape& shape : shapes()) {
    for (const instr::TriggerMode mode :
         {instr::TriggerMode::kAllActive,
          instr::TriggerMode::kTransitionFromFull}) {
      SCOPED_TRACE(std::string(shape.name) +
                   (mode == instr::TriggerMode::kAllActive ? " all-active"
                                                           : " from-full"));
      RunSpec spec;
      spec.system = shape.config;
      spec.mix = shape.mix;
      spec.sampling.interval_cycles = 20000;
      spec.generator_seed = 0x5EED;
      spec.controller_seed = 0xC0DE;
      spec.warmup_cycles = shape.warmup;
      spec.capture_mode = mode;
      spec.captures = 2;
      spec.capture_timeout = 100000;
      spec.samples = 2;
      const RunResult result = run(spec);
      EXPECT_EQ(result.captures_completed > 0, shape.fills);
      const std::uint32_t width = result.width;
      const std::uint32_t buses = shape.config.machine.membus.bus_count;
      for (std::size_t s = 0; s < result.samples.size(); ++s) {
        expect_identities(result.samples[s].raw.hw, width, buses,
                          "sample " + std::to_string(s));
      }
      expect_identities(result.totals, width, buses, "totals");
      expect_identities(result.captured, width, buses, "captured");
      EXPECT_EQ(result.captured.records,
                std::uint64_t{result.captures_completed} *
                    spec.sampling.buffer_depth);
      // The capture histogram counts every captured record once, and the
      // transition tallies are its 2..width-1 rows seen per CE.
      std::uint64_t states = 0;
      std::uint64_t transition_active = 0;
      for (std::size_t j = 0; j <= width; ++j) {
        states += result.state_counts[j];
        if (j >= 2 && j < width) {
          transition_active += j * result.state_counts[j];
        }
      }
      std::uint64_t processors = 0;
      for (const std::uint64_t n : result.processor_counts) {
        processors += n;
      }
      EXPECT_EQ(states, result.captured.records);
      EXPECT_EQ(processors, transition_active);
    }
  }
}

TEST(CaptureTimeouts, AdvanceExactlyTheTimeout) {
  // A capture that times out runs exactly its timeout, whether nothing
  // ever fires (an idle machine) or the trigger fires and the timeout
  // hits mid-capture (a busy FX/8).
  RunSpec idle;
  idle.mix.mean_idle_cycles = 1e12;
  idle.mix.concurrent_job_fraction = 0.0;
  RunSpec busy;
  busy.mix = workload::high_concurrency_mix();
  for (RunSpec* spec : {&idle, &busy}) {
    spec->warmup_cycles = 3000;
    spec->capture_mode = instr::TriggerMode::kAllActive;
    spec->captures = 1;
    spec->capture_timeout = 300;
    const RunResult result = run(*spec);
    EXPECT_EQ(result.captures_timed_out, 1u);
    EXPECT_EQ(result.now, 3000u + 300u);
    EXPECT_EQ(result.captured.records, 0u);
  }
  // The busy trigger fires within those 300 armed cycles: given the
  // buffer's other 511, the same capture completes.
  busy.capture_timeout = 300 + 511;
  EXPECT_EQ(run(busy).captures_completed, 1u);
}

/// Lockstep cycles of a run on which the OS layer (the workload
/// generator or the scheduler) was due to act: the only cycles the
/// session controller steps naively with fast-forward on.
Cycle os_due_cycles(const RunSpec& spec) {
  os::System system(spec.system);
  workload::WorkloadGenerator generator(spec.mix, spec.generator_seed);
  const Cycle total =
      spec.warmup_cycles + spec.samples * spec.sampling.interval_cycles;
  Cycle due = 0;
  for (Cycle c = 0; c < total; ++c) {
    if (generator.quiet_horizon(system) == 0 ||
        system.scheduler().quiet_horizon() == 0) {
      ++due;
    }
    generator.tick(system);
    system.tick();
  }
  return due;
}

TEST(StudyAccounting, NaiveCyclesAreTheCyclesTheOsLayerWasDue) {
  // The tiny study on the FX/8: acquisitions are counted inside blocks,
  // so a study's naive cycles are its OS layer's, and its probe records
  // are every acquisition's buffer.
  const StudyConfig config = presets::tiny_study();
  for (const RunSpec& spec : study_specs(workload::session_presets(), config)) {
    SCOPED_TRACE(spec.mix.name);
    const RunResult result = run(spec);
    std::uint64_t records = 0;
    for (const AnalyzedSample& sample : result.samples) {
      records += sample.raw.hw.records;
    }
    EXPECT_EQ(records, std::uint64_t{spec.samples} *
                           spec.sampling.snapshots_per_sample *
                           spec.sampling.buffer_depth);
    EXPECT_EQ(result.ff.naive_cycles, os_due_cycles(spec));
    EXPECT_EQ(result.ff.skipped_cycles + result.ff.block_cycles +
                  result.ff.naive_cycles,
              result.now);
  }
}

}  // namespace
}  // namespace repro::core
