// Event-horizon fast-forward differential sweep: the fast path must be
// bit-identical to the naive cycle-by-cycle tick loop — not just in the
// sample records the study reports, but in every counter any component
// keeps. Each parameterised case runs one session twice (forced naive
// vs. fast-forward) across workload presets, cluster widths FX/1..FX/8,
// and detached-CE splits, then compares the full artifact set: sample
// records (hardware reductions + kernel deltas), kernel counter
// snapshots, per-CE stats, cluster/cache/bus/crossbar/VM/scheduler
// stats, and the machine clock. The naive run pins
// fx8::lane_pass_reference, so every CE steps through Ce::tick() and
// the fast run's lane pass (fault waits included, with real VM faults)
// is held to that oracle, not to itself.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "base/rng.hpp"
#include "core/study.hpp"
#include "fx8/lane_kernel.hpp"
#include "instr/session_controller.hpp"
#include "os/system.hpp"
#include "workload/generator.hpp"
#include "workload/presets.hpp"

namespace repro::core {
namespace {

struct FfParam {
  std::string mix;
  std::uint32_t width = kMaxCes;
  std::uint32_t detached = 0;
};

std::string param_name(const ::testing::TestParamInfo<FfParam>& info) {
  std::string name = info.param.mix + "_w" +
                     std::to_string(info.param.width) + "_d" +
                     std::to_string(info.param.detached);
  for (char& c : name) {
    if (c == '-') {
      c = '_';
    }
  }
  return name;
}

workload::WorkloadMix find_mix(const std::string& name) {
  for (const workload::WorkloadMix& mix : workload::session_presets()) {
    if (mix.name == name) {
      return mix;
    }
  }
  ADD_FAILURE() << "unknown preset " << name;
  return {};
}

/// Everything a run leaves behind: the study-visible records plus every
/// component counter, latched after the session completes.
struct RunArtifacts {
  std::vector<instr::SampleRecord> records;
  std::array<std::uint64_t, os::kNumKernelCounters> counters{};
  std::vector<fx8::CeStats> ce_stats;
  fx8::ClusterStats cluster;
  cache::SharedCacheStats cache;
  std::vector<std::vector<std::uint64_t>> bus_op_cycles;
  std::uint64_t xbar_conflicts = 0;
  os::VmStats vm;
  os::SchedulerStats sched;
  Cycle now = 0;
};

RunArtifacts run_one(const FfParam& param, bool fast_forward) {
  os::SystemConfig sys_config;
  sys_config.machine.cluster.n_ces = param.width;
  sys_config.machine.cluster.detached_ces = param.detached;
  os::System system(sys_config);
  if (!fast_forward) {
    system.machine().set_lane_pass(&fx8::lane_pass_reference);
  }

  workload::WorkloadGenerator generator(find_mix(param.mix), 0xFEED5EED);
  instr::SamplingConfig sampling;
  sampling.interval_cycles = 12000;
  sampling.buffer_depth = 256;
  sampling.fast_forward = fast_forward;
  instr::SessionController controller(system, generator, sampling,
                                      0xACE0FACE);
  controller.advance(3000);

  RunArtifacts artifacts;
  artifacts.records = controller.run_session(2);
  artifacts.counters = system.counters().snapshot();
  fx8::Machine& machine = system.machine();
  for (CeId ce = 0; ce < param.width; ++ce) {
    artifacts.ce_stats.push_back(machine.cluster().ce(ce).stats());
  }
  artifacts.cluster = machine.cluster().stats();
  artifacts.cache = machine.shared_cache().stats();
  const std::uint32_t buses = machine.membus().config().bus_count;
  for (std::uint32_t bus = 0; bus < buses; ++bus) {
    std::vector<std::uint64_t> ops;
    for (std::size_t op = 0; op < mem::kNumMemBusOps; ++op) {
      ops.push_back(
          machine.membus().op_cycles(bus, static_cast<mem::MemBusOp>(op)));
    }
    artifacts.bus_op_cycles.push_back(std::move(ops));
  }
  artifacts.xbar_conflicts = system.machine().cluster().crossbar().conflicts();
  artifacts.vm = system.vm().stats();
  artifacts.sched = system.scheduler().stats();
  artifacts.now = system.now();
  return artifacts;
}

void expect_same_ce(const fx8::CeStats& a, const fx8::CeStats& b, CeId ce) {
  EXPECT_EQ(a.busy_cycles, b.busy_cycles) << "ce " << ce;
  EXPECT_EQ(a.compute_cycles, b.compute_cycles) << "ce " << ce;
  EXPECT_EQ(a.mem_accesses, b.mem_accesses) << "ce " << ce;
  EXPECT_EQ(a.miss_wait_cycles, b.miss_wait_cycles) << "ce " << ce;
  EXPECT_EQ(a.fault_wait_cycles, b.fault_wait_cycles) << "ce " << ce;
  EXPECT_EQ(a.xbar_conflict_cycles, b.xbar_conflict_cycles) << "ce " << ce;
  EXPECT_EQ(a.instances_completed, b.instances_completed) << "ce " << ce;
}

void expect_same(const RunArtifacts& naive, const RunArtifacts& fast) {
  ASSERT_EQ(naive.records.size(), fast.records.size());
  for (std::size_t r = 0; r < naive.records.size(); ++r) {
    const instr::SampleRecord& a = naive.records[r];
    const instr::SampleRecord& b = fast.records[r];
    EXPECT_EQ(a.index, b.index);
    EXPECT_EQ(a.interval_cycles, b.interval_cycles);
    EXPECT_EQ(a.hw.num, b.hw.num) << "sample " << r;
    EXPECT_EQ(a.hw.proc, b.hw.proc) << "sample " << r;
    EXPECT_EQ(a.hw.ceop, b.hw.ceop) << "sample " << r;
    EXPECT_EQ(a.hw.membop, b.hw.membop) << "sample " << r;
    EXPECT_EQ(a.hw.records, b.hw.records) << "sample " << r;
    EXPECT_EQ(a.hw.ce_bus_cycles, b.hw.ce_bus_cycles) << "sample " << r;
    EXPECT_EQ(a.sw.ce_page_faults_user, b.sw.ce_page_faults_user);
    EXPECT_EQ(a.sw.ce_page_faults_system, b.sw.ce_page_faults_system);
    EXPECT_EQ(a.sw.jobs_completed, b.sw.jobs_completed);
    EXPECT_EQ(a.sw.context_switches, b.sw.context_switches);
  }
  EXPECT_EQ(naive.counters, fast.counters);
  ASSERT_EQ(naive.ce_stats.size(), fast.ce_stats.size());
  for (std::size_t ce = 0; ce < naive.ce_stats.size(); ++ce) {
    expect_same_ce(naive.ce_stats[ce], fast.ce_stats[ce],
                   static_cast<CeId>(ce));
  }
  EXPECT_EQ(naive.cluster.jobs_completed, fast.cluster.jobs_completed);
  EXPECT_EQ(naive.cluster.loops_completed, fast.cluster.loops_completed);
  EXPECT_EQ(naive.cluster.iterations_completed,
            fast.cluster.iterations_completed);
  EXPECT_EQ(naive.cluster.serial_reps_completed,
            fast.cluster.serial_reps_completed);
  EXPECT_EQ(naive.cluster.dependence_wait_cycles,
            fast.cluster.dependence_wait_cycles);
  EXPECT_EQ(naive.cache.accesses, fast.cache.accesses);
  EXPECT_EQ(naive.cache.misses, fast.cache.misses);
  EXPECT_EQ(naive.cache.write_upgrades, fast.cache.write_upgrades);
  EXPECT_EQ(naive.cache.write_backs, fast.cache.write_backs);
  EXPECT_EQ(naive.cache.merged_misses, fast.cache.merged_misses);
  EXPECT_EQ(naive.cache.snoop_invalidations, fast.cache.snoop_invalidations);
  EXPECT_EQ(naive.bus_op_cycles, fast.bus_op_cycles);
  EXPECT_EQ(naive.xbar_conflicts, fast.xbar_conflicts);
  EXPECT_EQ(naive.vm.faults, fast.vm.faults);
  EXPECT_EQ(naive.vm.evictions, fast.vm.evictions);
  EXPECT_EQ(naive.vm.global_reclaims, fast.vm.global_reclaims);
  EXPECT_EQ(naive.vm.translations, fast.vm.translations);
  EXPECT_EQ(naive.sched.jobs_completed, fast.sched.jobs_completed);
  EXPECT_EQ(naive.sched.cluster_jobs_completed,
            fast.sched.cluster_jobs_completed);
  EXPECT_EQ(naive.sched.serial_jobs_completed,
            fast.sched.serial_jobs_completed);
  EXPECT_EQ(naive.sched.total_wait_cycles, fast.sched.total_wait_cycles);
  EXPECT_EQ(naive.now, fast.now);
}

class FastForwardDifferential : public ::testing::TestWithParam<FfParam> {};

TEST_P(FastForwardDifferential, BitIdenticalToNaiveTickLoop) {
  const RunArtifacts naive = run_one(GetParam(), /*fast_forward=*/false);
  const RunArtifacts fast = run_one(GetParam(), /*fast_forward=*/true);
  expect_same(naive, fast);
}

std::vector<FfParam> sweep_params() {
  std::vector<FfParam> params;
  // Every session preset from the paper's measurement campaign, so the
  // fused kernel and the bulk jumps are pinned against each workload
  // shape (interactive, numeric, batch, serial, idle) at every cluster
  // width and detached split.
  const std::array<std::string, 9> mixes = {
      "session-1-light-interactive", "session-2-mixed",
      "session-3-numeric-heavy",     "session-4-idle-morning",
      "session-5-steady-dev",        "session-6-batch-numeric",
      "session-7-compile-test",      "session-8-mixed-busy",
      "session-9-serial-day"};
  for (const std::string& mix : mixes) {
    for (const std::uint32_t width : {1u, 2u, 4u, 8u}) {
      for (const std::uint32_t detached : {0u, 2u}) {
        if (detached < width) {
          params.push_back({mix, width, detached});
        }
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Sweep, FastForwardDifferential,
                         ::testing::ValuesIn(sweep_params()), param_name);

// The study engine's switch: turning fast-forward off through
// StudyConfig must reproduce the fast-forward study bit-for-bit,
// replicates and threads included. Both sides run the dispatched lane
// pass, so this pins the skip/horizon decisions and the study plumbing;
// the lane pass itself is held to the naive oracle by the sweep above.
TEST(FastForward, StudyLevelBitIdentity) {
  const auto mixes = workload::session_presets();
  const std::vector<workload::WorkloadMix> three(mixes.begin(),
                                                 mixes.begin() + 3);
  StudyConfig config;
  config.samples_per_session = 2;
  config.sampling.interval_cycles = 15000;
  config.warmup_cycles = 3000;
  config.threads = 1;
  config.replicates_per_session = 2;

  config.fast_forward = false;
  const StudyResult naive = run_study(three, config);
  config.fast_forward = true;
  const StudyResult fast = run_study(three, config);
  config.threads = 4;
  const StudyResult pooled = run_study(three, config);

  for (const StudyResult* other : {&fast, &pooled}) {
    EXPECT_EQ(naive.totals.num, other->totals.num);
    EXPECT_EQ(naive.totals.proc, other->totals.proc);
    EXPECT_EQ(naive.totals.ceop, other->totals.ceop);
    EXPECT_EQ(naive.totals.membop, other->totals.membop);
    EXPECT_EQ(naive.totals.records, other->totals.records);
    EXPECT_EQ(naive.overall.cw, other->overall.cw);
    EXPECT_EQ(naive.overall.pc, other->overall.pc);
    ASSERT_EQ(naive.sessions.size(), other->sessions.size());
    for (std::size_t s = 0; s < naive.sessions.size(); ++s) {
      EXPECT_EQ(naive.sessions[s].totals.num, other->sessions[s].totals.num);
      ASSERT_EQ(naive.sessions[s].samples.size(),
                other->sessions[s].samples.size());
      for (std::size_t i = 0; i < naive.sessions[s].samples.size(); ++i) {
        EXPECT_EQ(naive.sessions[s].samples[i].measures.cw,
                  other->sessions[s].samples[i].measures.cw);
        EXPECT_EQ(naive.sessions[s].samples[i].miss_rate,
                  other->sessions[s].samples[i].miss_rate);
      }
    }
  }
}

// replicates_per_session=1 must reproduce the original single-system
// session stream: replicate 0 consumes the session seed unchanged.
TEST(FastForward, SingleReplicateMatchesClassicSessions) {
  const auto mixes = workload::session_presets();
  const std::vector<workload::WorkloadMix> two(mixes.begin(),
                                               mixes.begin() + 2);
  StudyConfig config;
  config.samples_per_session = 2;
  config.sampling.interval_cycles = 15000;
  config.warmup_cycles = 3000;
  config.threads = 1;

  config.replicates_per_session = 1;
  const StudyResult classic = run_study(two, config);
  config.threads = 4;  // same decomposition, pooled
  const StudyResult pooled = run_study(two, config);
  EXPECT_EQ(classic.totals.num, pooled.totals.num);
  EXPECT_EQ(classic.totals.records, pooled.totals.records);
}

// Triggered captures always run naively, but a fast-forwarded warmup
// must leave the system in exactly the state the naive warmup does, so
// the capture that follows latches identical probe records.
TEST(FastForward, TriggeredCaptureAfterFastForwardedWarmup) {
  auto capture = [](bool fast_forward) {
    os::SystemConfig sys_config;
    os::System system(sys_config);
    workload::WorkloadGenerator generator(workload::high_concurrency_mix(),
                                          0xD15EA5E);
    instr::SamplingConfig sampling;
    sampling.interval_cycles = 12000;
    sampling.buffer_depth = 256;
    sampling.fast_forward = fast_forward;
    instr::SessionController controller(system, generator, sampling,
                                        0xBEEFCAFE);
    controller.advance(5000);
    return controller.capture_triggered(instr::TriggerMode::kAllActive,
                                        400000);
  };
  const auto naive = capture(false);
  const auto fast = capture(true);
  ASSERT_EQ(naive.has_value(), fast.has_value());
  if (!naive.has_value()) {
    GTEST_SKIP() << "trigger did not fire within the timeout";
  }
  ASSERT_EQ(naive->size(), fast->size());
  for (std::size_t i = 0; i < naive->size(); ++i) {
    EXPECT_EQ((*naive)[i].cycle, (*fast)[i].cycle);
    EXPECT_EQ((*naive)[i].ce_ops, (*fast)[i].ce_ops);
    EXPECT_EQ((*naive)[i].mem_ops, (*fast)[i].mem_ops);
    EXPECT_EQ((*naive)[i].active_mask, (*fast)[i].active_mask);
  }
}

}  // namespace
}  // namespace repro::core
