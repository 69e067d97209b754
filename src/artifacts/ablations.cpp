// The design-choice ablations (DESIGN.md §6): each tests the mechanism
// the paper offers for one of its findings. These declare artifact-private
// runs (different machines/mixes than the shared study), scaled down
// under --quick. Ported from the bench_ablation_* binaries.
#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "artifacts/inputs.hpp"
#include "artifacts/registry.hpp"
#include "core/regression_models.hpp"
#include "core/run.hpp"
#include "core/sample.hpp"
#include "core/study.hpp"
#include "core/transition.hpp"
#include "fx8/machine.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"
#include "trace/profile.hpp"
#include "trace/tracer.hpp"
#include "workload/kernels.hpp"
#include "workload/presets.hpp"

namespace repro::artifacts {

namespace {

// ---------------------------------------------------------------------
// Ablation: fixed-priority vs. rotating CE service order (Figure 7's
// asymmetry).

double asymmetry(const core::TransitionResult& result) {
  // Max/min ratio over per-CE transition activity.
  std::uint64_t lo = result.processor_counts[0];
  std::uint64_t hi = result.processor_counts[0];
  for (const std::uint64_t count : result.processor_counts) {
    lo = std::min(lo, count);
    hi = std::max(hi, count);
  }
  return lo == 0 ? 0.0 : static_cast<double>(hi) / static_cast<double>(lo);
}

/// The Figure-7 shape: mean outer-CE (7, 0) activity over mean inner-CE
/// (2, 3, 4) activity. Fixed priority puts structure here; max/min
/// asymmetry also picks up capture noise, this does not.
double outer_over_inner(const core::TransitionResult& result) {
  const auto& proc = result.processor_counts;
  const double outer = static_cast<double>(proc[7] + proc[0]) / 2.0;
  const double inner =
      static_cast<double>(proc[2] + proc[3] + proc[4]) / 3.0;
  return inner > 0.0 ? outer / inner : 0.0;
}

std::vector<core::RunSpec> service_order_runs(const Inputs& in) {
  std::vector<core::RunSpec> specs;
  for (const fx8::ServicePolicy policy :
       {fx8::ServicePolicy::kOuterFirst, fx8::ServicePolicy::kRotating}) {
    core::TransitionConfig config = in.transition_config();
    config.captures = in.scaled(40, 12);
    config.system.machine.cluster.policy = policy;
    specs.push_back(
        core::transition_spec(workload::high_concurrency_mix(), config));
  }
  return specs;
}

void render_ablation_service_order(Context& ctx) {
  const auto runs = ctx.runs();
  const core::TransitionResult fixed = core::fold_transition(*runs.at(0));
  const core::TransitionResult rotating = core::fold_transition(*runs.at(1));

  ctx.printf("per-CE transition activity (fixed priority):\n ");
  for (const std::uint64_t count : fixed.processor_counts) {
    ctx.printf(" %6llu", static_cast<unsigned long long>(count));
  }
  ctx.printf("\nper-CE transition activity (rotating):\n ");
  for (const std::uint64_t count : rotating.processor_counts) {
    ctx.printf(" %6llu", static_cast<unsigned long long>(count));
  }
  const double fixed_ratio = asymmetry(fixed);
  const double rotating_ratio = asymmetry(rotating);
  ctx.printf("\n\nmax/min activity ratio: fixed %.2f vs rotating %.2f\n",
             fixed_ratio, rotating_ratio);
  const double fixed_oi = outer_over_inner(fixed);
  const double rotating_oi = outer_over_inner(rotating);
  ctx.printf("outer/inner activity:   fixed %.2f vs rotating %.2f\n",
             fixed_oi, rotating_oi);
  ctx.printf("(expected: fixed > rotating — the asymmetry is a priority "
             "artifact)\n");

  // Supporting §4.3: fixed priority puts the activity on the outer CEs;
  // a fair arbiter flattens that structure. The max/min ratio also
  // counts capture noise, so it's informational only.
  ctx.check("fixed_outer_over_inner", fixed_oi, 2.0, 1.05, 10.0);
  ctx.check("fixed_minus_rotating_outer_bias", fixed_oi - rotating_oi,
            0.5, 0.0, 10.0);
  ctx.note("fixed_over_rotating_asymmetry",
           rotating_ratio > 0.0 ? fixed_ratio / rotating_ratio : 0.0, 1.3,
           1.0, 10.0);
  ctx.metric("fixed_asymmetry", fixed_ratio);
  ctx.metric("rotating_asymmetry", rotating_ratio);
}

// ---------------------------------------------------------------------
// Ablation: data-intensive vs. serial-like concurrent kernels (§5.3).

std::vector<core::RunSpec> locality_runs(const Inputs& in) {
  core::StudyConfig config = in.study_config();
  config.samples_per_session = in.scaled(10, 5);
  workload::WorkloadMix standard;
  standard.name = "standard";
  // One 3-session mini-study per kernel family, spanning low/mid/high
  // concurrency with the family's kernel tuning.
  std::vector<core::RunSpec> specs;
  for (const workload::WorkloadMix& base :
       {standard, workload::equal_locality_mix()}) {
    std::vector<workload::WorkloadMix> mixes;
    const double fractions[] = {0.2, 0.55, 0.9};
    const double idles[] = {45000, 12000, 4000};
    for (int i = 0; i < 3; ++i) {
      workload::WorkloadMix mix = base;
      mix.name = base.name + "-" + std::to_string(i);
      mix.concurrent_job_fraction = fractions[i];
      mix.mean_idle_cycles = idles[i];
      mixes.push_back(mix);
    }
    for (core::RunSpec& spec : core::study_specs(mixes, config)) {
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

/// Miss-rate rise over Cw 0.1 -> 1.0 across one mini-study's samples.
double missrate_rise(std::span<const core::RunResult* const> study) {
  std::vector<core::AnalyzedSample> samples;
  for (const core::RunResult* run : study) {
    samples.insert(samples.end(), run->samples.begin(), run->samples.end());
  }
  const core::MedianModel model = core::fit_model(
      samples, core::SystemMeasure::kMissRate, core::Regressor::kCw);
  return model.predict(1.0) - model.predict(0.1);
}

void render_ablation_locality(Context& ctx) {
  const auto runs = ctx.runs();
  const std::size_t half = runs.size() / 2;
  const double standard_rise = missrate_rise(std::span(runs).first(half));
  const double equal_rise = missrate_rise(std::span(runs).subspan(half));

  ctx.printf("missrate rise over Cw 0.1 -> 1.0:\n");
  ctx.printf("  data-intensive concurrent kernels: %+.4f\n", standard_rise);
  ctx.printf("  serial-like concurrent kernels:    %+.4f\n", equal_rise);
  ctx.printf("\n(expected: the serial-like variant's rise is a small "
             "fraction of the standard one's)\n");

  // §5.3: the coupling is the data intensity of parallel code, not
  // parallelism itself (measured +0.019 vs -0.001 at paper scale).
  ctx.check("standard_rise", standard_rise, 0.017, 0.004, 0.1);
  ctx.check("equal_locality_rise", equal_rise, 0.0, -0.01, 0.008);
}

// ---------------------------------------------------------------------
// Ablation: register-to-register vector fraction vs. bus traffic (§5.1).

constexpr std::array<double, 5> kVectorFractions = {0.0, 0.2, 0.4, 0.6,
                                                      0.8};

std::vector<core::RunSpec> vector_traffic_runs(const Inputs& in) {
  std::vector<core::RunSpec> specs;
  for (const double fraction : kVectorFractions) {
    core::RunSpec spec;
    spec.mix = workload::high_concurrency_mix();
    spec.mix.numeric.tuning.vector_fraction = fraction;
    spec.generator_seed = 0x7EC70;
    spec.controller_seed = 0x7EC70;
    spec.sampling.interval_cycles = 60000;
    spec.samples = in.scaled(6, 3);
    specs.push_back(spec);
  }
  return specs;
}

void render_ablation_vector_traffic(Context& ctx) {
  ctx.printf("  %-10s %8s %10s %10s\n", "vec-frac", "Cw", "busbusy",
             "missrate");
  const auto runs = ctx.runs();
  for (std::size_t i = 0; i < kVectorFractions.size(); ++i) {
    const instr::EventCounts& totals = runs.at(i)->totals;
    ctx.printf("  %-10.1f %8.4f %10.4f %10.4f\n", kVectorFractions[i],
               core::ConcurrencyMeasures::from_counts(totals.num).cw,
               totals.bus_busy(), totals.miss_rate());
  }
  const instr::EventCounts& first = runs.front()->totals;
  const instr::EventCounts& last = runs.back()->totals;
  const double busy_drop_pct =
      100.0 * (1.0 - last.bus_busy() / first.bus_busy());
  const double miss_drop_pct =
      100.0 * (1.0 - last.miss_rate() / first.miss_rate());
  ctx.printf("\nbus busy drops %.0f%%, missrate drops %.0f%% from "
             "vec=0.0 to vec=0.8\n",
             busy_drop_pct, miss_drop_pct);

  // §5.1: more vector operations -> less CE-to-cache traffic and fewer
  // misses (measured ~25% and ~12% drops at paper scale).
  ctx.check("bus_busy_drop_pct", busy_drop_pct, 25.0, 5.0, 80.0);
  ctx.check("miss_rate_drop_pct", miss_drop_pct, 12.0, 1.0, 80.0);
}

// ---------------------------------------------------------------------
// Ablation: self-scheduled vs. statically chunked loop dispatch
// (DESIGN.md §6.2 — why transitions stay short).

struct LoopRun {
  Cycle total = 0;
  Cycle drain = 0;  ///< Cycles from last full-overlap to loop end.
  double overlap = 0.0;
};

/// One imbalanced loop under a dispatch policy, profiled via the tracer.
LoopRun run_loop(Context& ctx, fx8::DispatchPolicy dispatch,
                 std::uint64_t seed) {
  fx8::NoFaultMmu mmu;
  fx8::MachineConfig config = fx8::MachineConfig::fx8();
  config.cluster.dispatch = dispatch;
  config.ip.duty = 0.0;
  fx8::Machine machine(config, mmu);
  trace::EventTracer tracer;
  machine.cluster().set_observer(&tracer);
  ctx.in().note_private_run();

  workload::KernelTuning tuning;
  isa::ConcurrentLoopPhase loop;
  loop.body = workload::matmul_row_body(tuning);
  loop.trip_count = 8 * 12 + 2;
  loop.long_path_prob = 0.25;  // iteration-dependent branching
  loop.long_path_extra_steps = 30;
  machine.cluster().load(isa::ProgramBuilder("dispatch")
                             .seed(seed)
                             .data_base(0x01000000)
                             .concurrent_loop(loop)
                             .build(),
                         1);
  while (machine.cluster().busy()) {
    machine.tick();
  }
  const trace::ProgramProfile profile =
      trace::profile_job(tracer.events(), 1);
  LoopRun run;
  run.total = machine.now();
  run.drain = profile.loops.at(0).drain_cycles;
  run.overlap = profile.loops.at(0).mean_overlap;
  return run;
}

void render_ablation_dispatch(Context& ctx) {
  double self_total = 0.0;
  double chunk_total = 0.0;
  double self_drain = 0.0;
  double chunk_drain = 0.0;
  double self_overlap = 0.0;
  double chunk_overlap = 0.0;
  const int loops = static_cast<int>(ctx.in().scaled(8, 3));
  for (std::uint64_t seed = 1; seed <= static_cast<std::uint64_t>(loops);
       ++seed) {
    const LoopRun self =
        run_loop(ctx, fx8::DispatchPolicy::kSelfScheduled, seed);
    const LoopRun chunk =
        run_loop(ctx, fx8::DispatchPolicy::kStaticChunked, seed);
    self_total += static_cast<double>(self.total);
    chunk_total += static_cast<double>(chunk.total);
    self_drain += static_cast<double>(self.drain);
    chunk_drain += static_cast<double>(chunk.drain);
    self_overlap += self.overlap;
    chunk_overlap += chunk.overlap;
  }
  ctx.printf("imbalanced 98-iteration loop, mean over %d seeds:\n", loops);
  ctx.printf("  %-16s %10s %10s %10s\n", "dispatch", "cycles", "drain",
             "overlap");
  ctx.printf("  %-16s %10.0f %10.0f %10.2f\n", "self-scheduled",
             self_total / loops, self_drain / loops, self_overlap / loops);
  ctx.printf("  %-16s %10.0f %10.0f %10.2f\n", "static-chunked",
             chunk_total / loops, chunk_drain / loops,
             chunk_overlap / loops);
  const double slowdown_pct = 100.0 * (chunk_total / self_total - 1.0);
  const double drain_ratio = chunk_drain / self_drain;
  ctx.printf("  (chunked is %.0f%% slower; its drain — the §4.3\n"
             "   transition period — is %.1fx longer)\n",
             slowdown_pct, drain_ratio);

  // Hardware self-scheduling absorbs imbalance (measured: chunked 10%
  // slower, drain 7.2x longer at paper scale).
  ctx.check("chunked_slowdown_pct", slowdown_pct, 10.0, 1.0, 100.0);
  ctx.check("chunked_drain_ratio", drain_ratio, 7.2, 1.5, 50.0);
  ctx.metric("self_overlap", self_overlap / loops);
  ctx.metric("chunked_overlap", chunk_overlap / loops);
}

}  // namespace

void register_ablations(std::vector<ArtifactDef>& catalog) {
  catalog.push_back(
      {"ablation_service_order", ArtifactKind::kAblation, "§4.3",
       "ABLATION — fixed-priority vs. rotating CE service order",
       "fixed hardware priority produces the Figure-7 asymmetry; a fair "
       "rotating arbiter flattens it",
       render_ablation_service_order, service_order_runs});
  catalog.push_back(
      {"ablation_locality", ArtifactKind::kAblation, "§5.3",
       "ABLATION — data-intensive vs. serial-like concurrent kernels",
       "the Cw->missrate slope comes from the data intensity of parallel "
       "code (§5.3), not from parallelism itself",
       render_ablation_locality, locality_runs});
  catalog.push_back(
      {"ablation_vector_traffic", ArtifactKind::kAblation, "§5.1",
       "ABLATION — vector (register-to-register) fraction vs. bus traffic",
       "more vector operations -> less CE-to-cache traffic and fewer "
       "misses per bus cycle (§5.1)",
       render_ablation_vector_traffic, vector_traffic_runs});
  catalog.push_back(
      {"ablation_dispatch", ArtifactKind::kAblation, "§3.2",
       "ABLATION — self-scheduled vs. statically chunked dispatch",
       "hardware self-scheduling absorbs iteration imbalance; static "
       "chunks strand blocks behind slow iterations (DESIGN.md §6.2)",
       render_ablation_dispatch});
}

}  // namespace repro::artifacts
