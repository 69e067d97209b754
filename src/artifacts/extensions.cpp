// The beyond-the-paper extensions: methodology validation and the §6
// future-work studies. Ported from the bench_trace_vs_sampling,
// bench_scheduling_policy, bench_width_sweep, bench_correlation_matrix,
// bench_detached_artifact and bench_high_concurrency_captures binaries.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "artifacts/inputs.hpp"
#include "artifacts/registry.hpp"
#include "base/text.hpp"
#include "base/types.hpp"
#include "core/run.hpp"
#include "core/sample.hpp"
#include "os/system.hpp"
#include "stats/correlation.hpp"
#include "workload/generator.hpp"
#include "workload/presets.hpp"

namespace repro::artifacts {

os::SystemConfig width_config(std::uint32_t width) {
  os::SystemConfig config;
  switch (width) {
    case 16:
      config.machine = fx8::MachineConfig::fx16();
      break;
    case 32:
      config.machine = fx8::MachineConfig::fx32();
      break;
    case 64:
      config.machine = fx8::MachineConfig::fx64();
      break;
    default:
      break;  // the stock FX/8
  }
  return config;
}

core::RunSpec width_run(const os::SystemConfig& system,
                        workload::WorkloadMix mix, std::uint64_t seed,
                        const Inputs& in) {
  core::RunSpec spec;
  spec.system = system;
  // Clusters schedule independently off one FIFO queue; deepen the
  // arrival bursts so every cluster stays fed.
  mix.mean_burst_jobs *= system.machine.n_clusters;
  spec.mix = std::move(mix);
  spec.generator_seed = seed;
  spec.controller_seed = seed;
  spec.sampling.interval_cycles = 50000;
  spec.samples = in.scaled(5, 2);
  return spec;
}

namespace {

// ---------------------------------------------------------------------
// Methodology validation: sampling vs. marker tracing (§2.1).

std::vector<core::RunSpec> trace_vs_sampling_runs(const Inputs& in) {
  core::RunSpec spec;
  spec.mix = workload::session_presets()[2];  // busy mix
  spec.generator_seed = 0xFACADE;
  spec.controller_seed = 0xFACADE;
  spec.sampling.interval_cycles = 60000;
  spec.samples = in.scaled(10, 4);
  spec.trace_overlap = true;
  return {spec};
}

void render_trace_vs_sampling(Context& ctx) {
  const core::RunResult& run = *ctx.runs().at(0);
  // Sampling estimate: aggregate counts over the session, against the
  // trace ground truth over the same wall-clock span.
  const auto sampled = core::ConcurrencyMeasures::from_counts(run.totals.num);

  ctx.printf("                sampling   trace ground truth\n");
  ctx.printf("  Cw            %8.4f   %8.4f\n", sampled.cw, run.trace_cw);
  ctx.printf("  Pc            %8.2f   %8.2f\n", sampled.pc, run.trace_pc);
  ctx.printf("\n(agreement within a few percent validates the sampling "
             "methodology;\nsmall gaps come from dispatch/dependence "
             "states the CCB probe counts\nas active while no iteration "
             "body is in flight)\n");
  ctx.printf("\njobs traced: %zu, trace events: %zu\n", run.trace_jobs,
             run.trace_events);

  // "Within a few percent": the probe counts dispatch/dependence states
  // as active and misses sub-interval overlap, so the gap can land on
  // either side of zero, but it stays small.
  ctx.check("cw_gap", sampled.cw - run.trace_cw, 0.0, -0.12, 0.12);
  ctx.metric("sampled_cw", sampled.cw);
  ctx.metric("trace_cw", run.trace_cw);
  ctx.note("pc_gap", sampled.pc - run.trace_pc, 0.0, -2.0, 2.0);
}

// ---------------------------------------------------------------------
// Scheduling-parameter study (the paper's §6 future work).

constexpr std::array<os::SchedulingPolicy, 3> kPolicies = {
    os::SchedulingPolicy::kFifo, os::SchedulingPolicy::kConcurrentFirst,
    os::SchedulingPolicy::kSerialFirst};

std::vector<core::RunSpec> scheduling_policy_runs(const Inputs& in) {
  std::vector<core::RunSpec> specs;
  for (const os::SchedulingPolicy policy : kPolicies) {
    core::RunSpec spec;
    spec.system.scheduling = policy;
    spec.mix = workload::session_presets()[2];
    spec.mix.mean_burst_jobs = 4.0;  // deep queues make the discipline matter
    spec.generator_seed = 0x5CED;
    spec.controller_seed = 0x5CED;
    spec.sampling.interval_cycles = 60000;
    spec.samples = in.scaled(8, 3);
    specs.push_back(spec);
  }
  return specs;
}

const char* policy_name(os::SchedulingPolicy policy) {
  switch (policy) {
    case os::SchedulingPolicy::kFifo:
      return "fifo";
    case os::SchedulingPolicy::kConcurrentFirst:
      return "concurrent-first";
    case os::SchedulingPolicy::kSerialFirst:
      return "serial-first";
  }
  return "?";
}

void render_scheduling_policy(Context& ctx) {
  ctx.printf("  %-18s %8s %8s %10s %8s\n", "policy", "Cw", "Pc",
             "mean-wait", "jobs");
  const auto runs = ctx.runs();
  std::array<core::ConcurrencyMeasures, 3> measures;
  for (std::size_t p = 0; p < kPolicies.size(); ++p) {
    const core::RunResult& run = *runs.at(p);
    measures[p] = core::ConcurrencyMeasures::from_counts(run.totals.num);
    const double mean_wait =
        run.jobs_completed == 0
            ? 0.0
            : static_cast<double>(run.total_wait_cycles) /
                  static_cast<double>(run.jobs_completed);
    ctx.printf("  %-18s %8.4f %8.2f %10.0f %8llu\n",
               policy_name(kPolicies[p]), measures[p].cw,
               measures[p].pc_defined ? measures[p].pc : 0.0, mean_wait,
               static_cast<unsigned long long>(run.jobs_completed));
  }
  ctx.printf(
      "\n(the same programs, arrivals and machine; only the run-queue\n"
      "discipline differs — concurrent-first front-loads the concurrency,\n"
      "serial-first defers it)\n");

  ctx.check("fifo_cw", measures[0].cw, 0.5, 0.0, 1.0);
  ctx.metric("concurrent_first_cw", measures[1].cw);
  ctx.metric("serial_first_cw", measures[2].cw);
  // The knob moves *when* concurrency appears more than how much of it
  // there is; the Cw spread across disciplines stays modest.
  ctx.note("policy_cw_spread", std::abs(measures[1].cw - measures[2].cw),
           0.0, 0.0, 0.5);
}

// ---------------------------------------------------------------------
// Machine-width sweep: FX/1 .. FX/8 (§4.1, §6, Appendix C).

std::vector<core::RunSpec> width_sweep_runs(const Inputs& in) {
  std::vector<core::RunSpec> specs;
  for (std::uint32_t width = 1; width <= kMaxCes; ++width) {
    os::SystemConfig config;
    config.machine.cluster.n_ces = width;
    if (width != kMaxCes) {
      config.machine.cluster.policy = fx8::ServicePolicy::kAscending;
    }
    workload::WorkloadMix mix = workload::session_presets()[2];
    // Trip law widths follow the machine.
    mix.numeric.trip_law.width = width;
    specs.push_back(width_run(config, mix, 0x81D5, in));
  }
  return specs;
}

void render_width_sweep(Context& ctx) {
  ctx.printf("  %-6s %8s %8s %10s %10s\n", "CEs", "Cw", "Pc", "missrate",
             "busbusy");
  const auto runs = ctx.runs();
  double cw_at_1 = 0.0;
  double pc_at_8 = 0.0;
  for (std::uint32_t width = 1; width <= kMaxCes; ++width) {
    const instr::EventCounts& totals = runs.at(width - 1)->totals;
    const auto measures = core::ConcurrencyMeasures::from_counts(
        std::span(totals.num).first(width + 1));
    ctx.printf("  %-6u %8.4f %8s %10.4f %10.4f\n", width, measures.cw,
               measures.pc_defined ? repro::fixed(measures.pc, 2).c_str()
                                   : "n/a",
               totals.miss_rate(), totals.bus_busy());
    if (width == 1) {
      cw_at_1 = measures.cw;
    }
    if (width == kMaxCes) {
      pc_at_8 = measures.pc_defined ? measures.pc : 0.0;
    }
  }
  ctx.printf(
      "\n(a 1-CE machine can have no workload concurrency by definition;\n"
      "Pc tracks the width ceiling as processors are added)\n");

  // Structural invariants of the measures (§4.1): Cw needs >= 2 CEs,
  // and Pc is bounded by the cluster width.
  ctx.check("cw_at_width_1", cw_at_1, 0.0, 0.0, 0.0);
  ctx.check("pc_at_width_8", pc_at_8, 7.66, 2.0, 8.0);
}

// ---------------------------------------------------------------------
// Topology scale-out: multi-cluster FX/8..FX/64 machines (§6,
// docs/topology.md). Unlike width_sweep (which narrows one cluster),
// this widens the machine by ganging whole 8-CE clusters behind the
// second-level bank fabric.

constexpr std::array<std::uint32_t, 4> kScalingWidths = {8, 16, 32, 64};

std::vector<core::RunSpec> width_scaling_runs(const Inputs& in) {
  std::vector<core::RunSpec> specs;
  for (const std::uint32_t width : kScalingWidths) {
    specs.push_back(width_run(width_config(width),
                              workload::session_presets()[2],  // busy mix
                              0x81D5, in));
  }
  return specs;
}

void render_width_scaling(Context& ctx) {
  const std::array<std::uint32_t, 4>& widths = kScalingWidths;
  ctx.printf("  %-6s %-9s %8s %8s %10s %10s %12s\n", "CEs", "clusters",
             "Cw", "Pc", "missrate", "busbusy", "xconflicts");
  const auto runs = ctx.runs();
  std::array<core::ConcurrencyMeasures, 4> measures;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const core::RunResult& run = *runs.at(i);
    measures[i] = core::ConcurrencyMeasures::from_counts(
        std::span(run.totals.num).first(widths[i] + 1));
    ctx.printf("  %-6u %-9u %8.4f %8s %10.4f %10.4f %12llu\n", widths[i],
               run.clusters, measures[i].cw,
               measures[i].pc_defined
                   ? repro::fixed(measures[i].pc, 2).c_str()
                   : "n/a",
               run.totals.miss_rate(), run.totals.bus_busy(),
               static_cast<unsigned long long>(run.fabric_conflicts));
  }
  ctx.printf(
      "\n(the width-8 row is the measured FX/8 and carries the paper's\n"
      "bands; wider rows gang 8-CE clusters behind a second-level bank\n"
      "fabric, so Pc keeps climbing while cross-cluster bank conflicts\n"
      "appear — the T3/T4-style scale-out the paper's §6 asks about)\n");

  // Paper bands on the width-8 column only: the stock FX/8 must land
  // where the study's busy sessions did (Table 3 Cw, §4.1 Pc near 8).
  const auto pc = [&measures](std::size_t i) {
    return measures[i].pc_defined ? measures[i].pc : 0.0;
  };
  ctx.check("cw_at_width_8", measures[0].cw, 0.66, 0.30, 1.00);
  ctx.check("pc_at_width_8", pc(0), 7.66, 2.0, 8.0);
  // Structural invariants of the scale-out: Pc never exceeds the
  // machine width, and mean concurrency does not shrink as whole
  // clusters are added.
  double worst_pc_over_width = 0.0;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    worst_pc_over_width = std::max(worst_pc_over_width,
                                   pc(i) / static_cast<double>(widths[i]));
  }
  ctx.check("max_pc_over_width", worst_pc_over_width, 0.9, 0.0, 1.0);
  ctx.check("pc_gain_8_to_64", pc(3) - pc(0), 24.0, 0.0, 56.0);
  ctx.metric("pc_at_width_16", pc(1));
  ctx.metric("pc_at_width_32", pc(2));
  ctx.metric("pc_at_width_64", pc(3));
  const core::RunResult& widest = *runs.at(3);
  ctx.metric("miss_rate_at_width_64", widest.totals.miss_rate());
  ctx.metric("bus_busy_at_width_64", widest.totals.bus_busy());
  ctx.metric("fabric_conflicts_at_width_64",
             static_cast<double>(widest.fabric_conflicts));
}

// ---------------------------------------------------------------------
// Correlation matrix of the sampled measures (§5.3).

void render_correlation_matrix(Context& ctx) {
  // Use only Pc-defined samples so every series has equal length.
  const auto& samples = ctx.in().samples_with_pc();

  std::vector<stats::Series> series = {
      {"Cw", core::column_cw(samples)},
      {"Pc", core::column_pc(samples)},
      {"missrate", core::column_miss_rate(samples)},
      {"busbusy", core::column_bus_busy(samples)},
      {"pfrate", core::column_page_fault_rate(samples)},
  };

  ctx.printf("%zu concurrent samples\n\n", samples.size());
  ctx.printf("%s\n", stats::render_correlation_matrix(series).c_str());
  ctx.printf("%s\n",
             stats::render_correlation_matrix(series, /*rank=*/true)
                 .c_str());

  // A degenerate (constant) series leaves r undefined; NaN flows into
  // the tolerance checks as an out-of-band verdict and into the JSON
  // report as null, instead of crashing the run.
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const double r_cw =
      stats::pearson(series[0].values, series[2].values).value_or(kNan);
  const double r_pc =
      stats::pearson(series[1].values, series[2].values).value_or(kNan);
  ctx.printf("missrate correlation: with Cw %.3f vs with Pc %.3f "
             "(paper: the former dominates)\n",
             r_cw, r_pc);

  // "Little correlation between Missrate and Pc is seen" (§5.3): the Cw
  // column dominates.
  ctx.check("missrate_cw_corr", r_cw, 0.86, 0.30, 1.00);
  ctx.check("cw_minus_pc_corr", r_cw - r_pc, 0.5, 0.05, 2.0);
  ctx.metric("missrate_pc_corr", r_pc);
}

// ---------------------------------------------------------------------
// The Figure-3 footnote, quantified: detached (exclusively serial)
// processors inflate the probe's apparent concurrency.

std::vector<core::RunSpec> detached_runs(const Inputs& in) {
  std::vector<core::RunSpec> specs;
  for (const std::uint32_t detached : {0u, 2u}) {
    core::RunSpec spec;
    spec.system.machine.cluster.detached_ces = detached;
    // A serial-heavy day: the cluster is often serial or idle, which is
    // when a busy detached CE turns 1-active states into apparent
    // 2-active "concurrency".
    spec.mix = workload::session_presets()[8];
    spec.mix.mean_idle_cycles = 8000;  // keep the detached CEs fed
    spec.mix.numeric.trip_law.width =
        spec.system.machine.cluster.n_ces - detached;
    spec.generator_seed = 0xDE7AC4;
    spec.controller_seed = 0xDE7AC4;
    spec.sampling.interval_cycles = 60000;
    spec.samples = in.scaled(8, 3);
    spec.trace_overlap = true;
    specs.push_back(spec);
  }
  return specs;
}

void render_detached_artifact(Context& ctx) {
  ctx.printf("  %-26s %12s %12s %12s\n", "configuration", "probe Cw",
             "true Cw", "inflation");
  const auto runs = ctx.runs();
  const char* const labels[] = {"all 8 CEs clustered",
                                "6 clustered + 2 detached"};
  std::array<double, 2> inflation{};
  for (std::size_t i = 0; i < inflation.size(); ++i) {
    // Cw from the CCB activity histogram against the concurrency the
    // iteration-overlap traces show.
    const double probe_cw =
        core::ConcurrencyMeasures::from_counts(runs.at(i)->totals.num).cw;
    const double true_cw = runs.at(i)->trace_cw;
    inflation[i] = probe_cw - true_cw;
    ctx.printf("  %-26s %12.4f %12.4f %12.4f\n", labels[i], probe_cw,
               true_cw, inflation[i]);
  }
  ctx.printf(
      "\n(with detached CEs the probe's activity histogram counts serial\n"
      "processes as concurrency — the measurement caveat the paper's\n"
      "footnote flags; the study's machine ran fully clustered)\n");

  // The footnote's caveat, made quantitative: detaching CEs inflates
  // the probe's Cw over the trace truth by more than full clustering.
  ctx.check("inflation_gain", inflation[1] - inflation[0], 0.1, 0.0, 1.0);
  ctx.metric("attached_inflation", inflation[0]);
  ctx.metric("detached_inflation", inflation[1]);
}

// ---------------------------------------------------------------------
// §3.5 second measurement group: all-8-active triggered captures.

std::vector<core::RunSpec> high_concurrency_runs(const Inputs& in) {
  core::RunSpec spec;
  spec.mix = workload::high_concurrency_mix();
  spec.generator_seed = 0xA17AC;
  spec.controller_seed = 0xA17AC;
  // Ten triggered captures, as in the study, then a random-sampled
  // baseline over the same machine/mix.
  spec.capture_mode = instr::TriggerMode::kAllActive;
  spec.captures = in.scaled(10, 4);
  spec.capture_timeout = 400000;
  spec.samples = in.scaled(5, 2);
  return {spec};
}

void render_high_concurrency_captures(Context& ctx) {
  const core::RunResult& run = *ctx.runs().at(0);
  const std::uint32_t completed = run.captures_completed;
  const std::uint32_t wanted = completed + run.captures_timed_out;
  const instr::EventCounts& triggered = run.captured;
  const instr::EventCounts& random = run.totals;

  ctx.printf("captures completed: %u of %u\n\n", completed, wanted);
  ctx.printf("  %-26s %10s %10s\n", "", "miss rate", "bus busy");
  ctx.printf("  %-26s %10.4f %10.4f\n", "triggered (8-active)",
             triggered.miss_rate(), triggered.bus_busy());
  ctx.printf("  %-26s %10.4f %10.4f\n", "random sampling",
             random.miss_rate(), random.bus_busy());

  const auto triggered_measures =
      core::ConcurrencyMeasures::from_counts(triggered.num);
  ctx.printf("\nconcurrency inside the triggered buffers: Cw=%.3f "
             "(near 1 by construction), Pc=%.2f\n",
             triggered_measures.cw, triggered_measures.pc);
  ctx.printf(
      "(full-concurrency operation carries the high miss/bus activity the\n"
      "regression models attribute to Cw — conditioning on 8-active shows\n"
      "it without any model)\n");

  if (completed == 0) {
    ctx.fail("no all-active captures completed");
    return;
  }
  ctx.check("captures_completed", completed, 10.0, 1.0,
            static_cast<double>(wanted));
  ctx.check("triggered_cw", triggered_measures.cw, 1.0, 0.85, 1.0);
  // The Chapter-5 coupling, seen directly: conditioning on 8-active
  // carries higher miss activity than the workload average.
  ctx.check("miss_ratio_triggered_over_random",
            random.miss_rate() > 0.0
                ? triggered.miss_rate() / random.miss_rate()
                : NAN,
            2.0, 0.9, 100.0);
  ctx.metric("triggered_bus_busy", triggered.bus_busy());
}

}  // namespace

void register_extensions(std::vector<ArtifactDef>& catalog) {
  catalog.push_back(
      {"trace_vs_sampling", ArtifactKind::kExtension, "§2.1",
       "EXTENSION — sampling vs. marker-trace ground truth",
       "the thesis' sampling methodology should agree with exact traces "
       "(methodology validation, not a paper artifact)",
       render_trace_vs_sampling, trace_vs_sampling_runs});
  catalog.push_back(
      {"scheduling_policy", ArtifactKind::kExtension, "§6",
       "EXTENSION — scheduling policy vs. workload concurrency",
       "a software scheduling knob shifts when concurrency appears; the "
       "paper flags this study as future work (§6)",
       render_scheduling_policy, scheduling_policy_runs});
  catalog.push_back(
      {"width_sweep", ArtifactKind::kExtension, "§4.1",
       "EXTENSION — concurrency measures across FX/1..FX/8 widths",
       "the measures generalize to any cluster width (§4.1); Pc is "
       "bounded by the width and Cw needs at least two CEs",
       render_width_sweep, width_sweep_runs});
  catalog.push_back(
      {"width_scaling", ArtifactKind::kExtension, "§6",
       "EXTENSION — topology scale-out across FX/8..FX/64 machines",
       "ganging 8-CE clusters behind a second-level bank fabric keeps Pc "
       "climbing with machine width while the width-8 column stays on the "
       "paper's measured bands (§6 scale-out)",
       render_width_scaling, width_scaling_runs});
  catalog.push_back(
      {"correlation_matrix", ArtifactKind::kExtension, "§5.3",
       "EXTENSION — correlation matrix of the sampled measures",
       "strong Cw columns, weak missrate-vs-Pc entry (§5.3)",
       render_correlation_matrix, &Inputs::study_specs});
  catalog.push_back(
      {"detached_artifact", ArtifactKind::kExtension, "Figure 3 footnote",
       "EXTENSION — detached processes and the Figure-3 footnote",
       "detached serial processes register as active on the CCB probe, "
       "inflating apparent concurrency over the true loop overlap",
       render_detached_artifact, detached_runs});
  catalog.push_back(
      {"high_concurrency_captures", ArtifactKind::kExtension, "§3.5",
       "EXTENSION — all-8-active triggered captures (second group)",
       "system measures conditioned on full concurrency exceed the "
       "workload averages (the Chapter-5 coupling, seen directly)",
       render_high_concurrency_captures, high_concurrency_runs});
}

}  // namespace repro::artifacts
