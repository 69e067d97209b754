// The beyond-the-paper extensions: methodology validation and the §6
// future-work studies. Ported from the bench_trace_vs_sampling,
// bench_scheduling_policy, bench_width_sweep, bench_correlation_matrix,
// bench_detached_artifact and bench_high_concurrency_captures binaries.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "artifacts/inputs.hpp"
#include "artifacts/registry.hpp"
#include "base/text.hpp"
#include "base/types.hpp"
#include "core/sample.hpp"
#include "instr/session_controller.hpp"
#include "os/system.hpp"
#include "stats/correlation.hpp"
#include "trace/profile.hpp"
#include "trace/tracer.hpp"
#include "workload/generator.hpp"
#include "workload/presets.hpp"

namespace repro::artifacts {

namespace {

/// Time with >= 2 loop iterations in flight over [t0, t1], from marker
/// traces; also the mean overlap during that time when requested.
struct TraceTruth {
  double cw = 0.0;
  double pc = 0.0;
};

TraceTruth trace_ground_truth(std::span<const trace::TraceEvent> events,
                              Cycle t0, Cycle t1) {
  std::vector<std::pair<Cycle, int>> deltas;
  for (const trace::TraceEvent& event : events) {
    if (event.time < t0 || event.time > t1) {
      continue;
    }
    if (event.kind == trace::EventKind::kIterationStart) {
      deltas.emplace_back(event.time, +1);
    } else if (event.kind == trace::EventKind::kIterationEnd) {
      deltas.emplace_back(event.time, -1);
    }
  }
  std::sort(deltas.begin(), deltas.end());
  Cycle concurrent_time = 0;
  double overlap_integral = 0.0;
  int overlap = 0;
  Cycle prev = t0;
  for (const auto& [time, delta] : deltas) {
    if (overlap >= 2) {
      concurrent_time += time - prev;
      overlap_integral += static_cast<double>(overlap) *
                          static_cast<double>(time - prev);
    }
    overlap += delta;
    prev = time;
  }
  TraceTruth truth;
  truth.cw = static_cast<double>(concurrent_time) /
             static_cast<double>(t1 - t0);
  truth.pc = concurrent_time > 0
                 ? overlap_integral / static_cast<double>(concurrent_time)
                 : 0.0;
  return truth;
}

// ---------------------------------------------------------------------
// Methodology validation: sampling vs. marker tracing (§2.1).

void render_trace_vs_sampling(Context& ctx) {
  os::System system{os::SystemConfig{}};
  trace::EventTracer tracer;
  system.machine().cluster().set_observer(&tracer);

  workload::WorkloadMix mix = workload::session_presets()[2];  // busy mix
  workload::WorkloadGenerator generator(mix, 0xFACADE);
  instr::SamplingConfig sampling;
  sampling.interval_cycles = 60000;
  instr::SessionController controller(system, generator, sampling,
                                      0xFACADE);
  ctx.in().note_private_run();

  const Cycle t0 = system.now();
  const auto records = controller.run_session(ctx.in().scaled(10, 4));
  const Cycle t1 = system.now();

  // Sampling estimate: aggregate counts over the session.
  instr::EventCounts totals;
  for (const instr::SampleRecord& record : records) {
    totals.merge(record.hw);
  }
  const auto sampled = core::ConcurrencyMeasures::from_counts(totals.num);

  // Trace ground truth over the same wall-clock span.
  const TraceTruth exact = trace_ground_truth(tracer.events(), t0, t1);

  ctx.printf("                sampling   trace ground truth\n");
  ctx.printf("  Cw            %8.4f   %8.4f\n", sampled.cw, exact.cw);
  ctx.printf("  Pc            %8.2f   %8.2f\n", sampled.pc, exact.pc);
  ctx.printf("\n(agreement within a few percent validates the sampling "
             "methodology;\nsmall gaps come from dispatch/dependence "
             "states the CCB probe counts\nas active while no iteration "
             "body is in flight)\n");
  ctx.printf("\njobs traced: %zu, trace events: %zu\n",
             trace::profile_all(tracer.events()).size(),
             tracer.events().size());

  // "Within a few percent": the probe counts dispatch/dependence states
  // as active and misses sub-interval overlap, so the gap can land on
  // either side of zero, but it stays small.
  ctx.check("cw_gap", sampled.cw - exact.cw, 0.0, -0.12, 0.12);
  ctx.metric("sampled_cw", sampled.cw);
  ctx.metric("trace_cw", exact.cw);
  ctx.note("pc_gap", sampled.pc - exact.pc, 0.0, -2.0, 2.0);
}

// ---------------------------------------------------------------------
// Scheduling-parameter study (the paper's §6 future work).

struct PolicyResult {
  core::ConcurrencyMeasures measures;
  double mean_wait = 0.0;
  std::uint64_t jobs_completed = 0;
};

PolicyResult run_policy(Context& ctx, os::SchedulingPolicy policy) {
  os::SystemConfig config;
  config.scheduling = policy;
  os::System system{config};
  workload::WorkloadMix mix = workload::session_presets()[2];
  mix.mean_burst_jobs = 4.0;  // deep queues make the discipline matter
  workload::WorkloadGenerator generator(mix, 0x5CED);
  instr::SamplingConfig sampling;
  sampling.interval_cycles = 60000;
  instr::SessionController controller(system, generator, sampling, 0x5CED);
  ctx.in().note_private_run();

  instr::EventCounts totals;
  for (const instr::SampleRecord& record :
       controller.run_session(ctx.in().scaled(8, 3))) {
    totals.merge(record.hw);
  }
  PolicyResult result;
  result.measures = core::ConcurrencyMeasures::from_counts(totals.num);
  const auto& stats = system.scheduler().stats();
  result.jobs_completed = stats.jobs_completed;
  result.mean_wait = stats.jobs_completed == 0
                         ? 0.0
                         : static_cast<double>(stats.total_wait_cycles) /
                               static_cast<double>(stats.jobs_completed);
  return result;
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
  const std::array<os::SchedulingPolicy, 3> policies = {
      os::SchedulingPolicy::kFifo, os::SchedulingPolicy::kConcurrentFirst,
      os::SchedulingPolicy::kSerialFirst};

  ctx.printf("  %-18s %8s %8s %10s %8s\n", "policy", "Cw", "Pc",
             "mean-wait", "jobs");
  std::array<PolicyResult, 3> results;
  for (std::size_t p = 0; p < policies.size(); ++p) {
    results[p] = run_policy(ctx, policies[p]);
    ctx.printf("  %-18s %8.4f %8.2f %10.0f %8llu\n",
               policy_name(policies[p]), results[p].measures.cw,
               results[p].measures.pc_defined ? results[p].measures.pc
                                              : 0.0,
               results[p].mean_wait,
               static_cast<unsigned long long>(results[p].jobs_completed));
  }
  ctx.printf(
      "\n(the same programs, arrivals and machine; only the run-queue\n"
      "discipline differs — concurrent-first front-loads the concurrency,\n"
      "serial-first defers it)\n");

  ctx.check("fifo_cw", results[0].measures.cw, 0.5, 0.0, 1.0);
  ctx.metric("concurrent_first_cw", results[1].measures.cw);
  ctx.metric("serial_first_cw", results[2].measures.cw);
  // The knob moves *when* concurrency appears more than how much of it
  // there is; the Cw spread across disciplines stays modest.
  ctx.note("policy_cw_spread",
           std::abs(results[1].measures.cw - results[2].measures.cw), 0.0,
           0.0, 0.5);
}

// ---------------------------------------------------------------------
// Machine-width sweep: FX/1 .. FX/8 (§4.1, §6, Appendix C).

struct WidthRow {
  core::ConcurrencyMeasures measures;
  double miss_rate = 0.0;
  double bus_busy = 0.0;
};

WidthRow run_width(Context& ctx, std::uint32_t width) {
  os::SystemConfig config;
  config.machine.cluster.n_ces = width;
  if (width != kMaxCes) {
    config.machine.cluster.policy = fx8::ServicePolicy::kAscending;
  }
  os::System system{config};
  workload::WorkloadMix mix = workload::session_presets()[2];
  // Trip law widths follow the machine.
  mix.numeric.trip_law.width = width;
  workload::WorkloadGenerator generator(mix, 0x81D5);
  instr::SamplingConfig sampling;
  sampling.interval_cycles = 50000;
  instr::SessionController controller(system, generator, sampling, 0x81D5);
  ctx.in().note_private_run();

  instr::EventCounts totals;
  for (const instr::SampleRecord& record :
       controller.run_session(ctx.in().scaled(5, 2))) {
    totals.merge(record.hw);
  }
  WidthRow row;
  row.measures = core::ConcurrencyMeasures::from_counts(
      std::span(totals.num).first(width + 1));
  row.miss_rate = totals.miss_rate();
  row.bus_busy = totals.bus_busy();
  return row;
}

void render_width_sweep(Context& ctx) {
  ctx.printf("  %-6s %8s %8s %10s %10s\n", "CEs", "Cw", "Pc", "missrate",
             "busbusy");
  double cw_at_1 = 0.0;
  double pc_at_8 = 0.0;
  for (std::uint32_t width = 1; width <= 8; ++width) {
    const WidthRow row = run_width(ctx, width);
    ctx.printf("  %-6u %8.4f %8s %10.4f %10.4f\n", width, row.measures.cw,
               row.measures.pc_defined
                   ? repro::fixed(row.measures.pc, 2).c_str()
                   : "n/a",
               row.miss_rate, row.bus_busy);
    if (width == 1) {
      cw_at_1 = row.measures.cw;
    }
    if (width == 8) {
      pc_at_8 = row.measures.pc_defined ? row.measures.pc : 0.0;
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

struct ScalingRow {
  core::ConcurrencyMeasures measures;
  double miss_rate = 0.0;
  double bus_busy = 0.0;
  std::uint64_t fabric_conflicts = 0;
  std::uint32_t clusters = 1;
};

ScalingRow run_scaling_width(Context& ctx, std::uint32_t width) {
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
  os::System system{config};
  const std::uint32_t clusters = system.machine().n_clusters();
  workload::WorkloadMix mix = workload::session_presets()[2];  // busy mix
  // Clusters schedule independently off one FIFO queue; deepen the
  // arrival bursts so every cluster stays fed.
  mix.mean_burst_jobs *= clusters;
  workload::WorkloadGenerator generator(mix, 0x81D5);
  instr::SamplingConfig sampling;
  sampling.interval_cycles = 50000;
  instr::SessionController controller(system, generator, sampling, 0x81D5);
  ctx.in().note_private_run();

  instr::EventCounts totals;
  for (const instr::SampleRecord& record :
       controller.run_session(ctx.in().scaled(5, 2))) {
    totals.merge(record.hw);
  }
  ScalingRow row;
  row.measures = core::ConcurrencyMeasures::from_counts(
      std::span(totals.num).first(width + 1));
  row.miss_rate = totals.miss_rate();
  row.bus_busy = totals.bus_busy();
  row.clusters = clusters;
  if (const fx8::ClusterFabric* fabric = system.machine().fabric()) {
    row.fabric_conflicts = fabric->conflicts();
  }
  return row;
}

void render_width_scaling(Context& ctx) {
  const std::array<std::uint32_t, 4> widths = {8, 16, 32, 64};
  ctx.printf("  %-6s %-9s %8s %8s %10s %10s %12s\n", "CEs", "clusters",
             "Cw", "Pc", "missrate", "busbusy", "xconflicts");
  std::array<ScalingRow, 4> rows;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    rows[i] = run_scaling_width(ctx, widths[i]);
    ctx.printf("  %-6u %-9u %8.4f %8s %10.4f %10.4f %12llu\n", widths[i],
               rows[i].clusters, rows[i].measures.cw,
               rows[i].measures.pc_defined
                   ? repro::fixed(rows[i].measures.pc, 2).c_str()
                   : "n/a",
               rows[i].miss_rate, rows[i].bus_busy,
               static_cast<unsigned long long>(rows[i].fabric_conflicts));
  }
  ctx.printf(
      "\n(the width-8 row is the measured FX/8 and carries the paper's\n"
      "bands; wider rows gang 8-CE clusters behind a second-level bank\n"
      "fabric, so Pc keeps climbing while cross-cluster bank conflicts\n"
      "appear — the T3/T4-style scale-out the paper's §6 asks about)\n");

  // Paper bands on the width-8 column only: the stock FX/8 must land
  // where the study's busy sessions did (Table 3 Cw, §4.1 Pc near 8).
  ctx.check("cw_at_width_8", rows[0].measures.cw, 0.66, 0.30, 1.00);
  ctx.check("pc_at_width_8",
            rows[0].measures.pc_defined ? rows[0].measures.pc : 0.0, 7.66,
            2.0, 8.0);
  // Structural invariants of the scale-out: Pc never exceeds the
  // machine width, and mean concurrency does not shrink as whole
  // clusters are added.
  double worst_pc_over_width = 0.0;
  for (std::size_t i = 0; i < widths.size(); ++i) {
    const double pc =
        rows[i].measures.pc_defined ? rows[i].measures.pc : 0.0;
    worst_pc_over_width = std::max(
        worst_pc_over_width, pc / static_cast<double>(widths[i]));
  }
  ctx.check("max_pc_over_width", worst_pc_over_width, 0.9, 0.0, 1.0);
  ctx.check("pc_gain_8_to_64",
            (rows[3].measures.pc_defined ? rows[3].measures.pc : 0.0) -
                (rows[0].measures.pc_defined ? rows[0].measures.pc : 0.0),
            24.0, 0.0, 56.0);
  ctx.metric("pc_at_width_16",
             rows[1].measures.pc_defined ? rows[1].measures.pc : 0.0);
  ctx.metric("pc_at_width_32",
             rows[2].measures.pc_defined ? rows[2].measures.pc : 0.0);
  ctx.metric("pc_at_width_64",
             rows[3].measures.pc_defined ? rows[3].measures.pc : 0.0);
  ctx.metric("miss_rate_at_width_64", rows[3].miss_rate);
  ctx.metric("bus_busy_at_width_64", rows[3].bus_busy);
  ctx.metric("fabric_conflicts_at_width_64",
             static_cast<double>(rows[3].fabric_conflicts));
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

struct ArtifactPoint {
  double probe_cw = 0.0;  ///< Cw from the CCB activity histogram.
  double true_cw = 0.0;   ///< Concurrency from iteration-overlap traces.
};

ArtifactPoint run_detached_config(Context& ctx, std::uint32_t detached) {
  os::SystemConfig config;
  config.machine.cluster.detached_ces = detached;
  os::System system{config};
  trace::EventTracer tracer;
  system.machine().cluster().set_observer(&tracer);

  // A serial-heavy day: the cluster is often serial or idle, which is
  // when a busy detached CE turns 1-active states into apparent
  // 2-active "concurrency".
  workload::WorkloadMix mix = workload::session_presets()[8];
  mix.mean_idle_cycles = 8000;  // keep the detached CEs fed
  mix.numeric.trip_law.width = system.machine().cluster().cluster_width();
  workload::WorkloadGenerator generator(mix, 0xDE7AC4);
  instr::SamplingConfig sampling;
  sampling.interval_cycles = 60000;
  instr::SessionController controller(system, generator, sampling,
                                      0xDE7AC4);
  ctx.in().note_private_run();

  const Cycle t0 = system.now();
  instr::EventCounts totals;
  for (const instr::SampleRecord& record :
       controller.run_session(ctx.in().scaled(8, 3))) {
    totals.merge(record.hw);
  }
  const Cycle t1 = system.now();

  ArtifactPoint point{};
  point.probe_cw = core::ConcurrencyMeasures::from_counts(totals.num).cw;
  point.true_cw = trace_ground_truth(tracer.events(), t0, t1).cw;
  return point;
}

void render_detached_artifact(Context& ctx) {
  const ArtifactPoint attached = run_detached_config(ctx, 0);
  const ArtifactPoint detached = run_detached_config(ctx, 2);

  ctx.printf("  %-26s %12s %12s %12s\n", "configuration", "probe Cw",
             "true Cw", "inflation");
  ctx.printf("  %-26s %12.4f %12.4f %12.4f\n", "all 8 CEs clustered",
             attached.probe_cw, attached.true_cw,
             attached.probe_cw - attached.true_cw);
  ctx.printf("  %-26s %12.4f %12.4f %12.4f\n", "6 clustered + 2 detached",
             detached.probe_cw, detached.true_cw,
             detached.probe_cw - detached.true_cw);
  ctx.printf(
      "\n(with detached CEs the probe's activity histogram counts serial\n"
      "processes as concurrency — the measurement caveat the paper's\n"
      "footnote flags; the study's machine ran fully clustered)\n");

  const double attached_inflation = attached.probe_cw - attached.true_cw;
  const double detached_inflation = detached.probe_cw - detached.true_cw;
  // The footnote's caveat, made quantitative: detaching CEs inflates
  // the probe's Cw over the trace truth by more than full clustering.
  ctx.check("inflation_gain", detached_inflation - attached_inflation,
            0.1, 0.0, 1.0);
  ctx.metric("attached_inflation", attached_inflation);
  ctx.metric("detached_inflation", detached_inflation);
}

// ---------------------------------------------------------------------
// §3.5 second measurement group: all-8-active triggered captures.

void render_high_concurrency_captures(Context& ctx) {
  os::System system{os::SystemConfig{}};
  workload::WorkloadGenerator generator(workload::high_concurrency_mix(),
                                        0xA17AC);
  instr::SamplingConfig sampling;
  instr::SessionController controller(system, generator, sampling,
                                      0xA17AC);
  ctx.in().note_private_run();

  // Ten triggered captures, as in the study.
  const int wanted = static_cast<int>(ctx.in().scaled(10, 4));
  instr::EventCounts triggered;
  std::uint32_t completed = 0;
  for (int capture = 0; capture < wanted; ++capture) {
    const auto buffer = controller.capture_triggered(
        instr::TriggerMode::kAllActive, 400000);
    if (buffer) {
      triggered.merge(instr::reduce(*buffer));
      ++completed;
    }
  }

  // A random-sampled baseline over the same machine/mix.
  instr::EventCounts random;
  for (const instr::SampleRecord& record :
       controller.run_session(ctx.in().scaled(5, 2))) {
    random.merge(record.hw);
  }

  ctx.printf("captures completed: %u of %d\n\n", completed, wanted);
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
       render_trace_vs_sampling});
  catalog.push_back(
      {"scheduling_policy", ArtifactKind::kExtension, "§6",
       "EXTENSION — scheduling policy vs. workload concurrency",
       "a software scheduling knob shifts when concurrency appears; the "
       "paper flags this study as future work (§6)",
       render_scheduling_policy});
  catalog.push_back(
      {"width_sweep", ArtifactKind::kExtension, "§4.1",
       "EXTENSION — concurrency measures across FX/1..FX/8 widths",
       "the measures generalize to any cluster width (§4.1); Pc is "
       "bounded by the width and Cw needs at least two CEs",
       render_width_sweep});
  catalog.push_back(
      {"width_scaling", ArtifactKind::kExtension, "§6",
       "EXTENSION — topology scale-out across FX/8..FX/64 machines",
       "ganging 8-CE clusters behind a second-level bank fabric keeps Pc "
       "climbing with machine width while the width-8 column stays on the "
       "paper's measured bands (§6 scale-out)",
       render_width_scaling});
  catalog.push_back(
      {"correlation_matrix", ArtifactKind::kExtension, "§5.3",
       "EXTENSION — correlation matrix of the sampled measures",
       "strong Cw columns, weak missrate-vs-Pc entry (§5.3)",
       render_correlation_matrix, kReadsStudy});
  catalog.push_back(
      {"detached_artifact", ArtifactKind::kExtension, "Figure 3 footnote",
       "EXTENSION — detached processes and the Figure-3 footnote",
       "detached serial processes register as active on the CCB probe, "
       "inflating apparent concurrency over the true loop overlap",
       render_detached_artifact});
  catalog.push_back(
      {"high_concurrency_captures", ArtifactKind::kExtension, "§3.5",
       "EXTENSION — all-8-active triggered captures (second group)",
       "system measures conditioned on full concurrency exceed the "
       "workload averages (the Chapter-5 coupling, seen directly)",
       render_high_concurrency_captures});
}

}  // namespace repro::artifacts
