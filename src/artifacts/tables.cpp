// Tables 1-4: the paper's tabular artifacts.
//
// Ported from the one-shot bench_table*_event_counts/_overall_measures/
// _regression_vs_* binaries; the rendered text is unchanged, the study
// now comes from the shared input cache, and each table's headline
// numbers carry explicit paper-tolerance verdicts.
#include <cmath>

#include "artifacts/inputs.hpp"
#include "artifacts/registry.hpp"
#include "base/rng.hpp"
#include "core/report.hpp"
#include "core/run.hpp"
#include "stats/bootstrap.hpp"
#include "workload/presets.hpp"

namespace repro::artifacts {

namespace {

// Table 1: Hardware Event Counts. One all-active triggered acquisition
// (a 512-deep DAS buffer) off a loaded machine, reduced — the exact
// artifact the measurement scripts produced per buffer (§3.4).
std::vector<core::RunSpec> table1_runs(const Inputs&) {
  core::RunSpec spec;
  spec.mix = workload::high_concurrency_mix();
  spec.generator_seed = 0x7AB1E1;
  spec.controller_seed = 0x7AB1E1;
  spec.capture_mode = instr::TriggerMode::kAllActive;
  spec.captures = 1;
  spec.capture_timeout = 500000;
  return {spec};
}

void render_table1(Context& ctx) {
  const core::RunResult& run = *ctx.runs().at(0);
  if (run.captures_completed == 0) {
    ctx.fail("trigger never fired (unexpected under this mix)");
    return;
  }
  const instr::EventCounts& counts = run.captured;
  ctx.printf("%s\n", counts.render().c_str());
  ctx.printf("derived: miss_rate=%.4f  bus_busy=%.4f  mem_bus_busy=%.4f\n",
             counts.miss_rate(), counts.bus_busy(), counts.mem_bus_busy());

  // Structural verdicts: an all-active buffer must be dominated by the
  // 8-active state and produce finite, sane derived measures.
  const double full_share =
      counts.records == 0
          ? 0.0
          : static_cast<double>(counts.num[kMaxCes]) /
                static_cast<double>(counts.records);
  ctx.check("full_active_share", full_share, 1.0, 0.5, 1.0);
  ctx.check("miss_rate", counts.miss_rate(), 0.02, 0.0, 0.5);
  ctx.check("bus_busy", counts.bus_busy(), 0.33, 0.0, 1.0);
  ctx.metric("mem_bus_busy", counts.mem_bus_busy());
}

// Table 2: Overall Concurrency Measures for All Sessions.
// Paper values: c8 = 0.2795, Cw = 0.3506, c(8|c) = 0.9278, Pc = 7.66.
void render_table2(Context& ctx) {
  const core::StudyResult& study = ctx.in().study();
  ctx.printf("%s\n", core::render_table2(study.overall).c_str());

  ctx.printf("paper vs measured:\n");
  ctx.printf("  Cw      %8.4f  %8.4f\n", 0.3506, study.overall.cw);
  ctx.printf("  c8      %8.4f  %8.4f\n", 0.2795, study.overall.c[8]);
  ctx.printf("  c(8|c)  %8.4f  %8.4f\n", 0.9278, study.overall.c_cond[8]);
  ctx.printf("  Pc      %8.2f  %8.2f\n", 7.66, study.overall.pc);

  // The headline concurrency measures, against tolerance bands around
  // the paper's Table 2 (EXPERIMENTS.md records the paper-scale values:
  // 0.334 / 0.266 / 0.80 / 7.27).
  ctx.check("cw", study.overall.cw, 0.3506, 0.20, 0.50);
  ctx.check("c8", study.overall.c[8], 0.2795, 0.15, 0.45);
  ctx.check("c8_given_c", study.overall.c_cond[8], 0.9278, 0.60, 1.00);
  ctx.check("pc", study.overall.pc, 7.66, 6.50, 8.00);

  // Sampling uncertainty (an extension: the thesis reports points only).
  const auto& samples = ctx.in().samples();
  Rng rng(0xB007);
  const auto cw_ci = stats::bootstrap_mean_ci(core::column_cw(samples), rng);
  const auto pc_ci = stats::bootstrap_mean_ci(core::column_pc(samples), rng);
  ctx.printf(
      "\n95%% bootstrap CIs over per-sample values (%zu samples):\n"
      "  mean Cw  %.4f [%.4f, %.4f]\n"
      "  mean Pc  %.2f [%.2f, %.2f]\n",
      samples.size(), cw_ci.point, cw_ci.lo, cw_ci.hi, pc_ci.point,
      pc_ci.lo, pc_ci.hi);
  ctx.metric("cw_ci_lo", cw_ci.lo);
  ctx.metric("cw_ci_hi", cw_ci.hi);
  ctx.metric("pc_ci_lo", pc_ci.lo);
  ctx.metric("pc_ci_hi", pc_ci.hi);
}

// Table 3: Regression Models versus Cw. Paper R^2: miss rate 0.74, CE
// bus busy 0.89, page fault rate 0.65; all medians increase with Cw.
void render_table3(Context& ctx) {
  const auto& models = ctx.in().models();
  ctx.printf("%s\n",
             core::render_regression_table(models, core::Regressor::kCw)
                 .c_str());

  for (const core::MedianModel& model : models) {
    if (model.regressor != core::Regressor::kCw) {
      continue;
    }
    ctx.printf("%s median points:", measure_name(model.measure).c_str());
    for (const auto& [mid, med] : model.median_points) {
      ctx.printf("  (%.1f, %.4g)", mid, med);
    }
    ctx.printf("\n");
  }

  // All three vs-Cw fits must stay strong (paper: 0.74/0.89/0.65;
  // measured at paper scale: 0.97/0.96/0.79) and rising.
  const auto& miss =
      ctx.in().model(core::SystemMeasure::kMissRate, core::Regressor::kCw);
  const auto& busy =
      ctx.in().model(core::SystemMeasure::kBusBusy, core::Regressor::kCw);
  const auto& fault = ctx.in().model(core::SystemMeasure::kPageFaultRate,
                                     core::Regressor::kCw);
  ctx.check("r2_miss_rate", miss.r_squared(), 0.74, 0.40, 1.00);
  ctx.check("r2_bus_busy", busy.r_squared(), 0.89, 0.50, 1.00);
  ctx.check("r2_page_fault_rate", fault.r_squared(), 0.65, 0.30, 1.00);
  ctx.check("miss_rise_over_cw", miss.predict(1.0) - miss.predict(0.1),
            0.017, 0.0, 1.0);
}

// Table 4: Regression Models versus Pc. Paper: miss rate shows
// essentially no relationship with Pc (R^2 = 0.07) while CE bus busy
// (0.66) and page fault rate (0.61) retain moderate fits.
void render_table4(Context& ctx) {
  const auto& models = ctx.in().models();
  ctx.printf("%s\n",
             core::render_regression_table(models, core::Regressor::kPc)
                 .c_str());

  // The effect-size view of "no relationship": compare each model's
  // range over the observed Pc span against the Cw model's range.
  for (const core::MedianModel& model : models) {
    if (model.regressor != core::Regressor::kPc) {
      continue;
    }
    const double spread = std::abs(model.predict(8.0) - model.predict(6.0));
    ctx.printf("%-26s prediction range over Pc in [6,8]: %.4g\n",
               measure_name(model.measure).c_str(), spread);
  }
  for (const core::MedianModel& model : models) {
    if (model.regressor == core::Regressor::kCw &&
        model.measure == core::SystemMeasure::kMissRate) {
      ctx.printf(
          "%-26s prediction range over Cw in [0,1]: %.4g  (the contrast)\n",
          "Median Miss Rate",
          std::abs(model.predict(1.0) - model.predict(0.0)));
    }
  }

  // The substantive claim survives on effect size (EXPERIMENTS.md): the
  // miss-rate model's range over the observed Pc span is a small
  // fraction of its range over the Cw span.
  const auto& miss_pc =
      ctx.in().model(core::SystemMeasure::kMissRate, core::Regressor::kPc);
  const auto& miss_cw =
      ctx.in().model(core::SystemMeasure::kMissRate, core::Regressor::kCw);
  const double pc_spread = std::abs(miss_pc.predict(8.0) - miss_pc.predict(6.0));
  const double cw_spread = std::abs(miss_cw.predict(1.0) - miss_cw.predict(0.0));
  const double ratio = cw_spread > 0.0 ? pc_spread / cw_spread : NAN;
  ctx.check("miss_pc_span_over_cw_span", ratio, 0.1, 0.0, 0.6);
  ctx.metric("r2_miss_rate_vs_pc", miss_pc.r_squared());
}

}  // namespace

void register_tables(std::vector<ArtifactDef>& catalog) {
  catalog.push_back(
      {"table1", ArtifactKind::kTable, "Table 1",
       "TABLE 1 — Hardware Measurement Event Counts",
       "defines num_j / proc_j / ceop_j / membop_j reduced from one "
       "512-deep monitor buffer",
       render_table1, table1_runs});
  catalog.push_back(
      {"table2", ArtifactKind::kTable, "Table 2",
       "TABLE 2 — Overall Concurrency Measures for All Sessions",
       "Cw = 0.3506, c8 = 0.2795, c(8|c) = 0.9278, Pc = 7.66",
       render_table2, &Inputs::study_specs});
  catalog.push_back(
      {"table3", ArtifactKind::kTable, "Table 3",
       "TABLE 3 — Regression Models vs. Cw",
       "R^2: miss rate 0.74, CE bus busy 0.89, page fault rate 0.65; all "
       "medians increase with Cw",
       render_table3, &Inputs::study_specs});
  catalog.push_back(
      {"table4", ArtifactKind::kTable, "Table 4",
       "TABLE 4 — Regression Models vs. Pc",
       "R^2: miss rate 0.07 (no relationship), CE bus busy 0.66, page "
       "fault rate 0.61",
       render_table4, &Inputs::study_specs});
}

}  // namespace repro::artifacts
