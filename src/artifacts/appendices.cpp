// Appendices A and B: the per-session sampling data and the CE-bus-busy
// / page-fault companions to the Chapter 5 analysis. Ported from
// bench_appendix_a / bench_appendix_b_busbusy / bench_appendix_b_pagefault.
#include <algorithm>
#include <cmath>
#include <vector>

#include "artifacts/inputs.hpp"
#include "artifacts/registry.hpp"
#include "core/report.hpp"
#include "stats/descriptive.hpp"
#include "stats/freq_table.hpp"
#include "stats/scatter.hpp"

namespace repro::artifacts {

namespace {

// Appendix A: Table A.1 per-session measures, the contrasting per-session
// histograms (A.1/A.2-style), and the A.3-A.5 sample distributions.
void render_appendix_a(Context& ctx) {
  const core::StudyResult& study = ctx.in().study();
  ctx.printf("%s\n", core::render_session_table(study.sessions).c_str());

  // Figures A.1 / A.2: two contrasting sessions.
  const core::SessionResult* lightest = &study.sessions.front();
  const core::SessionResult* heaviest = &study.sessions.front();
  for (const core::SessionResult& session : study.sessions) {
    if (session.overall.cw < lightest->overall.cw) {
      lightest = &session;
    }
    if (session.overall.cw > heaviest->overall.cw) {
      heaviest = &session;
    }
  }
  ctx.printf("%s\n",
             core::render_active_histogram(
                 lightest->totals.num, lightest->overall.width,
                 "Figure A.1-style: lightest session (" + lightest->name +
                     ")")
                 .c_str());
  ctx.printf("%s\n",
             core::render_active_histogram(
                 heaviest->totals.num, heaviest->overall.width,
                 "Figure A.2-style: heaviest session (" + heaviest->name +
                     ")")
                 .c_str());

  const auto& samples = ctx.in().samples();

  std::vector<double> mids;
  for (int i = 0; i <= 10; ++i) {
    mids.push_back(static_cast<double>(i) / 20.0);  // 0 .. 0.5
  }
  ctx.printf("Figure A.3. Distribution of Samples by CE Bus Busy\n%s\n",
             stats::FreqTable::from_values(core::column_bus_busy(samples),
                                           mids, 2)
                 .render(40)
                 .c_str());

  std::vector<double> miss_mids;
  for (int i = 0; i <= 10; ++i) {
    miss_mids.push_back(static_cast<double>(i) / 100.0);
  }
  ctx.printf("Figure A.4. Distribution of Samples by Miss Rate\n%s\n",
             stats::FreqTable::from_values(core::column_miss_rate(samples),
                                           miss_mids, 2)
                 .render(40)
                 .c_str());

  const auto faults = core::column_page_fault_rate(samples);
  double max_faults = 1.0;
  for (const double f : faults) {
    max_faults = std::max(max_faults, f);
  }
  std::vector<double> fault_mids;
  for (int i = 0; i <= 12; ++i) {
    fault_mids.push_back(max_faults * i / 12.0);
  }
  ctx.printf("Figure A.5. Distribution of Samples by Page Fault Rate\n%s\n",
             stats::FreqTable::from_values(faults, fault_mids, 0)
                 .render(40)
                 .c_str());

  // "Distributions of processor activity in individual sessions showed
  // significant variation" — the session Cw spread must be wide.
  ctx.check("session_cw_spread",
            heaviest->overall.cw - lightest->overall.cw, 0.5, 0.2, 1.0);
  ctx.metric("lightest_session_cw", lightest->overall.cw);
  ctx.metric("heaviest_session_cw", heaviest->overall.cw);
}

void banded_busy(Context& ctx, const char* title,
                 const std::vector<double>& values, double paper_median) {
  ctx.printf("--- %s ---\n", title);
  if (values.empty()) {
    ctx.printf("(no samples)\n\n");
    return;
  }
  std::vector<double> mids;
  for (int i = 0; i <= 10; ++i) {
    mids.push_back(static_cast<double>(i) / 10.0);
  }
  ctx.printf("%s",
             stats::FreqTable::from_values(values, mids, 1).render(36)
                 .c_str());
  ctx.printf("median: %.4f  (paper: %.4f)\n\n", stats::median(values),
             paper_median);
}

// Appendix B (CE Bus Busy): Figures B.1-B.4.
void render_appendix_b_busbusy(Context& ctx) {
  const auto& samples = ctx.in().samples();
  const auto cw = core::column_cw(samples);
  const auto busy = core::column_bus_busy(samples);

  stats::ScatterOptions b1;
  b1.title = "Figure B.1: CE Bus Busy vs. Cw";
  b1.x_label = "Cw";
  b1.y_label = "busy";
  b1.x_min = 0.0;
  b1.x_max = 1.0;
  ctx.printf("%s\n", stats::render_scatter(cw, busy, b1).c_str());

  const auto& with_pc = ctx.in().samples_with_pc();
  stats::ScatterOptions b2;
  b2.title = "Figure B.2: CE Bus Busy vs. Pc";
  b2.x_label = "Pc";
  b2.y_label = "busy";
  b2.x_min = 2.0;
  b2.x_max = 8.0;
  ctx.printf("%s\n",
             stats::render_scatter(core::column_pc(with_pc),
                                   core::column_bus_busy(with_pc), b2)
                 .c_str());

  std::vector<double> cw_low;
  std::vector<double> cw_mid;
  std::vector<double> cw_high;
  for (const core::AnalyzedSample& sample : samples) {
    if (sample.measures.cw <= 0.4) {
      cw_low.push_back(sample.bus_busy);
    } else if (sample.measures.cw <= 0.8) {
      cw_mid.push_back(sample.bus_busy);
    } else {
      cw_high.push_back(sample.bus_busy);
    }
  }
  banded_busy(ctx, "Figure B.3(a): Cw <= 0.4", cw_low, 0.0046);
  banded_busy(ctx, "Figure B.3(b): 0.4 < Cw <= 0.8", cw_mid, 0.115);
  banded_busy(ctx, "Figure B.3(c): Cw > 0.8", cw_high, 0.305);

  std::vector<double> pc_low;
  std::vector<double> pc_mid;
  std::vector<double> pc_high;
  for (const core::AnalyzedSample& sample : with_pc) {
    if (sample.measures.pc <= 6.0) {
      pc_low.push_back(sample.bus_busy);
    } else if (sample.measures.pc <= 7.5) {
      pc_mid.push_back(sample.bus_busy);
    } else {
      pc_high.push_back(sample.bus_busy);
    }
  }
  banded_busy(ctx, "Figure B.4(a): Pc <= 6.0", pc_low, 0.157);
  banded_busy(ctx, "Figure B.4(b): 6.0 < Pc <= 7.5", pc_mid, 0.282);
  banded_busy(ctx, "Figure B.4(c): Pc > 7.5", pc_high, 0.30);

  if (cw_low.empty() || cw_high.empty()) {
    ctx.fail("empty Cw band");
    return;
  }
  // Band medians must rise across the Cw bands in the paper's ordering
  // (0.005 / 0.115 / 0.305 there).
  ctx.check("cw_band_median_rise",
            stats::median(cw_high) - stats::median(cw_low), 0.3, 0.05,
            1.0);
}

// Appendix B (Page Fault Rate): Figures B.5-B.10.
void render_appendix_b_pagefault(Context& ctx) {
  const auto& samples = ctx.in().samples();
  const auto cw = core::column_cw(samples);
  const auto faults = core::column_page_fault_rate(samples);

  stats::ScatterOptions b5;
  b5.title = "Figure B.5: Page Fault Rate vs. Cw";
  b5.x_label = "Cw";
  b5.y_label = "faults";
  b5.x_min = 0.0;
  b5.x_max = 1.0;
  ctx.printf("%s\n", stats::render_scatter(cw, faults, b5).c_str());

  const auto& with_pc = ctx.in().samples_with_pc();
  stats::ScatterOptions b6;
  b6.title = "Figure B.6: Page Fault Rate vs. Pc";
  b6.x_label = "Pc";
  b6.y_label = "faults";
  b6.x_min = 2.0;
  b6.x_max = 8.0;
  ctx.printf("%s\n",
             stats::render_scatter(core::column_pc(with_pc),
                                   core::column_page_fault_rate(with_pc),
                                   b6)
                 .c_str());

  // B.7: banded by Cw.
  double max_rate = 1.0;
  for (const double f : faults) {
    max_rate = std::max(max_rate, f);
  }
  std::vector<double> mids;
  for (int i = 0; i <= 8; ++i) {
    mids.push_back(max_rate * i / 8.0);
  }
  std::vector<double> low;
  std::vector<double> mid;
  std::vector<double> high;
  for (const core::AnalyzedSample& sample : samples) {
    if (sample.measures.cw <= 0.4) {
      low.push_back(sample.page_fault_rate);
    } else if (sample.measures.cw <= 0.8) {
      mid.push_back(sample.page_fault_rate);
    } else {
      high.push_back(sample.page_fault_rate);
    }
  }
  auto banded = [&](const char* title, const std::vector<double>& values) {
    ctx.printf("--- %s ---\n", title);
    if (values.empty()) {
      ctx.printf("(no samples)\n\n");
      return;
    }
    ctx.printf("%s",
               stats::FreqTable::from_values(values, mids, 0).render(32)
                   .c_str());
    ctx.printf("median: %.0f\n\n", stats::median(values));
  };
  banded("Figure B.7(a): Cw <= 0.4", low);
  banded("Figure B.7(b): 0.4 < Cw <= 0.8", mid);
  banded("Figure B.7(c): Cw > 0.8", high);

  // B.9 / B.10: regression plots, off the shared fitted models.
  const core::MedianModel& vs_cw = ctx.in().model(
      core::SystemMeasure::kPageFaultRate, core::Regressor::kCw);
  stats::ScatterOptions b9;
  b9.title = "Figure B.9: model, Page Fault Rate vs. Cw";
  b9.x_label = "Cw";
  b9.y_label = "faults";
  ctx.printf("%s\n",
             stats::render_curve(0.0, 1.0, 44,
                                 [&](double x) { return vs_cw.predict(x); },
                                 b9)
                 .c_str());
  ctx.printf("R^2 vs Cw = %.2f (paper: 0.65)\n\n", vs_cw.r_squared());

  const core::MedianModel& vs_pc = ctx.in().model(
      core::SystemMeasure::kPageFaultRate, core::Regressor::kPc);
  stats::ScatterOptions b10;
  b10.title = "Figure B.10: model, Page Fault Rate vs. Pc";
  b10.x_label = "Pc";
  b10.y_label = "faults";
  ctx.printf("%s\n",
             stats::render_curve(2.0, 8.0, 44,
                                 [&](double x) { return vs_pc.predict(x); },
                                 b10)
                 .c_str());
  ctx.printf("R^2 vs Pc = %.2f (paper: 0.61)\n", vs_pc.r_squared());

  // The fault-rate model must keep a real fit against Cw (paper 0.65,
  // measured 0.79 at paper scale) and rise with it.
  ctx.check("r2_vs_cw", vs_cw.r_squared(), 0.65, 0.30, 1.00);
  ctx.check("rise_over_cw", vs_cw.predict(1.0) - vs_cw.predict(0.1), 100.0,
            0.0, 1e9);
  ctx.metric("r2_vs_pc", vs_pc.r_squared());
}

}  // namespace

void register_appendices(std::vector<ArtifactDef>& catalog) {
  catalog.push_back(
      {"appendix_a", ArtifactKind::kAppendix, "Appendix A",
       "APPENDIX A — Workload Sampling Data",
       "per-session measures vary widely; miss-rate samples concentrate "
       "near zero; bus-busy spreads to ~0.5",
       render_appendix_a, &Inputs::study_specs});
  catalog.push_back(
      {"appendix_b_busbusy", ArtifactKind::kAppendix, "Appendix B",
       "APPENDIX B — CE Bus Busy vs. concurrency (Figures B.1-B.4)",
       "bus busy rises with Cw (band medians 0.005/0.115/0.305) and with "
       "Pc up to saturation",
       render_appendix_b_busbusy, &Inputs::study_specs});
  catalog.push_back(
      {"appendix_b_pagefault", ArtifactKind::kAppendix, "Appendix B",
       "APPENDIX B — Page Fault Rate vs. concurrency (Figures B.5-B.10)",
       "page-fault rate rises with Cw (R^2 = 0.65) and more weakly with Pc "
       "(R^2 = 0.61)",
       render_appendix_b_pagefault, &Inputs::study_specs});
}

}  // namespace repro::artifacts
