// Figures 3-5 and 8-11: distributions and scatters over the shared
// random-sampling study. Ported from the one-shot bench_fig* binaries.
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

// Figure 3: Number of Records with N Processors Active / All Sessions.
// Paper shape: dominant peaks at 8, 1, and 0 processors active.
void render_fig3(Context& ctx) {
  const core::StudyResult& study = ctx.in().study();
  ctx.printf("%s\n",
             core::render_active_histogram(study.totals.num,
                                           study.overall.width,
                                           "All sessions combined")
                 .c_str());

  const auto& num = study.totals.num;
  std::uint64_t corner = num[0] + num[1] + num[8];
  std::uint64_t total = 0;
  for (const std::uint64_t n : num) {
    total += n;
  }
  const double corner_share =
      100.0 * static_cast<double>(corner) / static_cast<double>(total);
  ctx.printf("idle+serial+full share: %.1f%% of records (paper: ~96%%)\n",
             corner_share);
  // "the CE Cluster spends the majority of its time in one of three
  // states" — measured 93% at paper scale.
  ctx.check("corner_share_pct", corner_share, 96.0, 80.0, 100.0);
}

// Figure 4: Distribution of Samples by Workload Concurrency.
// Paper: 44.6% of samples at Cw ~ 0; 55% show some concurrency.
void render_fig4(Context& ctx) {
  const auto& samples = ctx.in().samples();
  const auto cw = core::column_cw(samples);

  // The paper bins at midpoints 0, 0.125, ..., 1.0.
  std::vector<double> mids;
  for (int i = 0; i <= 8; ++i) {
    mids.push_back(static_cast<double>(i) / 8.0);
  }
  const auto table = stats::FreqTable::from_values(cw, mids, 3);
  ctx.printf("%s\n", table.render(44).c_str());

  std::size_t zeroish = 0;
  for (const double value : cw) {
    zeroish += value < 1.0 / 16.0;
  }
  const double zero_share =
      100.0 * static_cast<double>(zeroish) / static_cast<double>(cw.size());
  ctx.printf("samples with Cw ~ 0: %.1f%% (paper: 44.6%%)\n", zero_share);
  // Paper 44.6%; measured 36% at paper scale. Both serial/idle mass and
  // concurrent mass must be present.
  ctx.check("zero_cw_share_pct", zero_share, 44.6, 10.0, 70.0);
}

// Figure 5: Distribution of Samples by Mean Concurrency Level.
// Paper: >94% of concurrent samples have Pc above 6.5; 83% in the 8 bin.
void render_fig5(Context& ctx) {
  const auto pc = core::column_pc(ctx.in().samples());
  if (pc.empty()) {
    ctx.fail("no concurrent samples (unexpected)");
    return;
  }

  std::vector<double> mids;
  for (int i = 4; i <= 16; ++i) {
    mids.push_back(static_cast<double>(i) / 2.0);
  }
  const auto table = stats::FreqTable::from_values(pc, mids, 1);
  ctx.printf("%s\n", table.render(44).c_str());

  std::size_t high = 0;
  for (const double value : pc) {
    high += value > 6.5;
  }
  const double high_share =
      100.0 * static_cast<double>(high) / static_cast<double>(pc.size());
  ctx.printf("concurrent samples with Pc > 6.5: %.1f%% (paper: >94%%)\n",
             high_share);
  // Paper >94%; measured 77% at paper scale (the narrow-loop deficit,
  // EXPERIMENTS.md).
  ctx.check("pc_above_6_5_share_pct", high_share, 94.0, 50.0, 100.0);
}

// Figure 8: Missrate vs. Workload Concurrency (scatter).
// Paper: highest miss rates at max Cw; high Cw does not preclude low.
void render_fig8(Context& ctx) {
  const auto& samples = ctx.in().samples();
  const auto cw = core::column_cw(samples);
  const auto miss = core::column_miss_rate(samples);

  stats::ScatterOptions options;
  options.title = "Missrate vs. Cw  (SAS letters: A=1 obs, B=2, ...)";
  options.x_label = "Cw";
  options.y_label = "missrate";
  options.x_min = 0.0;
  options.x_max = 1.0;
  ctx.printf("%s\n", stats::render_scatter(cw, miss, options).c_str());

  // Split the claim into the testable halves.
  std::vector<double> low_cw_miss;
  std::vector<double> high_cw_miss;
  for (std::size_t i = 0; i < cw.size(); ++i) {
    (cw[i] < 0.4 ? low_cw_miss : high_cw_miss).push_back(miss[i]);
  }
  if (low_cw_miss.empty() || high_cw_miss.empty()) {
    ctx.fail("one of the Cw bands is empty");
    return;
  }
  const double max_low = stats::max_of(low_cw_miss);
  const double max_high = stats::max_of(high_cw_miss);
  const double min_high = stats::min_of(high_cw_miss);
  ctx.printf("max missrate:  Cw<0.4: %.4f   Cw>=0.4: %.4f\n", max_low,
             max_high);
  ctx.printf("min missrate at Cw>=0.4: %.4f (low values still occur)\n",
             min_high);
  // Both halves of the claim: the extremes live at high Cw, and high Cw
  // does not preclude a low miss rate.
  ctx.check("max_miss_high_over_low", max_high / max_low, 2.0, 1.0, 1e6);
  ctx.check("min_miss_at_high_cw", min_high, 0.001, 0.0, 0.02);
}

// Figure 9: Missrate vs. Mean Concurrency Level (scatter).
// Paper: mild increase with Pc; flat beyond Pc ~ 7.
void render_fig9(Context& ctx) {
  const auto& samples = ctx.in().samples_with_pc();
  const auto pc = core::column_pc(samples);
  const auto miss = core::column_miss_rate(samples);

  stats::ScatterOptions options;
  options.title = "Missrate vs. Pc  (SAS letters: A=1 obs, B=2, ...)";
  options.x_label = "Pc";
  options.y_label = "missrate";
  options.x_min = 2.0;
  options.x_max = 8.0;
  ctx.printf("%s\n", stats::render_scatter(pc, miss, options).c_str());

  std::vector<double> mid_band;
  std::vector<double> high_band;
  for (std::size_t i = 0; i < pc.size(); ++i) {
    if (pc[i] > 6.0 && pc[i] <= 7.5) {
      mid_band.push_back(miss[i]);
    } else if (pc[i] > 7.5) {
      high_band.push_back(miss[i]);
    }
  }
  if (!mid_band.empty() && !high_band.empty()) {
    const double mid_median = stats::median(mid_band);
    const double high_median = stats::median(high_band);
    ctx.printf(
        "median missrate, 6.0<Pc<=7.5: %.4f   Pc>7.5: %.4f  (paper: no "
        "increase between these bands)\n",
        mid_median, high_median);
    // "relatively unchanged after Pc > 7.0": the high band must not rise
    // meaningfully above the middle band.
    ctx.check("high_minus_mid_median", high_median - mid_median, 0.0,
              -1.0, 0.01);
  } else {
    ctx.note("high_minus_mid_median", NAN, 0.0, -1.0, 0.01);
  }
}

void banded_missrate(Context& ctx, const char* title,
                     const std::vector<double>& miss, double paper_median) {
  ctx.printf("--- %s ---\n", title);
  if (miss.empty()) {
    ctx.printf("(no samples in this band)\n\n");
    return;
  }
  std::vector<double> mids;
  for (int i = 0; i <= 10; ++i) {
    mids.push_back(static_cast<double>(i) / 100.0);
  }
  ctx.printf("%s",
             stats::FreqTable::from_values(miss, mids, 2).render(40)
                 .c_str());
  ctx.printf("mean: %.4f  median: %.4f  (paper median: %.3f)\n\n",
             stats::mean(miss), stats::median(miss), paper_median);
}

// Figure 10 (a)-(c): Distribution of Miss Rate banded by Cw.
// Paper medians 0.001 / 0.009 / 0.023 — the sharp jump across Cw bands.
void render_fig10(Context& ctx) {
  const auto& samples = ctx.in().samples();

  std::vector<double> low;
  std::vector<double> mid;
  std::vector<double> high;
  for (const core::AnalyzedSample& sample : samples) {
    if (sample.measures.cw <= 0.4) {
      low.push_back(sample.miss_rate);
    } else if (sample.measures.cw <= 0.8) {
      mid.push_back(sample.miss_rate);
    } else {
      high.push_back(sample.miss_rate);
    }
  }
  banded_missrate(ctx, "(a) Cw <= 0.4", low, 0.001);
  banded_missrate(ctx, "(b) 0.4 < Cw <= 0.8", mid, 0.009);
  banded_missrate(ctx, "(c) Cw > 0.8", high, 0.023);

  if (low.empty() || high.empty()) {
    ctx.fail("empty Cw band");
    return;
  }
  // The paper's key band fact: the median jumps sharply across the Cw
  // bands (0.001 -> 0.023; measured 0.0004 -> 0.0189 at paper scale).
  ctx.check("low_band_median", stats::median(low), 0.001, 0.0, 0.006);
  ctx.check("high_band_median", stats::median(high), 0.023, 0.006, 0.08);
}

// Figure 11 (a)-(c): Distribution of Miss Rate banded by Pc.
// Paper medians 0.004 / 0.017 / 0.017 — no increase between the middle
// and high ranges of Pc.
void render_fig11(Context& ctx) {
  const auto& samples = ctx.in().samples_with_pc();

  std::vector<double> low;
  std::vector<double> mid;
  std::vector<double> high;
  for (const core::AnalyzedSample& sample : samples) {
    if (sample.measures.pc <= 6.0) {
      low.push_back(sample.miss_rate);
    } else if (sample.measures.pc <= 7.5) {
      mid.push_back(sample.miss_rate);
    } else {
      high.push_back(sample.miss_rate);
    }
  }
  banded_missrate(ctx, "(a) Pc <= 6.0", low, 0.004);
  banded_missrate(ctx, "(b) 6.0 < Pc <= 7.5", mid, 0.017);
  banded_missrate(ctx, "(c) Pc > 7.5", high, 0.017);

  if (mid.empty() || high.empty()) {
    ctx.fail("empty Pc band");
    return;
  }
  // Less sensitivity to Pc than Cw: no median jump between the middle
  // and high Pc bands (measured 0.0118 vs 0.0077 at paper scale).
  ctx.check("high_minus_mid_median",
            stats::median(high) - stats::median(mid), 0.0, -1.0, 0.01);
}

}  // namespace

void register_study_figures(std::vector<ArtifactDef>& catalog) {
  catalog.push_back(
      {"fig3", ArtifactKind::kFigure, "Figure 3",
       "FIGURE 3 — Records with N Processors Active / All Sessions",
       "peaks at 8, 1 and 0 active; states 2..7 are slivers",
       render_fig3, &Inputs::study_specs});
  catalog.push_back(
      {"fig4", ArtifactKind::kFigure, "Figure 4",
       "FIGURE 4 — Distribution of Samples by Workload Concurrency",
       "44.6% of samples at Cw ~ 0; 55% show some concurrency; mass up to "
       "Cw = 1.0",
       render_fig4, &Inputs::study_specs});
  catalog.push_back(
      {"fig5", ArtifactKind::kFigure, "Figure 5",
       "FIGURE 5 — Distribution of Samples by Mean Concurrency Level",
       ">94% of concurrent samples have Pc > 6.5; 83% in the 8.0 bin",
       render_fig5, &Inputs::study_specs});
  catalog.push_back(
      {"fig8", ArtifactKind::kFigure, "Figure 8",
       "FIGURE 8 — Missrate vs. Workload Concurrency (scatter)",
       "highest missrates at max Cw; high Cw does not preclude low "
       "missrate",
       render_fig8, &Inputs::study_specs});
  catalog.push_back(
      {"fig9", ArtifactKind::kFigure, "Figure 9",
       "FIGURE 9 — Missrate vs. Mean Concurrency Level (scatter)",
       "mild increase with Pc; flat beyond Pc ~ 7",
       render_fig9, &Inputs::study_specs});
  catalog.push_back(
      {"fig10", ArtifactKind::kFigure, "Figure 10",
       "FIGURE 10 — Distribution of Miss Rate by Cw band",
       "medians 0.001 / 0.009 / 0.023 for Cw <=0.4 / (0.4,0.8] / >0.8",
       render_fig10, &Inputs::study_specs});
  catalog.push_back(
      {"fig11", ArtifactKind::kFigure, "Figure 11",
       "FIGURE 11 — Distribution of Miss Rate by Pc band",
       "medians 0.004 / 0.017 / 0.017: no increase between the middle and "
       "high Pc ranges",
       render_fig11, &Inputs::study_specs});
}

}  // namespace repro::artifacts
