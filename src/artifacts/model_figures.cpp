// Figures 12-14: the Chapter 5 regression-model plots, off the shared
// fitted models. Ported from bench_fig12/13/14.
#include <cmath>

#include "artifacts/inputs.hpp"
#include "artifacts/registry.hpp"
#include "stats/scatter.hpp"

namespace repro::artifacts {

namespace {

// Figure 12: Plot of Regression Model, Missrate vs. Cw.
// Paper: median miss rate rises from 0.007 at Cw = 0.5 to 0.024 at
// Cw = 1.0 — "a greater than triple increase in Missrate".
void render_fig12(Context& ctx) {
  const core::MedianModel& model =
      ctx.in().model(core::SystemMeasure::kMissRate, core::Regressor::kCw);

  stats::ScatterOptions options;
  options.title = "fitted second-order model";
  options.x_label = "Cw";
  options.y_label = "missrate";
  ctx.printf("%s\n",
             stats::render_curve(0.0, 1.0, 44,
                                 [&](double x) { return model.predict(x); },
                                 options)
                 .c_str());

  const double at_half = model.predict(0.5);
  const double at_one = model.predict(1.0);
  ctx.printf("paper:    missrate(0.5)=0.0070  missrate(1.0)=0.0240  "
             "ratio=3.43\n");
  ctx.printf("measured: missrate(0.5)=%.4f  missrate(1.0)=%.4f  "
             "ratio=%.2f\n",
             at_half, at_one, at_one / at_half);
  ctx.printf("R^2 = %.2f (paper: 0.74)\n", model.r_squared());

  // The headline miss-rate tripling (paper 0.007 -> 0.024, ratio 3.43;
  // measured 0.0090 -> 0.0191, ratio 2.1 at paper scale).
  ctx.check("missrate_at_half", at_half, 0.007, 0.002, 0.03);
  ctx.check("missrate_at_one", at_one, 0.024, 0.008, 0.08);
  ctx.check("rise_ratio", at_half > 0.0 ? at_one / at_half : NAN, 3.43,
            1.4, 10.0);
  ctx.metric("r_squared", model.r_squared());
}

// Figure 13: Plot of Regression Model, CE Bus Busy vs. Cw.
// Paper: "almost linear increase in bus activity with Workload
// Concurrency", reaching roughly 0.33 at Cw = 1 (R^2 = 0.89).
void render_fig13(Context& ctx) {
  const core::MedianModel& model =
      ctx.in().model(core::SystemMeasure::kBusBusy, core::Regressor::kCw);

  stats::ScatterOptions options;
  options.title = "fitted second-order model";
  options.x_label = "Cw";
  options.y_label = "CE bus busy";
  ctx.printf("%s\n",
             stats::render_curve(0.0, 1.0, 44,
                                 [&](double x) { return model.predict(x); },
                                 options)
                 .c_str());

  ctx.printf("busbusy(0.0)=%.3f  busbusy(0.5)=%.3f  busbusy(1.0)=%.3f\n",
             model.predict(0.0), model.predict(0.5), model.predict(1.0));
  // Near-linearity check: the quadratic term's contribution at Cw=1
  // relative to the total rise.
  const double rise = model.predict(1.0) - model.predict(0.0);
  const double quad_share = 100.0 * model.coeff(2) / rise;
  ctx.printf("quadratic share of the rise: %.0f%% (paper: small)\n",
             quad_share);
  ctx.printf("R^2 = %.2f (paper: 0.89)\n", model.r_squared());

  ctx.check("busbusy_at_one", model.predict(1.0), 0.33, 0.15, 0.60);
  ctx.check("rise", rise, 0.33, 0.10, 0.60);
  // "almost linear": the quadratic term stays a modest share of the rise.
  ctx.check("quadratic_share_pct", quad_share, 0.0, -60.0, 60.0);
  ctx.check("r_squared", model.r_squared(), 0.89, 0.50, 1.00);
}

// Figure 14: Plot of Regression Model, CE Bus Busy vs. Pc.
// Paper: increases with Pc but levels off around Pc = 6 (R^2 = 0.66).
void render_fig14(Context& ctx) {
  const core::MedianModel& model =
      ctx.in().model(core::SystemMeasure::kBusBusy, core::Regressor::kPc);

  stats::ScatterOptions options;
  options.title = "fitted second-order model";
  options.x_label = "Pc";
  options.y_label = "CE bus busy";
  ctx.printf("%s\n",
             stats::render_curve(2.0, 8.0, 44,
                                 [&](double x) { return model.predict(x); },
                                 options)
                 .c_str());

  ctx.printf("busbusy(3)=%.3f  busbusy(6)=%.3f  busbusy(8)=%.3f\n",
             model.predict(3.0), model.predict(6.0), model.predict(8.0));
  const double early_rise = model.predict(6.0) - model.predict(3.0);
  const double late_rise = model.predict(8.0) - model.predict(6.0);
  ctx.printf("rise 3->6: %.3f   rise 6->8: %.3f  (paper: late rise ~ 0)\n",
             early_rise, late_rise);
  ctx.printf("R^2 = %.2f (paper: 0.66)\n", model.r_squared());

  // The saturation shape: bus activity rises to Pc = 6 and goes
  // relatively flat after (measured 0.190 vs 0.026 at paper scale).
  ctx.check("early_rise", early_rise, 0.2, 0.02, 1.0);
  ctx.check("late_minus_early_rise", late_rise - early_rise, -0.2, -1.0,
            0.0);
  ctx.metric("late_rise", late_rise);
  ctx.metric("r_squared", model.r_squared());
}

}  // namespace

void register_model_figures(std::vector<ArtifactDef>& catalog) {
  catalog.push_back(
      {"fig12", ArtifactKind::kFigure, "Figure 12",
       "FIGURE 12 — Regression model: Missrate vs. Cw",
       "missrate(0.5) = 0.007 -> missrate(1.0) = 0.024, a >3x increase",
       render_fig12, &Inputs::study_specs});
  catalog.push_back(
      {"fig13", ArtifactKind::kFigure, "Figure 13",
       "FIGURE 13 — Regression model: CE Bus Busy vs. Cw",
       "near-linear increase with Cw (R^2 = 0.89)",
       render_fig13, &Inputs::study_specs});
  catalog.push_back(
      {"fig14", ArtifactKind::kFigure, "Figure 14",
       "FIGURE 14 — Regression model: CE Bus Busy vs. Pc",
       "increases with Pc, levelling off near Pc = 6 (R^2 = 0.66)",
       render_fig14, &Inputs::study_specs});
}

}  // namespace repro::artifacts
