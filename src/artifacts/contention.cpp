// Contention-scenario artifacts: the lock workload family under the
// measurement pipeline (lock_scaling) and the analytical coarse-grained
// locking predictor cross-checked against the simulator
// (predictor_validation). Extensions in the spirit of §6: the paper's
// methodology applied to synchronization-bound workloads.
#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "artifacts/inputs.hpp"
#include "artifacts/registry.hpp"
#include "base/text.hpp"
#include "base/types.hpp"
#include "core/measures.hpp"
#include "core/run.hpp"
#include "model/lock_model.hpp"
#include "os/system.hpp"
#include "workload/contention.hpp"
#include "workload/generator.hpp"
#include "workload/presets.hpp"

namespace repro::artifacts {

namespace {

// ---------------------------------------------------------------------
// lock_scaling: Cw / Pc / bus-busy / job throughput across machine
// widths 8..64 for both lock types. One concurrent loop runs on one
// cluster, so widening the machine adds lock *domains* (more clusters
// serving independent lock jobs), not more contenders per lock.

constexpr std::array<std::uint32_t, 4> kLockWidths = {8, 16, 32, 64};
constexpr std::array<workload::LockType, 2> kLocks = {
    workload::LockType::kTicket, workload::LockType::kMcs};

std::vector<core::RunSpec> lock_scaling_runs(const Inputs& in) {
  std::vector<core::RunSpec> specs;
  for (const workload::LockType lock : kLocks) {
    for (const std::uint32_t width : kLockWidths) {
      specs.push_back(width_run(width_config(width),
                                workload::lock_contention_mix(lock), 0x10C4,
                                in));
    }
  }
  return specs;
}

void render_lock_scaling(Context& ctx) {
  const std::array<std::uint32_t, 4>& widths = kLockWidths;
  const std::array<workload::LockType, 2>& locks = kLocks;
  ctx.printf("  %-7s %-6s %-9s %8s %8s %10s %12s %12s\n", "lock", "CEs",
             "clusters", "Cw", "Pc", "busbusy", "jobs/Mcyc", "xconflicts");
  const auto runs = ctx.runs();
  // run(lock, width index), and its completed jobs per million cycles.
  const auto run = [&runs, &widths](std::size_t l,
                                    std::size_t i) -> const core::RunResult& {
    return *runs.at(l * widths.size() + i);
  };
  const auto jobs = [&run](std::size_t l, std::size_t i) {
    const core::RunResult& r = run(l, i);
    return r.now > 0 ? 1e6 * static_cast<double>(r.jobs_completed) /
                           static_cast<double>(r.now)
                     : 0.0;
  };
  std::array<std::array<core::ConcurrencyMeasures, 4>, 2> measures;
  for (std::size_t l = 0; l < locks.size(); ++l) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const core::RunResult& r = run(l, i);
      const core::ConcurrencyMeasures& m = measures[l][i] =
          core::ConcurrencyMeasures::from_counts(
              std::span(r.totals.num).first(widths[i] + 1));
      ctx.printf("  %-7s %-6u %-9u %8.4f %8s %10.4f %12.2f %12llu\n",
                 workload::to_string(locks[l]), widths[i], r.clusters, m.cw,
                 m.pc_defined ? repro::fixed(m.pc, 2).c_str() : "n/a",
                 r.totals.bus_busy(), jobs(l, i),
                 static_cast<unsigned long long>(r.fabric_conflicts));
    }
  }
  ctx.printf(
      "\n(each lock job runs its critical sections in FIFO order on one\n"
      "cluster — the CCB dependence chain is the queue lock — so wider\n"
      "machines add independent lock domains rather than contenders;\n"
      "job throughput scales with clusters while Cw stays set by the\n"
      "critical/parallel ratio)\n");

  // Structural invariants. Every configuration must complete work...
  double min_jobs = jobs(0, 0);
  double worst_pc_over_width = 0.0;
  for (std::size_t l = 0; l < locks.size(); ++l) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      min_jobs = std::min(min_jobs, jobs(l, i));
      const core::ConcurrencyMeasures& m = measures[l][i];
      worst_pc_over_width =
          std::max(worst_pc_over_width, (m.pc_defined ? m.pc : 0.0) /
                                            static_cast<double>(widths[i]));
    }
  }
  ctx.check("min_jobs_per_mcycle", min_jobs, 2.0, 0.01, 1e6);
  // ...Pc never exceeds the machine width...
  ctx.check("max_pc_over_width", worst_pc_over_width, 0.9, 0.0, 1.0);
  // ...adding clusters scales lock-job throughput (more lock domains):
  // 8 -> 64 CEs should buy clearly more completed jobs per cycle.
  ctx.check("mcs_throughput_gain_8_to_64",
            jobs(1, 0) > 0.0 ? jobs(1, 3) / jobs(1, 0) : NAN, 4.0, 1.5,
            16.0);
  // The MCS handoff is cheaper than the ticket lock's shared now-serving
  // bump, so at equal width MCS completes at least as many jobs. Noise
  // from arrival draws keeps this informational below a clear margin.
  ctx.note("mcs_over_ticket_throughput_width8",
           jobs(0, 0) > 0.0 ? jobs(1, 0) / jobs(0, 0) : NAN, 1.05, 0.95,
           3.0);
  ctx.metric("ticket_cw_width8", measures[0][0].cw);
  ctx.metric("mcs_cw_width8", measures[1][0].cw);
  ctx.metric("ticket_jobs_per_mcycle_width64", jobs(0, 3));
  ctx.metric("mcs_jobs_per_mcycle_width64", jobs(1, 3));
  ctx.metric("fabric_conflicts_width64",
             static_cast<double>(run(1, 3).fabric_conflicts));
}

// ---------------------------------------------------------------------
// predictor_validation: the closed-form coarse-grained-locking round
// model against simulator ground truth, point by point, with a pruning
// mode that skips simulation wherever the model's own bounds already
// resolve the answer within the tolerance band.

/// The documented tolerance band: relative half-width within which the
/// model's [lo, hi] bracket counts as resolving a point, and the
/// maximum |predicted - measured| / measured accepted on simulated
/// points. (The calibration tests pin the model well inside this.)
constexpr double kToleranceBand = 0.10;

/// Cycles for one pinned-round lock job to drain through a stock FX/8.
Cycle drain_lock_job(const workload::LockJobParams& params,
                     std::uint32_t rounds) {
  os::System system{os::SystemConfig{}};
  Rng rng(0x5E5510);
  workload::LockJobParams pinned = params;
  pinned.min_rounds = rounds;
  pinned.max_rounds = rounds;
  system.scheduler().submit(workload::make_lock_job(1, rng, pinned, 0));
  constexpr Cycle kGuard = 50'000'000;
  while (!system.scheduler().idle() && system.now() < kGuard) {
    system.tick();
  }
  return system.now();
}

/// Simulator ground truth: marginal cycles per round between two round
/// counts, cancelling job load/teardown and cold-start cache misses.
double measured_round_cycles(const workload::LockJobParams& params) {
  constexpr std::uint32_t kLow = 2;
  constexpr std::uint32_t kHigh = 10;
  const Cycle t_low = drain_lock_job(params, kLow);
  const Cycle t_high = drain_lock_job(params, kHigh);
  return static_cast<double>(t_high - t_low) / (kHigh - kLow);
}

void render_predictor_validation(Context& ctx) {
  // The sweep: both lock types x contender counts x critical/parallel
  // ratios. The last scenario of each lock type is an anchor — always
  // simulated, even when the model resolves it, so a pruned run still
  // cross-checks the model against live cycles.
  struct Point {
    workload::LockJobParams params;
    bool anchor = false;
  };
  std::vector<Point> points;
  for (const workload::LockType lock :
       {workload::LockType::kTicket, workload::LockType::kMcs}) {
    for (const std::uint32_t contenders : {2u, 4u, 8u}) {
      for (const std::uint32_t critical : {6u, 24u}) {
        Point point;
        point.params.lock = lock;
        point.params.contenders = contenders;
        point.params.critical_steps = critical;
        point.params.parallel_steps = 48;
        point.anchor = contenders == 8 && critical == 24;
        points.push_back(point);
      }
    }
  }

  const bool prune = ctx.quick();
  ctx.printf("tolerance band: +/-%.0f%%; pruning %s\n\n",
             100.0 * kToleranceBand, prune ? "ON (quick)" : "off (full)");
  ctx.printf("  %-7s %3s %5s %10s %10s %20s %9s\n", "lock", "n", "crit",
             "predicted", "measured", "bounds", "err");

  std::uint32_t simulated = 0;
  std::uint32_t pruned = 0;
  std::uint32_t in_bracket = 0;
  double max_rel_err = 0.0;
  double sum_rel_err = 0.0;
  double ticket_n8 = 0.0;
  double mcs_n8 = 0.0;
  for (const Point& point : points) {
    const model::LockPrediction prediction =
        model::predict_lock_round(point.params);
    const bool resolved = prediction.resolves_within(kToleranceBand);
    if (prune && resolved && !point.anchor) {
      ++pruned;
      ctx.printf("  %-7s %3u %5u %10.1f %10s [%8.1f, %8.1f] %9s\n",
                 workload::to_string(point.params.lock),
                 point.params.contenders, point.params.critical_steps,
                 prediction.round_cycles, "pruned", prediction.lo_cycles,
                 prediction.hi_cycles, "-");
      continue;
    }
    ctx.in().note_private_run();
    const double measured = measured_round_cycles(point.params);
    ++simulated;
    const double rel_err =
        std::abs(prediction.round_cycles - measured) / measured;
    max_rel_err = std::max(max_rel_err, rel_err);
    sum_rel_err += rel_err;
    if (measured >= prediction.lo_cycles &&
        measured <= prediction.hi_cycles) {
      ++in_bracket;
    }
    if (point.params.contenders == 8 && point.params.critical_steps == 24) {
      (point.params.lock == workload::LockType::kTicket ? ticket_n8
                                                        : mcs_n8) = measured;
    }
    ctx.printf("  %-7s %3u %5u %10.1f %10.1f [%8.1f, %8.1f] %+8.2f%%\n",
               workload::to_string(point.params.lock),
               point.params.contenders, point.params.critical_steps,
               prediction.round_cycles, measured, prediction.lo_cycles,
               prediction.hi_cycles, 100.0 * rel_err);
  }
  ctx.printf(
      "\n(%u points: %u simulated, %u resolved by the model's bounds\n"
      "alone; measurements are marginal round times between two round\n"
      "counts, so cold-start effects cancel)\n",
      static_cast<std::uint32_t>(points.size()), simulated, pruned);

  ctx.metric("points_total", static_cast<double>(points.size()));
  ctx.metric("points_simulated", static_cast<double>(simulated));
  ctx.metric("points_pruned", static_cast<double>(pruned));
  // Every simulated point must sit inside the model's bracket and within
  // the documented band of the point estimate.
  ctx.check("bracket_coverage",
            simulated > 0
                ? static_cast<double>(in_bracket) / simulated
                : NAN,
            1.0, 0.999, 1.0);
  ctx.check("max_rel_err", max_rel_err, 0.02, 0.0, kToleranceBand);
  ctx.check("mean_rel_err", simulated > 0 ? sum_rel_err / simulated : NAN,
            0.01, 0.0, kToleranceBand / 2.0);
  // The anchors are always live: the ticket lock's shared now-serving
  // handoff must cost real cycles over MCS at full contention.
  ctx.check("ticket_over_mcs_round_n8",
            mcs_n8 > 0.0 ? ticket_n8 / mcs_n8 : NAN, 1.07, 1.0, 2.0);
}

}  // namespace

void register_contention(std::vector<ArtifactDef>& catalog) {
  catalog.push_back(
      {"lock_scaling", ArtifactKind::kExtension, "§6",
       "EXTENSION — lock-contention scenarios across FX/8..FX/64 machines",
       "coarse-grained lock jobs (ticket and MCS queue locks via the CCB "
       "dependence chain) keep completing as clusters are added; Pc stays "
       "bounded by the width and MCS hands off no slower than ticket",
       render_lock_scaling, lock_scaling_runs});
  catalog.push_back(
      {"predictor_validation", ArtifactKind::kExtension, "§6",
       "EXTENSION — analytical lock-throughput model vs. simulator",
       "the coarse-grained-locking round model T = D_par + N*(D_crit + "
       "handoff) brackets the simulator at every sweep point within the "
       "documented tolerance band, and its bounds prune simulation where "
       "they already resolve the answer",
       render_predictor_validation});
}

}  // namespace repro::artifacts
