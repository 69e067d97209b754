// Runner semantics with synthetic artifacts: status propagation, NaN
// handling, exit codes, the structure of the JSON report, and the
// concurrent runner's issue order and pool profile. Renders are stubs, except
// in the tests that hold the concurrent runner and the shared Inputs to
// the serial loop over the quick catalog, and the run-graph tests that
// check each distinct declared run happens once.
#include "artifacts/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <thread>

#include "artifacts/registry.hpp"
#include "workload/presets.hpp"

namespace repro::artifacts {
namespace {

/// Pins FX8_THREADS for one test, so the runner fans out even on a
/// single-core host.
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* count) {
    EXPECT_EQ(setenv("FX8_THREADS", count, 1), 0);
  }
  ~ScopedThreads() { unsetenv("FX8_THREADS"); }
  ScopedThreads(const ScopedThreads&) = delete;
  ScopedThreads& operator=(const ScopedThreads&) = delete;
};

std::vector<const ArtifactDef*> whole_catalog() {
  std::vector<const ArtifactDef*> defs;
  for (const ArtifactDef& def : catalog()) {
    defs.push_back(&def);
  }
  return defs;
}

/// perf_simulator's CPU-clock rates (and the check built on them) are
/// the one part of an artifact that differs between two runs.
bool timed(const std::string& id, const std::string& name) {
  return id == "perf_simulator" && name != "block_bit_identical";
}

void expect_same_result(const ArtifactResult& serial,
                        const ArtifactResult& concurrent) {
  EXPECT_EQ(serial.id, concurrent.id);
  EXPECT_EQ(serial.status, concurrent.status) << serial.id;
  EXPECT_EQ(serial.error, concurrent.error) << serial.id;
  EXPECT_EQ(serial.text, concurrent.text) << serial.id;
  ASSERT_EQ(serial.metrics.size(), concurrent.metrics.size()) << serial.id;
  for (std::size_t i = 0; i < serial.metrics.size(); ++i) {
    EXPECT_EQ(serial.metrics[i].name, concurrent.metrics[i].name);
    if (!timed(serial.id, serial.metrics[i].name)) {
      EXPECT_EQ(serial.metrics[i].value, concurrent.metrics[i].value)
          << serial.id << ":" << serial.metrics[i].name;
    }
  }
  ASSERT_EQ(serial.checks.size(), concurrent.checks.size()) << serial.id;
  for (std::size_t i = 0; i < serial.checks.size(); ++i) {
    const Check& a = serial.checks[i];
    const Check& b = concurrent.checks[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.enforced, b.enforced);
    EXPECT_EQ(a.lo, b.lo);
    EXPECT_EQ(a.hi, b.hi);
    if (!timed(serial.id, a.name)) {
      EXPECT_EQ(a.measured, b.measured) << serial.id << ":" << a.name;
      EXPECT_EQ(a.pass, b.pass) << serial.id << ":" << a.name;
    }
  }
}

ArtifactDef stub(const std::string& id,
                 std::function<void(Context&)> render) {
  ArtifactDef def;
  def.id = id;
  def.kind = ArtifactKind::kFigure;
  def.paper_ref = "Figure 0";
  def.title = "STUB — " + id;
  def.paper_claim = "synthetic";
  def.render = std::move(render);
  return def;
}

TEST(Runner, PassingChecksYieldOk) {
  Inputs inputs(/*quick=*/true);
  const ArtifactDef def = stub("ok_artifact", [](Context& ctx) {
    ctx.printf("body %d\n", 7);
    EXPECT_TRUE(ctx.check("metric", 0.35, 0.35, 0.2, 0.5));
  });
  const ArtifactResult result = run_artifact(def, inputs);
  EXPECT_EQ(result.status, ArtifactStatus::kOk);
  EXPECT_EQ(result.text, "body 7\n");
  ASSERT_EQ(result.checks.size(), 1u);
  EXPECT_TRUE(result.checks[0].pass);
  EXPECT_TRUE(result.checks[0].enforced);
  // check() records the metric too.
  ASSERT_EQ(result.metrics.size(), 1u);
  EXPECT_EQ(result.metrics[0].name, "metric");
}

TEST(Runner, OutOfBandCheckFailsTheArtifact) {
  Inputs inputs(/*quick=*/true);
  const ArtifactDef def = stub("bad_artifact", [](Context& ctx) {
    EXPECT_FALSE(ctx.check("metric", 0.9, 0.35, 0.2, 0.5));
  });
  EXPECT_EQ(run_artifact(def, inputs).status,
            ArtifactStatus::kToleranceFailed);
}

TEST(Runner, NanNeverPasses) {
  Inputs inputs(/*quick=*/true);
  const ArtifactDef def = stub("nan_artifact", [](Context& ctx) {
    EXPECT_FALSE(ctx.check("metric", std::nan(""), 0.35, 0.0, 1.0));
  });
  EXPECT_EQ(run_artifact(def, inputs).status,
            ArtifactStatus::kToleranceFailed);
}

TEST(Runner, NotesNeverFailTheArtifact) {
  Inputs inputs(/*quick=*/true);
  const ArtifactDef def = stub("noted_artifact", [](Context& ctx) {
    EXPECT_FALSE(ctx.note("shape", 99.0, 0.0, -1.0, 1.0));
  });
  const ArtifactResult result = run_artifact(def, inputs);
  EXPECT_EQ(result.status, ArtifactStatus::kOk);
  ASSERT_EQ(result.checks.size(), 1u);
  EXPECT_FALSE(result.checks[0].pass);
  EXPECT_FALSE(result.checks[0].enforced);
}

TEST(Runner, ThrowingRenderBecomesError) {
  Inputs inputs(/*quick=*/true);
  const ArtifactDef def = stub("throwing_artifact", [](Context&) {
    throw std::runtime_error("degenerate fit");
  });
  const ArtifactResult result = run_artifact(def, inputs);
  EXPECT_EQ(result.status, ArtifactStatus::kError);
  EXPECT_EQ(result.error, "degenerate fit");
}

TEST(Runner, ExplicitFailBecomesError) {
  Inputs inputs(/*quick=*/true);
  const ArtifactDef def = stub("failing_artifact", [](Context& ctx) {
    ctx.fail("no captures completed");
  });
  const ArtifactResult result = run_artifact(def, inputs);
  EXPECT_EQ(result.status, ArtifactStatus::kError);
  EXPECT_EQ(result.error, "no captures completed");
}

TEST(Runner, ExitCodesRankErrorsAboveTolerance) {
  RunReport report;
  EXPECT_EQ(report.exit_code(), 0);
  report.tolerance_failed = 1;
  EXPECT_EQ(report.exit_code(), 1);
  report.errors = 1;
  EXPECT_EQ(report.exit_code(), 2);
}

TEST(Runner, RunArtifactsAggregates) {
  Inputs inputs(/*quick=*/true);
  const ArtifactDef good = stub("good", [](Context& ctx) {
    ctx.check("m", 1.0, 1.0, 0.5, 1.5);
  });
  const ArtifactDef bad = stub("bad", [](Context& ctx) {
    ctx.check("m", 9.0, 1.0, 0.5, 1.5);
  });
  const ArtifactDef broken =
      stub("broken", [](Context&) { throw std::runtime_error("boom"); });
  const RunReport report =
      run_artifacts({&good, &bad, &broken}, inputs);
  EXPECT_EQ(report.ok, 1);
  EXPECT_EQ(report.tolerance_failed, 1);
  EXPECT_EQ(report.errors, 1);
  EXPECT_EQ(report.exit_code(), 2);
  ASSERT_EQ(report.results.size(), 3u);
  EXPECT_EQ(report.results[0].id, "good");
  EXPECT_GE(report.results[0].seconds, 0.0);
}

TEST(Runner, ConcurrentMatchesSerial) {
  const std::vector<const ArtifactDef*> defs = whole_catalog();
  Inputs serial_inputs(/*quick=*/true);
  std::vector<ArtifactResult> serial;
  for (const ArtifactDef* def : defs) {
    serial.push_back(run_artifact(*def, serial_inputs));
  }

  const ScopedThreads threads("4");
  Inputs inputs(/*quick=*/true);
  const RunReport report = run_artifacts(defs, inputs);
  ASSERT_EQ(report.results.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_same_result(serial[i], report.results[i]);
  }
  const RunCounts expected = serial_inputs.run_counts();
  EXPECT_EQ(report.run_counts.study_runs, expected.study_runs);
  EXPECT_EQ(report.run_counts.transition_runs, expected.transition_runs);
  EXPECT_EQ(report.run_counts.private_runs, expected.private_runs);
  EXPECT_EQ(report.run_counts.study_runs, 1);
  EXPECT_EQ(report.run_counts.transition_runs, 1);
  // 40 distinct artifact-private declared runs, plus ablation_dispatch's
  // 6 quick loops and predictor_validation's 2 quick anchor points.
  EXPECT_EQ(report.run_counts.private_runs, 48);
  // Those 40, the 9 study runs and the transition run.
  EXPECT_EQ(report.run_counts.declared_runs, 196);
  EXPECT_EQ(report.run_counts.distinct_runs, 50);
  EXPECT_EQ(report.ok, static_cast<int>(defs.size()));
}

TEST(Runner, DuplicateSpecsRunOnce) {
  const Inputs quick(/*quick=*/true);
  int declared = 0;
  std::set<std::uint64_t> keys;
  for (const ArtifactDef& def : catalog()) {
    if (def.runs) {
      for (const core::RunSpec& spec : def.runs(quick)) {
        ++declared;
        keys.insert(core::run_key(spec));
      }
    }
  }
  // 17 study readers declare the 9 study runs, fig6 and fig7 the
  // transition run, and 11 more artifacts 41 runs of their own.
  EXPECT_EQ(declared, 17 * 9 + 2 + 41);
  EXPECT_EQ(keys.size(), 9u + 1u + 40u);
  // The one duplicate among the artifacts' own runs: width_sweep's
  // width-8 row is width_scaling's.
  const ArtifactDef* sweep = find_artifact("width_sweep");
  const ArtifactDef* scaling = find_artifact("width_scaling");
  ASSERT_NE(sweep, nullptr);
  ASSERT_NE(scaling, nullptr);
  EXPECT_EQ(core::run_key(sweep->runs(quick).at(7)),
            core::run_key(scaling->runs(quick).at(0)));

  // Run together, the two artifacts make 12 declarations and 11 runs.
  const ScopedThreads threads("4");
  Inputs inputs(/*quick=*/true);
  const RunReport report = run_artifacts({sweep, scaling}, inputs);
  EXPECT_EQ(report.ok, 2);
  EXPECT_EQ(report.run_counts.declared_runs, 12);
  EXPECT_EQ(report.run_counts.distinct_runs, 11);
  EXPECT_EQ(report.run_counts.private_runs, 11);
}

/// `count` distinct quick session runs.
std::vector<core::RunSpec> quick_specs(int count) {
  std::vector<core::RunSpec> specs(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    core::RunSpec& spec = specs[static_cast<std::size_t>(i)];
    spec.mix = workload::session_presets()[2];
    spec.generator_seed = 100 + static_cast<std::uint64_t>(i);
    spec.controller_seed = 11;
    spec.sampling.interval_cycles = 15000;
    spec.samples = 2;
  }
  return specs;
}

TEST(Runner, RunlessRendersStartFirst) {
  const ScopedThreads threads("4");
  constexpr int kRuns = 24;
  Inputs inputs(/*quick=*/true);
  ArtifactDef reader = stub("reader", [&](Context& ctx) {
    const std::vector<const core::RunResult*> runs = ctx.runs();
    ASSERT_EQ(runs.size(), static_cast<std::size_t>(kRuns));
    for (const core::RunResult* run : runs) {
      EXPECT_EQ(run->samples.size(), 2u);
    }
  });
  reader.runs = [](const Inputs&) { return quick_specs(kRuns); };
  std::atomic<int> done_at_start{-1};
  const ArtifactDef runless = stub("runless", [&](Context&) {
    done_at_start = inputs.run_counts().private_runs;
  });
  // Last in selection order, so only the runner's issue order can start
  // it early.
  const RunReport report = run_artifacts({&reader, &runless}, inputs);

  // Had every run been taken before the runless render, at most the
  // three other workers would still hold one, and at least kRuns - 3
  // would be done.
  EXPECT_GE(done_at_start, 0);
  EXPECT_LT(done_at_start, kRuns - 3);
  // The reader found every run done, and none ran twice.
  EXPECT_EQ(report.ok, 2);
  EXPECT_EQ(report.run_counts.private_runs, kRuns);
  EXPECT_EQ(report.run_counts.distinct_runs, kRuns);
  ASSERT_EQ(report.results.size(), 2u);
  EXPECT_EQ(report.results[0].id, "reader");
  EXPECT_EQ(report.results[1].id, "runless");
}

TEST(Runner, FailedRunStillEndsItsTask) {
  // A run that throws is left for its render to meet again. Its task
  // must still end, or the pool profile would count it in flight.
  const ScopedThreads threads("4");
  std::vector<core::RunSpec> specs = quick_specs(3);
  specs[1].sampling.snapshots_per_sample = 0;  // The controller rejects it.
  ArtifactDef reader = stub("reader", [](Context&) {});
  reader.runs = [specs](const Inputs&) { return specs; };
  Inputs inputs(/*quick=*/true);
  const RunReport report = run_artifacts({&reader}, inputs);
  EXPECT_EQ(report.ok, 1);
  EXPECT_EQ(report.run_counts.private_runs, 2);
  ASSERT_TRUE(report.pool.has_value());
  EXPECT_EQ(report.pool->width, 4u);
}

TEST(Runner, PoolProfileMeasuresTheCallsOwnConcurrency) {
  // Two renders that wait for each other and then stay in flight
  // together: most of the call has both tasks active.
  {
    const ScopedThreads threads("2");
    std::atomic<int> arrived{0};
    const auto together = [&](Context&) {
      ++arrived;
      while (arrived < 2) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    };
    const ArtifactDef a = stub("a", together);
    const ArtifactDef b = stub("b", together);
    Inputs inputs(/*quick=*/true);
    const RunReport report = run_artifacts({&a, &b}, inputs);
    ASSERT_TRUE(report.pool.has_value());
    const core::ConcurrencyMeasures& pool = *report.pool;
    EXPECT_EQ(pool.width, 2u);
    EXPECT_NEAR(pool.c[0] + pool.c[1] + pool.c[2], 1.0, 1e-12);
    EXPECT_GT(pool.c[2], 0.5);
    EXPECT_EQ(pool.cw, pool.c[2]);
    ASSERT_TRUE(pool.pc_defined);
    EXPECT_EQ(pool.pc, 2.0);
  }
  // Without a pool the renders run one at a time on the calling thread.
  {
    const ScopedThreads threads("1");
    const auto nap = [](Context&) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    };
    const ArtifactDef a = stub("a", nap);
    const ArtifactDef b = stub("b", nap);
    Inputs inputs(/*quick=*/true);
    const RunReport report = run_artifacts({&a, &b}, inputs);
    ASSERT_TRUE(report.pool.has_value());
    EXPECT_EQ(report.pool->width, 1u);
    EXPECT_GT(report.pool->c[1], 0.5);
    EXPECT_EQ(report.pool->cw, 0.0);
    EXPECT_FALSE(report.pool->pc_defined);
  }
}

TEST(Runner, OnResultStreamsInSelectionOrderOnTheCallingThread) {
  const ScopedThreads threads("4");
  // Later artifacts finish first; the callback must still see them in
  // selection order, and only on the calling thread.
  std::vector<ArtifactDef> defs;
  for (int i = 0; i < 6; ++i) {
    defs.push_back(stub("s" + std::to_string(i), [i](Context& ctx) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5 * (6 - i)));
      ctx.printf("%d", i);
    }));
  }
  std::vector<const ArtifactDef*> selection;
  for (const ArtifactDef& def : defs) {
    selection.push_back(&def);
  }
  std::vector<std::string> seen;
  std::set<std::thread::id> callers;
  Inputs inputs(/*quick=*/true);
  const RunReport report = run_artifacts(
      selection, inputs, [&](const ArtifactResult& result) {
        seen.push_back(result.id);
        callers.insert(std::this_thread::get_id());
      });
  ASSERT_EQ(seen.size(), defs.size());
  for (std::size_t i = 0; i < defs.size(); ++i) {
    EXPECT_EQ(seen[i], defs[i].id);
    EXPECT_EQ(report.results[i].text, std::to_string(i));
  }
  EXPECT_EQ(callers, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(Inputs, ConcurrentReadersRunEachExperimentOnce) {
  Inputs inputs(/*quick=*/true);
  std::vector<const core::StudyResult*> studies(8, nullptr);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < studies.size(); ++t) {
    readers.emplace_back([&inputs, &studies, t] {
      (void)inputs.models();
      (void)inputs.samples_with_pc();
      (void)inputs.transition();
      inputs.note_private_run();
      studies[t] = &inputs.study();
    });
  }
  for (std::thread& reader : readers) {
    reader.join();
  }
  const RunCounts counts = inputs.run_counts();
  EXPECT_EQ(counts.study_runs, 1);
  EXPECT_EQ(counts.transition_runs, 1);
  EXPECT_EQ(counts.private_runs, 8);
  for (const core::StudyResult* study : studies) {
    EXPECT_EQ(study, inputs.study_for_report());
  }
}

TEST(Inputs, ConcurrentRunsOfOneSpecRunOnce) {
  Inputs inputs(/*quick=*/true);
  core::RunSpec spec;
  spec.mix = workload::session_presets()[2];
  spec.generator_seed = 7;
  spec.controller_seed = 11;
  spec.sampling.interval_cycles = 15000;
  spec.samples = 2;
  std::vector<const core::RunResult*> results(8, nullptr);
  std::vector<std::thread> requesters;
  for (std::size_t t = 0; t < results.size(); ++t) {
    requesters.emplace_back(
        [&inputs, &results, &spec, t] { results[t] = &inputs.run(spec); });
  }
  for (std::thread& requester : requesters) {
    requester.join();
  }
  EXPECT_EQ(inputs.run_counts().private_runs, 1);
  for (const core::RunResult* result : results) {
    EXPECT_EQ(result, results.front());
  }
  EXPECT_EQ(results.front()->samples.size(), 2u);
}

// study_for_report() never simulates: with no study run memoized or
// stored it answers nullptr, and so does a second call, which meets the
// run slot the first call's throw left empty.
TEST(Inputs, StudyForReportTwiceWithoutRuns) {
  Inputs inputs(/*quick=*/true);
  EXPECT_EQ(inputs.study_for_report(), nullptr);
  EXPECT_EQ(inputs.study_for_report(), nullptr);
  const RunCounts counts = inputs.run_counts();
  EXPECT_EQ(counts.study_runs, 0);
  EXPECT_EQ(counts.transition_runs, 0);
  EXPECT_EQ(counts.private_runs, 0);
}

TEST(Runner, HeaderMatchesTheOldBenchFormat) {
  ArtifactDef def = stub("x", [](Context&) {});
  def.title = "TABLE 2 — Overall Concurrency Measures";
  def.paper_claim = "Cw = 0.35";
  const std::string header = render_header(def);
  EXPECT_EQ(header,
            "=============================================================\n"
            "TABLE 2 — Overall Concurrency Measures\n"
            "Paper: Cw = 0.35\n"
            "=============================================================\n"
            "\n");
}

}  // namespace
}  // namespace repro::artifacts
