#include "artifacts/runner.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <map>
#include <optional>
#include <utility>

#include "artifacts/registry.hpp"
#include "base/expect.hpp"
#include "base/thread_pool.hpp"
#include "core/study.hpp"

namespace repro::artifacts {

namespace {

constexpr const char* kRule =
    "=============================================================";

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

/// When one task (a run or a render) was in flight, in nanoseconds since
/// its run_artifacts call began.
struct TaskSpan {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// The paper's c_j (§4.1) over the call's own wall time: the tasks in
/// flight are the active processors and the workers are P. Empty when
/// the workers outnumber the widest histogram ConcurrencyMeasures takes.
std::optional<core::ConcurrencyMeasures> pool_profile(
    const std::vector<TaskSpan>& spans, std::size_t workers,
    std::uint64_t wall_ns) {
  if (workers > kMaxTopologyCes || wall_ns == 0) {
    return std::nullopt;
  }
  // A span counts +1 from its begin to its end. At equal times the end
  // sorts first, so a worker's next task never overlaps its last.
  std::vector<std::pair<std::uint64_t, int>> edges;
  edges.reserve(2 * spans.size());
  for (const TaskSpan& span : spans) {
    edges.emplace_back(span.begin, +1);
    edges.emplace_back(span.end, -1);
  }
  std::sort(edges.begin(), edges.end());
  std::vector<std::uint64_t> ns(workers + 1, 0);
  std::uint64_t at = 0;
  int depth = 0;
  for (const auto& [time, step] : edges) {
    ns[static_cast<std::size_t>(depth)] += time - at;
    at = time;
    depth += step;
    REPRO_ENSURE(depth >= 0 && static_cast<std::size_t>(depth) <= workers,
                 "more tasks in flight than workers");
  }
  ns[0] += wall_ns - at;
  return core::ConcurrencyMeasures::from_counts(ns);
}

core::Json check_json(const Check& check) {
  core::Json object = core::Json::object();
  object.set("name", check.name);
  object.set("measured", check.measured);
  object.set("paper", check.paper);
  object.set("lo", check.lo);
  object.set("hi", check.hi);
  object.set("pass", check.pass);
  object.set("enforced", check.enforced);
  return object;
}

core::Json result_json(const ArtifactResult& result,
                       const ArtifactDef* def) {
  core::Json object = core::Json::object();
  object.set("id", result.id);
  if (def != nullptr) {
    object.set("kind", to_string(def->kind));
    object.set("paper_ref", def->paper_ref);
    object.set("title", def->title);
    object.set("paper_claim", def->paper_claim);
  }
  object.set("status", to_string(result.status));
  if (!result.error.empty()) {
    object.set("error", result.error);
  }
  object.set("seconds", result.seconds);
  core::Json metrics = core::Json::object();
  for (const Metric& metric : result.metrics) {
    metrics.set(metric.name, metric.value);
  }
  object.set("metrics", metrics);
  core::Json checks = core::Json::array();
  for (const Check& check : result.checks) {
    checks.push_back(check_json(check));
  }
  object.set("checks", checks);
  return object;
}

}  // namespace

int RunReport::exit_code() const {
  if (errors > 0) {
    return 2;
  }
  return tolerance_failed > 0 ? 1 : 0;
}

std::string render_header(const ArtifactDef& def) {
  std::string header;
  header += kRule;
  header += '\n';
  header += def.title;
  header += "\nPaper: ";
  header += def.paper_claim;
  header += '\n';
  header += kRule;
  header += "\n\n";
  return header;
}

namespace {

/// Warm path: a previously rendered artifact is restored whole from the
/// store (text, metrics, checks), skipping its simulations entirely. A
/// corrupt or stale blob is a miss (nullopt), as is a disabled store.
std::optional<ArtifactResult> load_cached(const ArtifactDef& def,
                                          Inputs& inputs) {
  ResultStore* store = inputs.store();
  if (store == nullptr) {
    return std::nullopt;
  }
  const auto start = Clock::now();
  if (auto payload = store->get(inputs.artifact_key(def.id))) {
    try {
      ArtifactResult cached =
          decode_result<ArtifactResult>(std::move(*payload));
      if (cached.id == def.id) {
        cached.seconds = seconds_since(start);
        return cached;
      }
    } catch (const capsule::CapsuleError&) {
    }
  }
  return std::nullopt;
}

/// Cold path: render, turning exceptions into kError, and write a clean
/// result back to the store.
ArtifactResult render(const ArtifactDef& def, Inputs& inputs) {
  const auto start = Clock::now();
  Context ctx(inputs, def);
  try {
    def.render(ctx);
  } catch (const std::exception& error) {
    ctx.fail(error.what());
  } catch (...) {
    ctx.fail("unknown exception");
  }
  ArtifactResult result = ctx.take();
  result.id = def.id;
  result.seconds = seconds_since(start);
  // Only clean renders are cached: a tolerance failure or error is cheap
  // to reproduce and should never be served from disk once fixed.
  if (ResultStore* store = inputs.store();
      store != nullptr && result.status == ArtifactStatus::kOk) {
    store->put(inputs.artifact_key(def.id), encode_result(result));
  }
  return result;
}

}  // namespace

ArtifactResult run_artifact(const ArtifactDef& def, Inputs& inputs) {
  if (std::optional<ArtifactResult> cached = load_cached(def, inputs)) {
    return std::move(*cached);
  }
  return render(def, inputs);
}

RunReport run_artifacts(const std::vector<const ArtifactDef*>& defs,
                        Inputs& inputs, const ResultCallback& on_result) {
  const auto start = Clock::now();
  const std::size_t n = defs.size();

  // Cached results first: they need no run, so a fully warm run loads no
  // run blob. The other renders split into those that declare no run and
  // those that wait on runs; the runs are gathered, one per distinct key.
  // Key order scatters each sweep's points across the run phase, so the
  // widest or busiest rigs of one sweep seldom run side by side (catalog
  // order measured about a tenth more peak RSS on `reproduce`).
  std::vector<std::optional<ArtifactResult>> slots(n);
  std::vector<std::size_t> runless;
  std::vector<std::size_t> waiting;
  int declared = 0;
  std::map<std::uint64_t, core::RunSpec> specs;
  for (std::size_t i = 0; i < n; ++i) {
    slots[i] = load_cached(*defs[i], inputs);
    if (slots[i]) {
      continue;
    }
    std::vector<core::RunSpec> runs;
    if (defs[i]->runs) {
      runs = defs[i]->runs(inputs);
    }
    (runs.empty() ? runless : waiting).push_back(i);
    for (core::RunSpec& spec : runs) {
      ++declared;
      specs.try_emplace(core::run_key(spec), std::move(spec));
    }
  }

  RunReport report;
  std::size_t emitted = 0;
  const auto emit_ready = [&] {
    for (; emitted < n && slots[emitted]; ++emitted) {
      const ArtifactResult& result = *slots[emitted];
      switch (result.status) {
        case ArtifactStatus::kOk:
          ++report.ok;
          break;
        case ArtifactStatus::kToleranceFailed:
          ++report.tolerance_failed;
          break;
        case ArtifactStatus::kError:
          ++report.errors;
          break;
      }
      if (on_result) {
        on_result(result);
      }
    }
  };
  emit_ready();

  const std::size_t renders = runless.size() + waiting.size();
  const std::size_t workers = std::max<std::size_t>(
      1, std::min<std::size_t>(core::resolve_threads(inputs.study_config()),
                               renders + specs.size()));
  // Every task stamps its own span (tasks write disjoint slots; they are
  // read after the pool has joined).
  std::vector<TaskSpan> spans(renders + (workers > 1 ? specs.size() : 0));
  const auto stamped_render = [&](std::size_t i, std::size_t task) {
    spans[task].begin = ns_since(start);
    ArtifactResult result = render(*defs[i], inputs);
    spans[task].end = ns_since(start);
    return result;
  };
  if (workers > 1) {
    // Workers resolve nested pools to 1 (base::ThreadPool), so a study
    // fold or bootstrap inside a render runs inline rather than
    // oversubscribing.
    base::ThreadPool pool(workers);
    // The queue is FIFO: first the renders that wait on nothing, then
    // the runs, then the renders that read them. By the time a worker
    // takes a render of the last group, every run has been taken by some
    // worker; a render that needs a run still in flight waits on that
    // run's memo lock, which a running task holds and will release.
    std::vector<std::future<ArtifactResult>> futures(n);
    std::size_t task = 0;
    const auto submit_renders = [&](const std::vector<std::size_t>& group) {
      for (const std::size_t i : group) {
        futures[i] = pool.submit([&stamped_render, i, t = task++] {
          return stamped_render(i, t);
        });
      }
    };
    submit_renders(runless);
    for (const auto& [key, spec] : specs) {
      (void)pool.submit([&, t = task++] {
        spans[t].begin = ns_since(start);
        try {
          (void)inputs.run(spec);
        } catch (...) {
          // Left for its render to meet again and report as a kError.
        }
        spans[t].end = ns_since(start);
      });
    }
    submit_renders(waiting);
    for (std::size_t i = 0; i < n; ++i) {
      if (!slots[i]) {
        slots[i] = futures[i].get();
        emit_ready();
      }
    }
  } else {
    // No pool: every render on the calling thread, in selection order.
    std::size_t task = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!slots[i]) {
        slots[i] = stamped_render(i, task++);
        emit_ready();
      }
    }
  }

  report.results.reserve(n);
  for (std::optional<ArtifactResult>& slot : slots) {
    report.results.push_back(std::move(*slot));
  }
  report.run_counts = inputs.run_counts();
  report.run_counts.declared_runs = declared;
  report.run_counts.distinct_runs = static_cast<int>(specs.size());
  const std::uint64_t wall_ns = ns_since(start);
  report.total_seconds = 1e-9 * static_cast<double>(wall_ns);
  report.pool = pool_profile(spans, workers, wall_ns);
  return report;
}

core::Json build_report_json(const RunReport& report, const Inputs& inputs,
                             const core::StudyResult* study) {
  core::Json root = core::Json::object();
  root.set("schema", "fx8bench-report/1");
  root.set("paper",
           "McGuire 1987, A Measurement-Based Study of Concurrency in a "
           "Multiprocessor");
  root.set("quick", inputs.quick());

  core::Json config = core::Json::object();
  {
    const core::StudyConfig& sc = inputs.study_config();
    core::Json study_config = core::Json::object();
    study_config.set("samples_per_session",
                     static_cast<std::uint64_t>(sc.samples_per_session));
    study_config.set("interval_cycles",
                     static_cast<std::uint64_t>(sc.sampling.interval_cycles));
    study_config.set("warmup_cycles",
                     static_cast<std::uint64_t>(sc.warmup_cycles));
    study_config.set("seed", static_cast<std::uint64_t>(sc.seed));
    config.set("study", study_config);

    const core::TransitionConfig& tc = inputs.transition_config();
    core::Json transition_config = core::Json::object();
    transition_config.set("captures",
                          static_cast<std::uint64_t>(tc.captures));
    transition_config.set(
        "capture_timeout",
        static_cast<std::uint64_t>(tc.capture_timeout));
    transition_config.set("seed", static_cast<std::uint64_t>(tc.seed));
    config.set("transition", transition_config);
  }
  root.set("config", config);

  core::Json runs = core::Json::object();
  runs.set("study_runs", report.run_counts.study_runs);
  runs.set("transition_runs", report.run_counts.transition_runs);
  runs.set("private_runs", report.run_counts.private_runs);
  runs.set("declared_runs", report.run_counts.declared_runs);
  runs.set("distinct_runs", report.run_counts.distinct_runs);
  // The run's own concurrency. It lives here because experiment_runs is
  // already outside every report comparison (scripts/report_diff.py).
  if (report.pool) {
    core::Json pool = core::Json::object();
    pool.set("workers", static_cast<std::uint64_t>(report.pool->width));
    core::Json c = core::Json::array();
    for (std::uint32_t j = 0; j <= report.pool->width; ++j) {
      c.push_back(report.pool->c[j]);
    }
    pool.set("c", c);
    pool.set("cw", report.pool->cw);
    // Undefined (null) unless two tasks were ever in flight at once.
    pool.set("pc", report.pool->pc_defined ? core::Json(report.pool->pc)
                                           : core::Json());
    runs.set("pool", pool);
  }
  root.set("experiment_runs", runs);

  // Hit/miss accounting for the persistent result cache. Timing-like and
  // run-dependent by nature (a cold run puts, a warm run hits), so
  // scripts/report_diff.py excludes it — like `seconds` — when checking
  // cold-vs-warm report identity.
  if (const ResultStore* store = inputs.store()) {
    const CacheStats stats = store->stats();
    core::Json cache = core::Json::object();
    cache.set("enabled", true);
    cache.set("dir", store->dir());
    cache.set("hits", stats.hits);
    cache.set("misses", stats.misses);
    cache.set("corrupt_misses", stats.corrupt_misses);
    cache.set("puts", stats.puts);
    cache.set("put_errors", stats.put_errors);
    cache.set("bytes_read", stats.bytes_read);
    cache.set("bytes_written", stats.bytes_written);
    root.set("cache", cache);
  }

  if (study != nullptr) {
    core::Json engine = core::Json::object();
    engine.set("threads",
               static_cast<std::uint64_t>(
                   core::resolve_threads(inputs.study_config())));
    engine.set("ff_skipped_cycles",
               static_cast<std::uint64_t>(study->ff.skipped_cycles));
    engine.set("ff_naive_cycles",
               static_cast<std::uint64_t>(study->ff.naive_cycles));
    engine.set("ff_block_cycles",
               static_cast<std::uint64_t>(study->ff.block_cycles));
    engine.set("ff_jumps", static_cast<std::uint64_t>(study->ff.jumps));
    const double total = static_cast<double>(study->ff.skipped_cycles +
                                             study->ff.naive_cycles +
                                             study->ff.block_cycles);
    engine.set("ff_skipped_share",
               total > 0.0
                   ? static_cast<double>(study->ff.skipped_cycles) / total
                   : 0.0);
    root.set("study_engine", engine);
  }

  core::Json summary = core::Json::object();
  summary.set("artifacts", static_cast<std::uint64_t>(report.results.size()));
  summary.set("ok", report.ok);
  summary.set("tolerance_failed", report.tolerance_failed);
  summary.set("errors", report.errors);
  summary.set("total_seconds", report.total_seconds);
  summary.set("exit_code", report.exit_code());
  root.set("summary", summary);

  core::Json artifacts = core::Json::array();
  for (const ArtifactResult& result : report.results) {
    artifacts.push_back(result_json(result, find_artifact(result.id)));
  }
  root.set("artifacts", artifacts);
  return root;
}

}  // namespace repro::artifacts
