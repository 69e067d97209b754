#include "artifacts/runner.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <map>
#include <optional>
#include <utility>

#include "artifacts/registry.hpp"
#include "base/thread_pool.hpp"
#include "core/study.hpp"

namespace repro::artifacts {

namespace {

constexpr const char* kRule =
    "=============================================================";

double seconds_since(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration<double>(elapsed).count();
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
  const auto start = std::chrono::steady_clock::now();
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
  const auto start = std::chrono::steady_clock::now();
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
  const auto start = std::chrono::steady_clock::now();
  const std::size_t n = defs.size();

  // Cached results first: they need no run, so a fully warm run loads no
  // run blob. The runs the other renders declare are gathered, one per
  // distinct key. Key order scatters each sweep's points across the run
  // phase, so the widest or busiest rigs of one sweep seldom run side by
  // side (catalog order measured about a tenth more peak RSS on
  // `reproduce`).
  std::vector<std::optional<ArtifactResult>> slots(n);
  std::size_t pooled = 0;
  int declared = 0;
  std::map<std::uint64_t, core::RunSpec> specs;
  for (std::size_t i = 0; i < n; ++i) {
    slots[i] = load_cached(*defs[i], inputs);
    if (slots[i]) {
      continue;
    }
    pooled += defs[i]->solo ? 0u : 1u;
    if (defs[i]->runs) {
      for (core::RunSpec& spec : defs[i]->runs(inputs)) {
        ++declared;
        specs.try_emplace(core::run_key(spec), std::move(spec));
      }
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

  const std::size_t workers = std::min<std::size_t>(
      core::resolve_threads(inputs.study_config()), pooled + specs.size());
  if (workers > 1) {
    // Workers resolve nested pools to 1 (base::ThreadPool), so a study
    // fold or bootstrap inside a render runs inline rather than
    // oversubscribing.
    base::ThreadPool pool(workers);
    // Runs before renders. The queue is FIFO, so by the time a worker
    // takes a render, every run has been taken by some worker; a render
    // that needs a run still in flight waits on that run's call_once,
    // which a running task holds and will release. A failed run is left
    // for its render to meet again and report as a kError.
    for (const auto& [key, spec] : specs) {
      (void)pool.submit([&inputs, &spec] { (void)inputs.run(spec); });
    }
    std::vector<std::pair<std::size_t, std::future<ArtifactResult>>> renders;
    renders.reserve(pooled);
    for (std::size_t i = 0; i < n; ++i) {
      if (!slots[i] && !defs[i]->solo) {
        const ArtifactDef* def = defs[i];
        renders.emplace_back(
            i, pool.submit([def, &inputs] { return render(*def, inputs); }));
      }
    }
    for (auto& [index, future] : renders) {
      slots[index] = future.get();
      emit_ready();
    }
  }
  // Solo renders (and, without a pool, every render) on the calling
  // thread, with the pool drained and joined.
  for (std::size_t i = 0; i < n; ++i) {
    if (!slots[i]) {
      slots[i] = render(*defs[i], inputs);
      emit_ready();
    }
  }

  report.results.reserve(n);
  for (std::optional<ArtifactResult>& slot : slots) {
    report.results.push_back(std::move(*slot));
  }
  report.run_counts = inputs.run_counts();
  report.run_counts.declared_runs = declared;
  report.run_counts.distinct_runs = static_cast<int>(specs.size());
  report.total_seconds = seconds_since(start);
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
