// perfbench driver: runs one benchmark workload against the simulator
// libraries in a closed loop (one pass at a time, one client, one
// process) and writes what it measured as one JSON document.
//
//   perfbench_driver --workload reproduce|study_fx8|study_fx64
//                    --seed N --seconds S --out FILE
//                    [--trace --trace-out FILE] [--reference-run]
//                    [--tiny] [--setup-only]
//
// Untraced passes call each workload's public entry point exactly as a
// user would: `artifacts::run_artifacts` over the whole catalog, or
// `core::run_study` plus `core::fit_all_models`. With --trace, traced
// passes alternate with untraced ones; a traced pass makes the same
// calls one layer at a time and records a span around each. Spans and
// counters stay in memory and go to --trace-out when the run ends.
//
// The driver only measures. perfbench/run.py builds it, checks the
// digests it reports against perfbench/references.json, turns spans
// into per-layer metrics and prints the result (see perfbench/README.md).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "artifacts/inputs.hpp"
#include "artifacts/registry.hpp"
#include "artifacts/runner.hpp"
#include "base/capsule.hpp"
#include "base/fnv1a.hpp"
#include "base/rng.hpp"
#include "base/thread_pool.hpp"
#include "core/json.hpp"
#include "core/presets.hpp"
#include "core/regression_models.hpp"
#include "core/study.hpp"
#include "fx8/lane_kernel.hpp"
#include "fx8/machine.hpp"
#include "instr/session_controller.hpp"
#include "os/system.hpp"
#include "workload/generator.hpp"
#include "workload/presets.hpp"

namespace {

using namespace repro;
using Clock = std::chrono::steady_clock;

// Set before any other static initializer runs, so setup time counts
// everything the process does before its first call into the workload.
Clock::time_point g_process_start;
[[gnu::constructor(101)]] void mark_process_start() {
  g_process_start = Clock::now();
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double now_s() { return seconds_since(g_process_start); }

std::string hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
  return buf;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool reference_run = false;
  bool setup_only = false;
  std::string out;
  std::string trace_out;
};

// ---------------------------------------------------------------------
// Tracing: spans and counters, kept in memory.

class Tracer {
 public:
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::string label = {})
        : tracer_(tracer), index_(tracer.open(name, std::move(label))) {}
    ~Scope() { tracer_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
  };

  void set_pass(int pass) { pass_ = pass; }

  void count(const char* name, const std::string& label,
             std::uint64_t value) {
    counters_.push_back(Counter{name, label, value, pass_});
  }

  [[nodiscard]] core::Json to_json() const {
    core::Json spans = core::Json::array();
    for (const Span& span : spans_) {
      core::Json s = core::Json::object();
      s.set("name", span.name);
      s.set("label", span.label);
      s.set("start", span.start);
      s.set("end", span.end);
      s.set("parent", span.parent);
      s.set("pass", span.pass);
      spans.push_back(std::move(s));
    }
    core::Json counters = core::Json::array();
    for (const Counter& counter : counters_) {
      core::Json c = core::Json::object();
      c.set("name", counter.name);
      c.set("label", counter.label);
      c.set("value", counter.value);
      c.set("pass", counter.pass);
      counters.push_back(std::move(c));
    }
    core::Json doc = core::Json::object();
    doc.set("spans", std::move(spans));
    doc.set("counters", std::move(counters));
    return doc;
  }

 private:
  struct Span {
    std::string name;
    std::string label;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int pass = 0;
  };
  struct Counter {
    std::string name;
    std::string label;
    std::uint64_t value = 0;
    int pass = 0;
  };

  std::size_t open(const char* name, std::string label) {
    const int parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    spans_.push_back(Span{name, std::move(label), 0.0, 0.0, parent, pass_});
    open_.push_back(spans_.size() - 1);
    spans_.back().start = now_s();
    return spans_.size() - 1;
  }

  void close(std::size_t index) {
    spans_[index].end = now_s();
    open_.pop_back();
  }

  std::vector<Span> spans_;
  std::vector<Counter> counters_;
  std::vector<std::size_t> open_;
  int pass_ = 0;
};

// ---------------------------------------------------------------------
// What one pass produced: its wall time and the digests that decide
// whether each of its operations was correct.

struct PassOutcome {
  double wall_s = 0.0;
  bool traced = false;
  /// One digest per operation (artifact id or session name).
  std::vector<std::pair<std::string, std::string>> digests;
  /// Digest of what the operations share (the report outside its
  /// artifacts, or Table 2).
  std::string shared_digest;
  /// Operations that failed outright (an artifact that is not ok).
  std::vector<std::string> not_ok;
};

core::Json outcome_json(const PassOutcome& outcome) {
  core::Json pass = core::Json::object();
  pass.set("traced", outcome.traced);
  pass.set("wall_s", outcome.wall_s);
  core::Json digests = core::Json::object();
  for (const auto& [op, digest] : outcome.digests) {
    digests.set(op, digest);
  }
  pass.set("digests", std::move(digests));
  pass.set("shared_digest", outcome.shared_digest);
  core::Json not_ok = core::Json::array();
  for (const std::string& op : outcome.not_ok) {
    not_ok.push_back(op);
  }
  pass.set("not_ok", std::move(not_ok));
  return pass;
}

std::uint64_t text_digest(const std::string& text) {
  return base::fnv1a(reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size());
}

// ---------------------------------------------------------------------
// reproduce: the whole artifact catalog, cold, no result store.

/// Copy of `object` without `keys`.
core::Json without(const core::Json& object,
                   std::initializer_list<const char*> keys) {
  core::Json out = core::Json::object();
  for (const auto& [key, value] : object.items()) {
    if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
      out.set(key, value);
    }
  }
  return out;
}

/// One artifact's report entry minus what describes the run rather than
/// the result: its wall time, and perf_simulator's wall-clock rates.
core::Json normalized_artifact(const core::Json& artifact) {
  core::Json out = without(artifact, {"seconds"});
  const core::Json* id = artifact.find("id");
  if (id == nullptr || id->as_string() != "perf_simulator") {
    return out;
  }
  core::Json fixed = core::Json::object();
  for (const auto& [key, value] : out.items()) {
    if (key == "metrics") {
      fixed.set(key, without(value, {"naive_cycles_per_sec",
                                     "block_cycles_per_sec",
                                     "idle_cycles_per_sec",
                                     "block_vs_naive_speedup"}));
    } else if (key == "checks") {
      core::Json checks = core::Json::array();
      for (const auto& [unused, check] : value.items()) {
        const core::Json* name = check.find("name");
        const bool timed =
            name != nullptr && name->as_string() == "block_vs_naive_speedup";
        checks.push_back(timed ? without(check, {"measured", "pass"})
                               : check);
      }
      fixed.set(key, std::move(checks));
    } else {
      fixed.set(key, value);
    }
  }
  return fixed;
}

/// Digest the fx8bench report of one pass, stripped as
/// scripts/report_diff.py strips it, plus the study engine's
/// fast-forward bookkeeping and thread count.
void digest_report(const core::Json& report, PassOutcome& outcome) {
  core::Json shared = core::Json::object();
  for (const auto& [key, value] : report.items()) {
    if (key == "experiment_runs" || key == "cache") {
      continue;
    }
    if (key == "summary") {
      shared.set(key, without(value, {"total_seconds"}));
    } else if (key == "study_engine") {
      shared.set(key, without(value, {"threads", "ff_skipped_cycles",
                                      "ff_naive_cycles", "ff_block_cycles",
                                      "ff_jumps", "ff_skipped_share"}));
    } else if (key == "artifacts") {
      for (const auto& [unused, artifact] : value.items()) {
        outcome.digests.emplace_back(
            artifact.find("id")->as_string(),
            hex(text_digest(normalized_artifact(artifact).dump())));
      }
    } else {
      shared.set(key, value);
    }
  }
  outcome.shared_digest = hex(text_digest(shared.dump()));
}

PassOutcome reproduce_outcome(const artifacts::RunReport& report,
                              artifacts::Inputs& inputs, double wall_s,
                              bool traced) {
  PassOutcome outcome;
  outcome.wall_s = wall_s;
  outcome.traced = traced;
  for (const artifacts::ArtifactResult& result : report.results) {
    if (result.status != artifacts::ArtifactStatus::kOk) {
      outcome.not_ok.push_back(result.id);
    }
  }
  digest_report(
      artifacts::build_report_json(report, inputs, inputs.study_for_report()),
      outcome);
  return outcome;
}

/// Untraced pass: what `fx8bench --all` does, minus the printing.
PassOutcome reproduce_pass(const std::vector<const artifacts::ArtifactDef*>& defs,
                           artifacts::Inputs& inputs) {
  const auto start = Clock::now();
  const artifacts::RunReport report = artifacts::run_artifacts(defs, inputs);
  const double wall_s = seconds_since(start);
  return reproduce_outcome(report, inputs, wall_s, false);
}

/// Traced pass: the three shared inputs are forced first, each in its
/// own span, so every render span holds only that artifact's own work.
/// The work done is the same as the untraced pass; only who pays for the
/// shared inputs moves.
PassOutcome reproduce_traced_pass(
    const std::vector<const artifacts::ArtifactDef*>& defs,
    artifacts::Inputs& inputs, Tracer& tracer) {
  const auto start = Clock::now();
  artifacts::RunReport report;
  {
    Tracer::Scope pass(tracer, "bench.pass");
    {
      Tracer::Scope span(tracer, "artifacts.inputs.study");
      (void)inputs.study();
    }
    {
      Tracer::Scope span(tracer, "artifacts.inputs.transition");
      (void)inputs.transition();
    }
    {
      Tracer::Scope span(tracer, "artifacts.inputs.models");
      (void)inputs.models();
    }
    for (const artifacts::ArtifactDef* def : defs) {
      Tracer::Scope span(tracer, "artifacts.render", def->id);
      report.results.push_back(artifacts::run_artifact(*def, inputs));
    }
  }
  const double wall_s = seconds_since(start);
  report.run_counts = inputs.run_counts();
  const artifacts::RunCounts& counts = report.run_counts;
  tracer.count("artifacts.private_runs", {},
               static_cast<std::uint64_t>(counts.private_runs));
  tracer.count("artifacts.study_runs", {},
               static_cast<std::uint64_t>(counts.study_runs));
  tracer.count("artifacts.transition_runs", {},
               static_cast<std::uint64_t>(counts.transition_runs));
  for (const artifacts::ArtifactResult& result : report.results) {
    switch (result.status) {
      case artifacts::ArtifactStatus::kOk:
        ++report.ok;
        break;
      case artifacts::ArtifactStatus::kToleranceFailed:
        ++report.tolerance_failed;
        break;
      case artifacts::ArtifactStatus::kError:
        ++report.errors;
        break;
    }
  }
  return reproduce_outcome(report, inputs, wall_s, true);
}

// ---------------------------------------------------------------------
// study_fx8 / study_fx64: the nine-session study, one thread.

core::StudyConfig study_config(const Options& options) {
  core::StudyConfig config = options.tiny ? core::presets::tiny_study()
                                          : core::presets::bench_study();
  config.system.machine = options.workload == "study_fx64"
                              ? fx8::MachineConfig::fx64()
                              : fx8::MachineConfig::fx8();
  config.threads = 1;
  // --seed 0 is the paper's seed; other seeds offset it.
  config.seed += options.seed;
  return config;
}

/// Simulated machine cycles in one study pass.
std::uint64_t study_cycles(const core::StudyConfig& config,
                           std::size_t sessions) {
  return sessions * (config.warmup_cycles + config.samples_per_session *
                                                config.sampling.interval_cycles);
}

/// Digest of a session's analyzed samples, totals and measures; the
/// fast-forward bookkeeping is left out on purpose (a better horizon may
/// change it without changing a simulated bit).
std::uint64_t session_digest(core::SessionResult session) {
  capsule::Io io = capsule::Io::digester();
  io.str(session.name);
  const auto count = io.extent(session.samples.size());
  for (std::uint64_t i = 0; i < count; ++i) {
    session.samples[i].serialize(io);
  }
  session.totals.serialize(io);
  session.overall.serialize(io);
  return io.digest();
}

PassOutcome study_outcome(const core::StudyResult& study, double wall_s,
                          bool traced) {
  PassOutcome outcome;
  outcome.wall_s = wall_s;
  outcome.traced = traced;
  for (const core::SessionResult& session : study.sessions) {
    outcome.digests.emplace_back(session.name, hex(session_digest(session)));
  }
  // Table 2: the all-session counts and Cw / Pc.
  instr::EventCounts totals = study.totals;
  core::ConcurrencyMeasures overall = study.overall;
  capsule::Io io = capsule::Io::digester();
  totals.serialize(io);
  overall.serialize(io);
  outcome.shared_digest = hex(io.digest());
  return outcome;
}

/// Untraced pass: the study plus the Table 3/4 models fitted over it.
PassOutcome study_pass(std::span<const workload::WorkloadMix> mixes,
                       const core::StudyConfig& config) {
  const auto start = Clock::now();
  const core::StudyResult study = core::run_study(mixes, config);
  (void)core::fit_all_models(study.all_samples());
  const double wall_s = seconds_since(start);
  return study_outcome(study, wall_s, false);
}

/// Deterministic work counts of one finished session rig.
void count_rig(Tracer& tracer, const std::string& session,
               os::System& system,
               const instr::SessionController& controller,
               std::uint64_t probe_records) {
  const fx8::Machine& machine = system.machine();
  std::uint64_t busy = 0;
  std::uint64_t iterations = 0;
  for (std::uint32_t c = 0; c < machine.n_clusters(); ++c) {
    const fx8::Cluster& cluster = machine.cluster(c);
    iterations += cluster.stats().iterations_completed;
    for (CeId lane = 0; lane < cluster.width(); ++lane) {
      busy += cluster.ce(lane).stats().busy_cycles;
    }
  }
  const cache::SharedCacheStats& cache = machine.shared_cache().stats();
  const instr::FastForwardStats& ff = controller.ff_stats();
  tracer.count("fx8.ce_busy_cycles", session, busy);
  tracer.count("fx8.iterations_completed", session, iterations);
  tracer.count("fx8.fabric_conflicts", session,
               machine.fabric() != nullptr ? machine.fabric()->conflicts()
                                           : 0);
  tracer.count("cache.accesses", session, cache.accesses);
  tracer.count("cache.misses", session, cache.misses);
  tracer.count("cache.merged_misses", session, cache.merged_misses);
  tracer.count("os.vm_faults", session, system.vm().stats().faults);
  tracer.count("os.jobs_completed", session,
               system.scheduler().stats().jobs_completed);
  tracer.count("instr.ff_skipped_cycles", session, ff.skipped_cycles);
  tracer.count("instr.ff_block_cycles", session, ff.block_cycles);
  tracer.count("instr.ff_naive_cycles", session, ff.naive_cycles);
  tracer.count("instr.ff_jumps", session, ff.jumps);
  tracer.count("instr.probe_records", session, probe_records);
}

/// Traced pass: each session rig is built from public calls and seeded
/// exactly as core::run_session seeds it (one replicate per session), so
/// warmup, every sample and every analysis get spans of their own. The
/// results must equal the untraced pass's, which run.py checks.
PassOutcome study_traced_pass(std::span<const workload::WorkloadMix> mixes,
                              const core::StudyConfig& config,
                              Tracer& tracer) {
  const auto start = Clock::now();
  core::StudyResult study;
  {
    Tracer::Scope pass(tracer, "bench.pass");
    std::uint64_t seed_state = config.seed;
    std::vector<std::uint64_t> seeds;
    for (std::size_t i = 0; i < mixes.size(); ++i) {
      seeds.push_back(splitmix64(seed_state));
    }
    instr::SamplingConfig sampling = config.sampling;
    sampling.fast_forward = sampling.fast_forward && config.fast_forward;
    for (std::size_t i = 0; i < mixes.size(); ++i) {
      const workload::WorkloadMix& mix = mixes[i];
      Tracer::Scope session_span(tracer, "core.session", mix.name);
      std::unique_ptr<os::System> system;
      {
        Tracer::Scope span(tracer, "os.rig_ctor");
        system = std::make_unique<os::System>(config.system);
      }
      workload::WorkloadGenerator generator(mix, mix64(seeds[i] ^ 0xABCD));
      instr::SessionController controller(*system, generator, sampling,
                                          mix64(seeds[i] ^ 0x5A5A));
      {
        Tracer::Scope span(tracer, "instr.warmup");
        controller.advance(config.warmup_cycles);
      }
      const std::uint32_t width = system->machine().total_ces();
      core::SessionResult session;
      session.name = mix.name;
      std::uint64_t probe_records = 0;
      for (std::uint32_t s = 0; s < config.samples_per_session; ++s) {
        instr::SampleRecord record;
        {
          Tracer::Scope span(tracer, "instr.take_sample");
          record = controller.take_sample();
        }
        {
          Tracer::Scope span(tracer, "core.analyze");
          session.samples.push_back(core::analyze(record, width));
        }
        session.totals.merge(record.hw);
        probe_records += record.hw.records;
      }
      session.overall = core::ConcurrencyMeasures::from_counts(
          std::span(session.totals.num).first(width + 1));
      session.ff = controller.ff_stats();
      count_rig(tracer, mix.name, *system, controller, probe_records);
      study.sessions.push_back(std::move(session));
    }
    for (const core::SessionResult& session : study.sessions) {
      study.totals.merge(session.totals);
    }
    const std::uint32_t width = study.sessions.empty()
                                    ? kMaxCes
                                    : study.sessions.front().overall.width;
    study.overall = core::ConcurrencyMeasures::from_counts(
        std::span(study.totals.num).first(width + 1));
    {
      Tracer::Scope span(tracer, "core.fit_models");
      (void)core::fit_all_models(study.all_samples());
    }
  }
  const double wall_s = seconds_since(start);
  return study_outcome(study, wall_s, true);
}

// ---------------------------------------------------------------------

core::Json manifest_json(std::uint32_t threads) {
  core::Json manifest = core::Json::object();
  manifest.set("build_type", PERFBENCH_BUILD_TYPE);
  manifest.set("compiler", PERFBENCH_COMPILER);
  manifest.set("lane_pass", fx8::lane_pass_name(fx8::select_lane_pass()));
  manifest.set("hardware_workers", static_cast<std::uint64_t>(
                                       base::ThreadPool::hardware_workers()));
  manifest.set("threads", static_cast<std::uint64_t>(threads));
  return manifest;
}

/// Peak resident memory of this process (VmHWM). getrusage's ru_maxrss
/// would not do: Linux carries it across execve, so it starts at the
/// parent's peak.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

bool write_file(const std::string& path, const core::Json& doc) {
  std::ofstream out(path);
  out << doc.dump() << '\n';
  return static_cast<bool>(out);
}

/// Run passes until `seconds` have elapsed (and at least two of each
/// kind). With tracing, traced and untraced passes alternate.
template <typename Untraced, typename Traced>
std::vector<PassOutcome> run_passes(const Options& options,
                                    const Untraced& untraced,
                                    const Traced& traced, Tracer& tracer) {
  std::vector<PassOutcome> outcomes;
  const auto start = Clock::now();
  const std::size_t min_passes = options.trace ? 4 : 2;
  while (outcomes.size() < min_passes ||
         seconds_since(start) < options.seconds) {
    if (options.trace && outcomes.size() % 2 == 1) {
      tracer.set_pass(static_cast<int>(outcomes.size()));
      outcomes.push_back(traced());
    } else {
      outcomes.push_back(untraced());
    }
  }
  return outcomes;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload reproduce|study_fx8|"
               "study_fx64 --seed N --seconds S --out FILE\n"
               "       [--trace --trace-out FILE] [--reference-run] "
               "[--tiny] [--setup-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--out" && has_value) {
      options.out = argv[++i];
    } else if (arg == "--trace-out" && has_value) {
      options.trace_out = argv[++i];
    } else if (arg == "--trace") {
      options.trace = true;
    } else if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--reference-run") {
      options.reference_run = true;
    } else if (arg == "--setup-only") {
      options.setup_only = true;
    } else {
      return usage();
    }
  }
  const bool reproduce = options.workload == "reproduce";
  const bool study =
      options.workload == "study_fx8" || options.workload == "study_fx64";
  if ((!reproduce && !study) || (!options.setup_only && options.out.empty()) ||
      (options.trace && options.trace_out.empty())) {
    return usage();
  }

  // Setup: everything up to the first call into the workload.
  std::vector<const artifacts::ArtifactDef*> defs;
  std::unique_ptr<artifacts::Inputs> inputs;
  std::vector<workload::WorkloadMix> mixes;
  core::StudyConfig config;
  if (reproduce) {
    for (const artifacts::ArtifactDef& def : artifacts::catalog()) {
      defs.push_back(&def);
    }
    inputs = std::make_unique<artifacts::Inputs>(options.tiny);
  } else {
    mixes = workload::session_presets();
    config = study_config(options);
  }
  const double setup_s = now_s();
  if (options.setup_only) {
    std::printf("%.9f\n", setup_s);
    return 0;
  }

  Tracer tracer;
  std::vector<PassOutcome> passes;
  std::uint32_t threads = 1;
  std::uint64_t cycles_per_pass = 0;
  if (reproduce) {
    threads = core::resolve_threads(inputs->study_config());
    cycles_per_pass = study_cycles(inputs->study_config(),
                                   workload::session_presets().size());
    // Every pass starts cold, from a fresh Inputs; the first one is the
    // Inputs built during setup.
    const auto fresh_inputs = [&] {
      if (!inputs) {
        inputs = std::make_unique<artifacts::Inputs>(options.tiny);
      }
      return std::exchange(inputs, nullptr);
    };
    passes = run_passes(
        options,
        [&] {
          auto in = fresh_inputs();
          return reproduce_pass(defs, *in);
        },
        [&] {
          auto in = fresh_inputs();
          return reproduce_traced_pass(defs, *in, tracer);
        },
        tracer);
  } else {
    cycles_per_pass = study_cycles(config, mixes.size());
    passes = run_passes(
        options, [&] { return study_pass(mixes, config); },
        [&] { return study_traced_pass(mixes, config, tracer); }, tracer);
  }
  const double rss_mb = peak_rss_mb();

  core::Json doc = core::Json::object();
  doc.set("operation", reproduce ? "artifact" : "session");
  doc.set("manifest", manifest_json(threads));
  doc.set("setup_s", setup_s);
  doc.set("peak_rss_mb", rss_mb);
  doc.set("sim_cycles_per_pass", cycles_per_pass);
  if (study) {
    doc.set("warmup_cycles_per_pass",
            static_cast<std::uint64_t>(mixes.size() * config.warmup_cycles));
    doc.set("sample_cycles_per_pass",
            cycles_per_pass - mixes.size() * config.warmup_cycles);
  }
  core::Json pass_list = core::Json::array();
  for (const PassOutcome& pass : passes) {
    pass_list.push_back(outcome_json(pass));
  }
  doc.set("passes", std::move(pass_list));

  // The reference for a seed with no recorded digests: the same study,
  // serial, with fast-forward off, outside the timed region.
  if (options.reference_run && study) {
    core::StudyConfig naive = config;
    naive.fast_forward = false;
    doc.set("reference",
            outcome_json(study_outcome(core::run_study(mixes, naive), 0.0,
                                       false)));
  }

  if (options.trace && !write_file(options.trace_out, tracer.to_json())) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 options.trace_out.c_str());
    return 1;
  }
  if (!write_file(options.out, doc)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", options.out.c_str());
    return 1;
  }
  return 0;
}
