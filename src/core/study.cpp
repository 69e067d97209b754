#include "core/study.hpp"

#include <algorithm>
#include <future>
#include <utility>

#include "base/expect.hpp"
#include "base/rng.hpp"
#include "base/thread_pool.hpp"

namespace repro::core {

namespace {

/// Replicate count a config resolves to (always >= 1, never more than
/// one replicate per sample). Replicates split a session into
/// independent runs, which turns 9 coarse pool tasks into 9*R finer ones
/// (docs/parallel_execution.md).
std::uint32_t resolve_replicates(const StudyConfig& config) {
  const std::uint32_t requested = std::max(1u, config.replicates_per_session);
  return std::min(requested, std::max(1u, config.samples_per_session));
}

/// Seed for replicate `r` of a session. Replicate 0 consumes the session
/// seed unchanged, so replicates_per_session=1 reproduces the classic
/// single-system session stream bit-for-bit.
std::uint64_t replicate_seed(std::uint64_t session_seed,
                             std::uint32_t replicate) {
  return replicate == 0
             ? session_seed
             : mix64(session_seed ^ (0xFA57F00DULL + replicate));
}

/// Samples replicate `r` takes: an even split, earlier replicates taking
/// the remainder.
std::uint32_t replicate_samples(const StudyConfig& config,
                                std::uint32_t replicate,
                                std::uint32_t replicates) {
  return config.samples_per_session / replicates +
         (replicate < config.samples_per_session % replicates ? 1 : 0);
}

/// Append one session's runs, one per replicate: each its own system,
/// generator and controller, warmed up and sampled.
void append_session_specs(std::vector<RunSpec>& specs,
                          const workload::WorkloadMix& mix,
                          const StudyConfig& config,
                          std::uint64_t session_seed) {
  const std::uint32_t replicates = resolve_replicates(config);
  for (std::uint32_t r = 0; r < replicates; ++r) {
    const std::uint64_t seed = replicate_seed(session_seed, r);
    RunSpec spec;
    spec.system = config.system;
    spec.mix = mix;
    spec.sampling = config.sampling;
    spec.sampling.fast_forward =
        config.sampling.fast_forward && config.fast_forward;
    spec.generator_seed = mix64(seed ^ 0xABCD);
    spec.controller_seed = mix64(seed ^ 0x5A5A);
    spec.warmup_cycles = config.warmup_cycles;
    spec.samples = replicate_samples(config, r, replicates);
    specs.push_back(std::move(spec));
  }
}

/// Fold a session's replicate runs, in replicate order, into the
/// SessionResult — the same arithmetic whether the runs were computed
/// serially or on the pool.
SessionResult fold_session(const workload::WorkloadMix& mix,
                           std::span<RunResult> runs) {
  SessionResult result;
  result.name = mix.name;
  // The first replicate's samples move over whole; the rest append.
  result.samples = std::move(runs.front().samples);
  for (RunResult& run : runs.subspan(1)) {
    result.samples.insert(result.samples.end(),
                          std::make_move_iterator(run.samples.begin()),
                          std::make_move_iterator(run.samples.end()));
  }
  for (const RunResult& run : runs) {
    result.totals.merge(run.totals);
    result.ff.merge(run.ff);
  }
  result.overall = ConcurrencyMeasures::from_counts(
      std::span(result.totals.num).first(runs.back().width + 1));
  return result;
}

}  // namespace

std::vector<RunResult> run_all(
    const std::vector<RunSpec>& specs, std::size_t threads,
    const std::function<RunResult(const RunSpec&)>& execute) {
  // A pool of zero workers runs each task inline: the serial path.
  base::ThreadPool pool(threads <= 1 || specs.size() <= 1
                            ? 0
                            : std::min(threads, specs.size()));
  std::vector<std::future<RunResult>> futures;
  futures.reserve(specs.size());
  for (const RunSpec& spec : specs) {
    futures.push_back(pool.submit([&execute, &spec] { return execute(spec); }));
  }
  std::vector<RunResult> runs;
  runs.reserve(specs.size());
  for (std::future<RunResult>& future : futures) {
    runs.push_back(future.get());
  }
  return runs;
}

std::vector<AnalyzedSample> StudyResult::all_samples() const {
  std::size_t total = 0;
  for (const SessionResult& session : sessions) {
    total += session.samples.size();
  }
  std::vector<AnalyzedSample> all;
  all.reserve(total);
  for (const SessionResult& session : sessions) {
    all.insert(all.end(), session.samples.begin(), session.samples.end());
  }
  return all;
}

std::uint32_t resolve_threads(const StudyConfig& config) {
  return static_cast<std::uint32_t>(
      base::ThreadPool::resolve_workers(config.threads));
}

std::vector<RunSpec> study_specs(std::span<const workload::WorkloadMix> mixes,
                                 const StudyConfig& config) {
  // Session seeds are derived serially, in mix order, before any
  // dispatch: the seed stream is identical however many workers run.
  std::uint64_t seed_state = config.seed;
  std::vector<RunSpec> specs;
  specs.reserve(mixes.size() * resolve_replicates(config));
  for (const workload::WorkloadMix& mix : mixes) {
    append_session_specs(specs, mix, config, splitmix64(seed_state));
  }
  return specs;
}

SessionResult run_session(const workload::WorkloadMix& mix,
                          const StudyConfig& config,
                          std::uint64_t session_seed) {
  std::vector<RunSpec> specs;
  append_session_specs(specs, mix, config, session_seed);
  std::vector<RunResult> runs = run_all(specs, 1);
  return fold_session(mix, runs);
}

StudyResult fold_study(std::span<const workload::WorkloadMix> mixes,
                       const StudyConfig& config,
                       std::vector<RunResult> runs) {
  const std::size_t replicates = resolve_replicates(config);
  REPRO_EXPECT(runs.size() == mixes.size() * replicates,
               "a study folds one run per (mix, replicate)");
  StudyResult study;
  study.sessions.reserve(mixes.size());
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    const SessionResult& session = study.sessions.emplace_back(fold_session(
        mixes[i], std::span(runs).subspan(i * replicates, replicates)));
    study.totals.merge(session.totals);
    study.ff.merge(session.ff);
  }
  const std::uint32_t width =
      study.sessions.empty() ? kMaxCes
                             : study.sessions.front().overall.width;
  study.overall = ConcurrencyMeasures::from_counts(
      std::span(study.totals.num).first(width + 1));
  return study;
}

StudyResult run_study(std::span<const workload::WorkloadMix> mixes,
                      const StudyConfig& config) {
  return fold_study(
      mixes, config,
      run_all(study_specs(mixes, config), resolve_threads(config)));
}

StudyResult run_default_study(const StudyConfig& config) {
  const auto mixes = workload::session_presets();
  return run_study(mixes, config);
}

void serialize_config(capsule::Io& io, StudyConfig& config) {
  os::serialize_config(io, config.system);
  instr::serialize_config(io, config.sampling);
  io.u32(config.samples_per_session);
  io.u64(config.warmup_cycles);
  io.u64(config.seed);
  io.u32(config.replicates_per_session);
}

void SessionResult::serialize(capsule::Io& io) {
  io.str(name);
  auto count = io.extent(samples.size());
  samples.resize(count);
  for (AnalyzedSample& sample : samples) {
    sample.serialize(io);
  }
  totals.serialize(io);
  overall.serialize(io);
  ff.serialize(io);
}

void StudyResult::serialize(capsule::Io& io) {
  auto count = io.extent(sessions.size());
  sessions.resize(count);
  for (SessionResult& session : sessions) {
    session.serialize(io);
  }
  totals.serialize(io);
  overall.serialize(io);
  ff.serialize(io);
}

}  // namespace repro::core
