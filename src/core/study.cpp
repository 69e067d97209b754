#include "core/study.hpp"

#include <algorithm>
#include <future>
#include <utility>

#include "base/rng.hpp"
#include "base/thread_pool.hpp"

namespace repro::core {

namespace {

/// One replicate's share of a session: the task unit of the parallel
/// study engine (docs/parallel_execution.md). Splitting sessions into
/// replicates turns 9 coarse tasks into 9*R finer ones, which is what
/// keeps every worker busy through the tail of the run.
struct SessionPart {
  std::vector<AnalyzedSample> samples;
  instr::EventCounts totals;
  instr::FastForwardStats ff;
  std::uint32_t width = kMaxCes;
};

/// Replicate count a config resolves to (always >= 1, never more than
/// one replicate per sample).
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

/// Run one replicate: its own system, generator, and controller, warmed
/// up and sampled. A pure function of (mix, config, seed, n_samples).
SessionPart run_replicate(const workload::WorkloadMix& mix,
                          const StudyConfig& config, std::uint64_t seed,
                          std::uint32_t n_samples) {
  instr::SamplingConfig sampling = config.sampling;
  sampling.fast_forward = sampling.fast_forward && config.fast_forward;
  os::System system(config.system);
  workload::WorkloadGenerator generator(mix, mix64(seed ^ 0xABCD));
  instr::SessionController controller(system, generator, sampling,
                                      mix64(seed ^ 0x5A5A));

  // Warm up: let the workload reach steady state before sampling.
  controller.advance(config.warmup_cycles);

  SessionPart part;
  part.width = system.machine().total_ces();
  part.samples.reserve(n_samples);
  for (std::uint32_t s = 0; s < n_samples; ++s) {
    const instr::SampleRecord record = controller.take_sample();
    part.samples.push_back(analyze(record, part.width));
    part.totals.merge(record.hw);
  }
  part.ff = controller.ff_stats();
  return part;
}

/// Fold a session's replicate parts, in replicate order, into the
/// SessionResult — the same arithmetic whether the parts were computed
/// serially or on the pool.
SessionResult merge_parts(const workload::WorkloadMix& mix,
                          std::vector<SessionPart> parts) {
  SessionResult result;
  result.name = mix.name;
  std::uint32_t width = kMaxCes;
  std::size_t total = 0;
  for (const SessionPart& part : parts) {
    total += part.samples.size();
  }
  result.samples.reserve(total);
  for (SessionPart& part : parts) {
    width = part.width;
    result.samples.insert(result.samples.end(),
                          std::make_move_iterator(part.samples.begin()),
                          std::make_move_iterator(part.samples.end()));
    result.totals.merge(part.totals);
    result.ff.skipped_cycles += part.ff.skipped_cycles;
    result.ff.naive_cycles += part.ff.naive_cycles;
    result.ff.block_cycles += part.ff.block_cycles;
    result.ff.jumps += part.ff.jumps;
  }
  result.overall = ConcurrencyMeasures::from_counts(
      std::span(result.totals.num).first(width + 1));
  return result;
}

}  // namespace

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

SessionResult run_session(const workload::WorkloadMix& mix,
                          const StudyConfig& config,
                          std::uint64_t session_seed) {
  const std::uint32_t replicates = resolve_replicates(config);
  std::vector<SessionPart> parts;
  parts.reserve(replicates);
  for (std::uint32_t r = 0; r < replicates; ++r) {
    parts.push_back(run_replicate(mix, config, replicate_seed(session_seed, r),
                                  replicate_samples(config, r, replicates)));
  }
  return merge_parts(mix, std::move(parts));
}

StudyResult run_study(std::span<const workload::WorkloadMix> mixes,
                      const StudyConfig& config) {
  StudyResult study;
  // Session seeds are derived serially, in mix order, *before* any
  // dispatch: the seed stream is identical however many workers run.
  std::uint64_t seed_state = config.seed;
  std::vector<std::uint64_t> seeds;
  seeds.reserve(mixes.size());
  for (std::size_t i = 0; i < mixes.size(); ++i) {
    seeds.push_back(splitmix64(seed_state));
  }

  study.sessions.reserve(mixes.size());
  const std::uint32_t replicates = resolve_replicates(config);
  const std::size_t tasks = mixes.size() * replicates;
  const std::uint32_t threads = resolve_threads(config);
  if (threads <= 1 || tasks <= 1) {
    for (std::size_t i = 0; i < mixes.size(); ++i) {
      study.sessions.push_back(run_session(mixes[i], config, seeds[i]));
    }
  } else {
    // Each (session, replicate) task owns its independent os::System; the
    // only shared state is the read-only mixes/config. Futures are
    // collected in (mix, replicate) order, so the merge arithmetic — and
    // therefore every bit of the result — matches the serial path.
    base::ThreadPool pool(std::min<std::size_t>(threads, tasks));
    std::vector<std::future<SessionPart>> futures;
    futures.reserve(tasks);
    for (std::size_t i = 0; i < mixes.size(); ++i) {
      for (std::uint32_t r = 0; r < replicates; ++r) {
        futures.push_back(
            pool.submit([&mixes, &config, &seeds, i, r, replicates] {
              return run_replicate(mixes[i], config,
                                   replicate_seed(seeds[i], r),
                                   replicate_samples(config, r, replicates));
            }));
      }
    }
    for (std::size_t i = 0; i < mixes.size(); ++i) {
      std::vector<SessionPart> parts;
      parts.reserve(replicates);
      for (std::uint32_t r = 0; r < replicates; ++r) {
        parts.push_back(futures[i * replicates + r].get());
      }
      study.sessions.push_back(merge_parts(mixes[i], std::move(parts)));
    }
  }
  for (const SessionResult& session : study.sessions) {
    study.totals.merge(session.totals);
    study.ff.skipped_cycles += session.ff.skipped_cycles;
    study.ff.naive_cycles += session.ff.naive_cycles;
    study.ff.block_cycles += session.ff.block_cycles;
    study.ff.jumps += session.ff.jumps;
  }
  const std::uint32_t width =
      study.sessions.empty() ? kMaxCes
                             : study.sessions.front().overall.width;
  study.overall = ConcurrencyMeasures::from_counts(
      std::span(study.totals.num).first(width + 1));
  return study;
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
  io.u32(config.threads);
  io.boolean(config.fast_forward);
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
