// ResultStore robustness: the store may only ever MISS, never return a
// wrong or stale answer. Every corruption in the matrix — truncation,
// tampering, version skew, foreign blobs, stale code salt, racing
// writers — must degrade to a clean miss that the caller resolves by
// recomputing.
#include "artifacts/result_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "artifacts/artifact.hpp"
#include "base/capsule.hpp"
#include "base/rng.hpp"
#include "core/run.hpp"
#include "core/study.hpp"
#include "core/transition.hpp"
#include "workload/presets.hpp"

namespace repro::artifacts {
namespace {

namespace fs = std::filesystem;

class ResultStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("result_store_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()->name()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  static std::vector<std::uint8_t> payload(std::initializer_list<int> bytes) {
    std::vector<std::uint8_t> out;
    for (const int b : bytes) {
      out.push_back(static_cast<std::uint8_t>(b));
    }
    return out;
  }

  /// Overwrite the blob file for `key` with raw bytes (bypassing seal).
  void scribble(const ResultStore& store, std::uint64_t key,
                const std::string& bytes) {
    std::ofstream out(store.object_path(key), std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

TEST_F(ResultStoreTest, PutThenGetRoundTrips) {
  ResultStore store(dir_.string());
  const auto body = payload({1, 2, 3, 4, 5});
  store.put(0xABCDEF01, body);
  const auto got = store.get(0xABCDEF01);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, body);
  EXPECT_EQ(store.stats().puts, 1u);
  EXPECT_EQ(store.stats().hits, 1u);
  EXPECT_EQ(store.stats().misses, 0u);
  EXPECT_GT(store.stats().bytes_written, 0u);
  EXPECT_GT(store.stats().bytes_read, 0u);
}

TEST_F(ResultStoreTest, AbsentKeyIsAMiss) {
  ResultStore store(dir_.string());
  EXPECT_FALSE(store.get(0x1111).has_value());
  EXPECT_EQ(store.stats().misses, 1u);
  EXPECT_EQ(store.stats().corrupt_misses, 0u);
  EXPECT_EQ(store.stats().bytes_read, 0u);
}

TEST_F(ResultStoreTest, ResultsSurviveReopen) {
  const auto body = payload({9, 8, 7});
  {
    ResultStore store(dir_.string());
    store.put(0x2222, body);
  }
  ResultStore reopened(dir_.string());
  const auto got = reopened.get(0x2222);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, body);
}

TEST_F(ResultStoreTest, BlobsPutThroughAnotherStoreAreServed) {
  // Two stores open one directory (two processes sharing a cache). What
  // either puts is on disk, so a fresh store serves both.
  const auto k = payload({1, 1});
  const auto j = payload({2, 2});
  ResultStore a(dir_.string());
  ResultStore b(dir_.string());
  b.put(0xC0DE, k);
  a.put(0xD0DE, j);
  ResultStore fresh(dir_.string());
  const auto got_k = fresh.get(0xC0DE);
  const auto got_j = fresh.get(0xD0DE);
  ASSERT_TRUE(got_k.has_value());
  ASSERT_TRUE(got_j.has_value());
  EXPECT_EQ(*got_k, k);
  EXPECT_EQ(*got_j, j);
  EXPECT_EQ(fresh.stats().misses, 0u);
}

TEST_F(ResultStoreTest, TruncatedBlobIsACleanMissAndIsRemoved) {
  ResultStore store(dir_.string());
  store.put(0x3333, payload({1, 2, 3, 4, 5, 6, 7, 8}));
  // Chop the sealed file in half: the envelope size/digest check fails.
  const std::string path = store.object_path(0x3333);
  const auto size = fs::file_size(path);
  fs::resize_file(path, size / 2);
  EXPECT_FALSE(store.get(0x3333).has_value());
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
  EXPECT_FALSE(fs::exists(path)) << "corrupt blob should be deleted";
  // And the key now misses like any absent key.
  EXPECT_FALSE(store.get(0x3333).has_value());
}

TEST_F(ResultStoreTest, TamperedBlobIsACleanMiss) {
  ResultStore store(dir_.string());
  store.put(0x4444, payload({10, 20, 30, 40}));
  const std::string path = store.object_path(0x4444);
  // Flip one payload byte in place: the envelope digest catches it.
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(-3, std::ios::end);
  char byte;
  file.read(&byte, 1);
  file.seekp(-3, std::ios::end);
  byte = static_cast<char>(byte ^ 0x5A);
  file.write(&byte, 1);
  file.close();
  EXPECT_FALSE(store.get(0x4444).has_value());
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST_F(ResultStoreTest, GarbageBlobIsACleanMiss) {
  ResultStore store(dir_.string());
  store.put(0x5555, payload({1}));
  scribble(store, 0x5555, "not a capsule at all");
  EXPECT_FALSE(store.get(0x5555).has_value());
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST_F(ResultStoreTest, ForeignKeyEchoIsACleanMiss) {
  // A blob renamed (or hash-collided) onto another key's path fails the
  // inner key-echo check even though its envelope is perfectly sealed.
  ResultStore store(dir_.string());
  store.put(0x6666, payload({42}));
  fs::copy_file(store.object_path(0x6666), store.object_path(0x7777));
  EXPECT_FALSE(store.get(0x7777).has_value());
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
  // The original is untouched.
  EXPECT_TRUE(store.get(0x6666).has_value());
}

TEST_F(ResultStoreTest, WrongEnvelopeVersionIsACleanMiss) {
  // Seal a valid-looking blob, then bump the envelope's format-version
  // field (byte 8, after the 8-byte magic): unseal must reject it.
  ResultStore store(dir_.string());
  store.put(0x8888, payload({1, 2, 3}));
  const std::string path = store.object_path(0x8888);
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekp(8);
  const char bumped = 99;
  file.write(&bumped, 1);
  file.close();
  EXPECT_FALSE(store.get(0x8888).has_value());
  EXPECT_EQ(store.stats().corrupt_misses, 1u);
}

TEST_F(ResultStoreTest, UnwritableDirectoryCountsPutErrors) {
  ResultStore store(dir_.string());
  fs::remove_all(dir_ / "objects");  // Yank the rug out from under put().
  store.put(0xBBBB, payload({1}));
  EXPECT_EQ(store.stats().puts, 0u);
  EXPECT_GE(store.stats().put_errors, 1u);
}

TEST_F(ResultStoreTest, ConcurrentPutsOfOneKeyPublishWhole) {
  // Three writers put one key at once, each through its own store (as
  // processes sharing a cache directory do, or duplicate ids in one
  // catalog), while a reader reads it. Every put must publish a whole
  // blob: none fails, and the reader never sees a torn one.
  constexpr std::uint64_t kKey = 0xF00D;
  constexpr int kWriters = 3;
  constexpr int kPuts = 100;
  constexpr std::size_t kBytes = 256 * 1024;
  std::vector<std::unique_ptr<ResultStore>> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.push_back(std::make_unique<ResultStore>(dir_.string()));
  }
  ResultStore reader(dir_.string());
  std::atomic<int> ready{0};
  std::atomic<int> running{kWriters};
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < writers.size(); ++w) {
    threads.emplace_back([&, w] {
      const std::vector<std::uint8_t> body(kBytes,
                                           static_cast<std::uint8_t>(w + 1));
      ++ready;
      while (ready < kWriters) {  // Start the writers together.
      }
      for (int i = 0; i < kPuts; ++i) {
        writers[w]->put(kKey, body);
      }
      --running;
    });
  }
  while (running > 0) {
    if (const auto got = reader.get(kKey)) {
      // One writer's whole body: the right size, and one byte throughout.
      EXPECT_TRUE(got->size() == kBytes &&
                  std::count(got->begin(), got->end(), got->front()) ==
                      static_cast<std::ptrdiff_t>(kBytes));
    }
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const auto& writer : writers) {
    EXPECT_EQ(writer->stats().puts, static_cast<std::uint64_t>(kPuts));
    EXPECT_EQ(writer->stats().put_errors, 0u);
  }
  EXPECT_EQ(reader.stats().corrupt_misses, 0u);
  EXPECT_TRUE(reader.get(kKey).has_value());
  // Every temp file was renamed into place: only the blob is left.
  EXPECT_EQ(std::distance(fs::directory_iterator(dir_ / "objects"),
                          fs::directory_iterator()),
            1);
}

// --- Key derivation ---------------------------------------------------

/// The store keys of a study's runs: a study is stored as its runs.
std::vector<std::uint64_t> study_keys(
    const core::StudyConfig& config,
    std::span<const workload::WorkloadMix> mixes) {
  std::vector<std::uint64_t> keys;
  for (const core::RunSpec& spec : core::study_specs(mixes, config)) {
    keys.push_back(run_cache_key(spec));
  }
  return keys;
}

std::vector<std::uint64_t> study_keys(const core::StudyConfig& config) {
  return study_keys(config, workload::session_presets());
}

std::uint64_t transition_key(const core::TransitionConfig& config) {
  return run_cache_key(
      core::transition_spec(workload::high_concurrency_mix(), config));
}

TEST(CacheKeys, StaleCodeSaltChangesEveryKey) {
  const core::StudyConfig config;
  const core::RunSpec spec =
      core::study_specs(workload::session_presets(), config).front();
  EXPECT_NE(run_cache_key(spec, kCodeSalt), run_cache_key(spec, kCodeSalt + 1));
  const core::TransitionConfig transition;
  EXPECT_NE(artifact_cache_key("fig3", config, transition, false, kCodeSalt),
            artifact_cache_key("fig3", config, transition, false,
                               kCodeSalt + 1));
}

TEST(CacheKeys, EveryStudyConfigFieldChangesTheKey) {
  // A field that decides results changes every study run's key and the
  // artifact key. The perf-only knobs (threads, fast_forward,
  // sampling.fast_forward), which StudyOracle proves change nothing but
  // the fast-forward bookkeeping, keep both.
  const core::StudyConfig base;
  const core::TransitionConfig transition;
  const std::vector<std::uint64_t> keys = study_keys(base);
  const std::uint64_t artifact =
      artifact_cache_key("table2", base, transition, false);
  const auto changes = [&](auto&& mutate) {
    core::StudyConfig config = base;
    mutate(config);
    const std::vector<std::uint64_t> mutated = study_keys(config);
    const bool artifact_changed =
        artifact_cache_key("table2", config, transition, false) != artifact;
    bool every_run_changed = true;
    for (std::size_t i = 0; i < keys.size() && i < mutated.size(); ++i) {
      every_run_changed = every_run_changed && mutated[i] != keys[i];
    }
    EXPECT_EQ(every_run_changed, artifact_changed);
    return artifact_changed || mutated != keys;
  };
  EXPECT_TRUE(changes([](auto& c) { c.samples_per_session += 1; }));
  EXPECT_TRUE(changes([](auto& c) { c.warmup_cycles += 1; }));
  EXPECT_TRUE(changes([](auto& c) { c.seed += 1; }));
  EXPECT_FALSE(changes([](auto& c) { c.threads += 1; }));
  EXPECT_FALSE(changes([](auto& c) { c.fast_forward = !c.fast_forward; }));
  EXPECT_TRUE(changes([](auto& c) { c.sampling.interval_cycles += 1; }));
  EXPECT_TRUE(changes([](auto& c) { c.sampling.snapshots_per_sample += 1; }));
  EXPECT_TRUE(changes([](auto& c) { c.sampling.buffer_depth += 1; }));
  EXPECT_FALSE(changes([](auto& c) {
    c.sampling.fast_forward = !c.sampling.fast_forward;
  }));
  EXPECT_TRUE(changes([](auto& c) { c.system.machine.n_ips += 1; }));
  EXPECT_TRUE(changes([](auto& c) { c.system.machine.seed += 1; }));
  // The machine's shape: every field keys (a width-16 run must never
  // serve a width-8 blob and vice versa).
  EXPECT_TRUE(changes([](auto& c) { c.system.machine.n_clusters += 1; }));
  EXPECT_TRUE(changes([](auto& c) { c.system.machine.cluster.n_ces -= 1; }));
  EXPECT_TRUE(
      changes([](auto& c) { c.system.machine.shared_cache.banks *= 2; }));
  EXPECT_TRUE(changes([](auto& c) { c.system.machine.membus.bus_count += 1; }));
  EXPECT_TRUE(changes([](auto& c) { c.system.vm.fault_service_cycles += 1; }));
  EXPECT_TRUE(changes([](auto& c) {
    c.system.scheduling = os::SchedulingPolicy::kConcurrentFirst;
  }));
  // And the identity mutation does NOT change the keys (determinism).
  EXPECT_FALSE(changes([](auto&) {}));
}

TEST(CacheKeys, EveryContentionMixFieldChangesTheStudyKey) {
  // Run keys fold the session mixes: a run stored for one contention
  // configuration must never be served for another. One mutation per
  // WorkloadMix contention field.
  const core::StudyConfig config;
  const std::vector<workload::WorkloadMix> mixes = {
      workload::lock_contention_mix(workload::LockType::kTicket)};
  const std::vector<std::uint64_t> key = study_keys(config, mixes);
  ASSERT_EQ(key.size(), 1u);
  const auto mutated = [&](auto&& mutate) {
    auto copy = mixes;
    mutate(copy[0]);
    return study_keys(config, copy);
  };
  EXPECT_NE(key, mutated([](auto& m) { m.contention_job_fraction -= 0.5; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.rcu_fraction += 0.5; }));
  EXPECT_NE(key, mutated([](auto& m) {
              m.contention.lock.lock = workload::LockType::kMcs;
            }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.lock.contenders -= 1; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.lock.min_rounds += 1; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.lock.max_rounds += 1; }));
  EXPECT_NE(key,
            mutated([](auto& m) { m.contention.lock.critical_steps += 1; }));
  EXPECT_NE(key,
            mutated([](auto& m) { m.contention.lock.parallel_steps += 1; }));
  EXPECT_NE(key, mutated([](auto& m) {
              m.contention.lock.ticket_handoff_steps += 1;
            }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.rcu.readers -= 1; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.rcu.min_rounds += 1; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.rcu.max_rounds += 1; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.rcu.reader_steps += 1; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.rcu.writer_steps += 1; }));
  EXPECT_NE(key, mutated([](auto& m) { m.contention.rcu.writer_every += 1; }));
  // The identity mutation keeps the key. A second mix adds a run and
  // draws the next session seed, so the key set is not merely extended.
  EXPECT_EQ(key, mutated([](auto&) {}));
  const std::vector<workload::WorkloadMix> two = {mixes[0], mixes[0]};
  const std::vector<std::uint64_t> keys_two = study_keys(config, two);
  ASSERT_EQ(keys_two.size(), 2u);
  EXPECT_EQ(keys_two[0], key[0]);
  EXPECT_NE(keys_two[1], key[0]);
}

TEST(CacheKeys, EveryTransitionConfigFieldChangesTheKey) {
  const core::TransitionConfig base;
  const std::uint64_t key = transition_key(base);
  const auto mutated = [&](auto&& mutate) {
    core::TransitionConfig config = base;
    mutate(config);
    return transition_key(config);
  };
  EXPECT_NE(key, mutated([](auto& c) { c.captures += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.capture_timeout += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.warmup_cycles += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.seed += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.sampling.buffer_depth += 1; }));
  EXPECT_NE(key, mutated([](auto& c) { c.system.machine.seed += 1; }));
  EXPECT_EQ(key, mutated([](auto&) {}));
  // The trigger mode keys too: the same config under another trigger is
  // another run.
  EXPECT_NE(key, run_cache_key(core::transition_spec(
                     workload::high_concurrency_mix(), base,
                     instr::TriggerMode::kAllActive)));
}

TEST(CacheKeys, ArtifactKeysSeparateIdQuickAndKind) {
  const core::StudyConfig study;
  const core::TransitionConfig transition;
  const std::uint64_t fig3 =
      artifact_cache_key("fig3", study, transition, false);
  EXPECT_NE(fig3, artifact_cache_key("fig4", study, transition, false));
  EXPECT_NE(fig3, artifact_cache_key("fig3", study, transition, true));
  // Different result kinds never share a key even over the same config
  // (the kind tag is hashed in).
  for (const std::uint64_t key : study_keys(study)) {
    EXPECT_NE(key, fig3);
  }
  EXPECT_NE(transition_key(transition), fig3);
}

// --- Result blob encode/decode ----------------------------------------

/// A short run with samples, captures and a trace: every RunResult field
/// is nonzero somewhere.
core::RunResult small_run() {
  core::RunSpec spec;
  spec.mix = workload::high_concurrency_mix();
  spec.sampling.interval_cycles = 15000;
  spec.generator_seed = 7;
  spec.controller_seed = 11;
  spec.warmup_cycles = 3000;
  spec.capture_mode = instr::TriggerMode::kTransitionFromFull;
  spec.captures = 1;
  spec.capture_timeout = 300000;
  spec.samples = 2;
  spec.trace_overlap = true;
  return core::run(spec);
}

TEST(ResultBlobs, RunResultRoundTrips) {
  core::RunResult result = small_run();
  ASSERT_EQ(result.samples.size(), 2u);
  ASSERT_GT(result.captures_completed, 0u);
  // Distinct nonzero values in the fields this short run leaves at zero,
  // so a field the walk skipped cannot come back equal by default.
  result.captures_timed_out = 3;
  result.clusters = 5;
  result.jobs_completed = 7;
  result.total_wait_cycles = 11;
  result.fabric_conflicts = 13;
  result.trace_cw = 0.25;
  result.trace_pc = 2.5;
  result.trace_jobs = 17;
  const auto blob = encode_result(result);
  const auto back = decode_result<core::RunResult>(blob);
  ASSERT_EQ(back.samples.size(), result.samples.size());
  for (std::size_t i = 0; i < result.samples.size(); ++i) {
    EXPECT_EQ(encode_result(back.samples[i]), encode_result(result.samples[i]));
  }
  EXPECT_EQ(encode_result(back.totals), encode_result(result.totals));
  EXPECT_EQ(back.captures_completed, result.captures_completed);
  EXPECT_EQ(back.captures_timed_out, result.captures_timed_out);
  EXPECT_EQ(back.state_counts, result.state_counts);
  EXPECT_EQ(back.processor_counts, result.processor_counts);
  EXPECT_EQ(encode_result(back.captured), encode_result(result.captured));
  EXPECT_EQ(encode_result(back.ff), encode_result(result.ff));
  EXPECT_EQ(back.width, result.width);
  EXPECT_EQ(back.clusters, result.clusters);
  EXPECT_EQ(back.jobs_completed, result.jobs_completed);
  EXPECT_EQ(back.total_wait_cycles, result.total_wait_cycles);
  EXPECT_EQ(back.fabric_conflicts, result.fabric_conflicts);
  EXPECT_EQ(back.now, result.now);
  EXPECT_EQ(back.trace_cw, result.trace_cw);
  EXPECT_EQ(back.trace_pc, result.trace_pc);
  EXPECT_EQ(back.trace_events, result.trace_events);
  EXPECT_EQ(back.trace_jobs, result.trace_jobs);
  EXPECT_EQ(encode_result(back), blob);
}

TEST(ResultBlobs, TrailingBytesAreAShapeMismatch) {
  core::RunResult result;
  auto blob = encode_result(result);
  blob.push_back(0);  // One stray byte: the walk must not silently pass.
  EXPECT_THROW(static_cast<void>(decode_result<core::RunResult>(blob)),
               capsule::CapsuleError);
}

TEST(ResultBlobs, ShortPayloadIsAShapeMismatch) {
  core::RunResult result;
  auto blob = encode_result(result);
  blob.resize(blob.size() / 2);
  EXPECT_THROW(static_cast<void>(decode_result<core::RunResult>(blob)),
               capsule::CapsuleError);
}

// A width past kMaxTopologyCes would send Table 2's render (and every
// fold) past the end of the c/num arrays: loading it must throw.
TEST(ResultBlobs, MeasuresWiderThanTheWidestTopologyThrow) {
  core::ConcurrencyMeasures measures;
  measures.width = 1000;
  EXPECT_THROW(static_cast<void>(decode_result<core::ConcurrencyMeasures>(
                   encode_result(measures))),
               capsule::CapsuleError);
  measures.width = kMaxTopologyCes;
  EXPECT_NO_THROW(static_cast<void>(decode_result<core::ConcurrencyMeasures>(
      encode_result(measures))));
}

TEST(ResultBlobs, EventCountsWiderThanTheWidestTopologyThrow) {
  instr::EventCounts counts;
  counts.width = 1000;
  EXPECT_THROW(static_cast<void>(
                   decode_result<instr::EventCounts>(encode_result(counts))),
               capsule::CapsuleError);
  counts.width = kMaxTopologyCes;
  EXPECT_NO_THROW(static_cast<void>(
      decode_result<instr::EventCounts>(encode_result(counts))));
}

TEST(ResultBlobs, RunWidthsOutsideTheTopologyRangeThrow) {
  for (const std::uint32_t bad : {0u, kMaxTopologyCes + 1, 1000u}) {
    core::RunResult result;
    result.width = bad;
    EXPECT_THROW(static_cast<void>(
                     decode_result<core::RunResult>(encode_result(result))),
                 capsule::CapsuleError)
        << bad;
    result.width = kMaxCes;
    result.clusters = bad;
    EXPECT_THROW(static_cast<void>(
                     decode_result<core::RunResult>(encode_result(result))),
                 capsule::CapsuleError)
        << bad;
  }
}

// --- Crafted blobs ----------------------------------------------------
//
// Seeded mutants in the style of CapsuleFuzz: a bit flip, a truncation,
// or a small little-endian u64 (the likely element count) pushed past
// 2^40. Raw mutants damage the sealed file as it lies on disk; re-sealed
// ones edit the payload and seal it again, so they pass the envelope and
// header checks and reach the decode walk.

std::vector<std::uint8_t> mutate(std::vector<std::uint8_t> bytes, Rng& rng,
                                 std::size_t from) {
  const std::size_t at = from + rng.uniform(bytes.size() - from - 8);
  switch (rng.uniform(3)) {
    case 0:
      bytes[at] ^= static_cast<std::uint8_t>(1u << rng.uniform(8));
      break;
    case 1:
      bytes.resize(at);
      break;
    default:
      for (std::size_t c = at; c < at + 4096 && c + 8 < bytes.size(); ++c) {
        if (bytes[c] != 0 && std::all_of(&bytes[c + 2], &bytes[c + 8],
                                         [](auto b) { return b == 0; })) {
          bytes[c + 5] = 1;
          break;
        }
      }
  }
  return bytes;
}

void write_bytes(const fs::path& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Every width a RunResult carries is one a fold may index by.
bool in_range(const core::RunResult& run) {
  const auto ok = [](std::uint32_t width) {
    return width >= 1 && width <= kMaxTopologyCes;
  };
  bool all = ok(run.width) && ok(run.clusters) && ok(run.totals.width) &&
             ok(run.captured.width);
  for (const core::AnalyzedSample& sample : run.samples) {
    all = all && ok(sample.raw.hw.width) && ok(sample.measures.width);
  }
  return all;
}

/// An artifact blob with text, metrics, and both kinds of check.
ArtifactResult small_artifact() {
  ArtifactResult result;
  result.id = "table2";
  result.status = ArtifactStatus::kToleranceFailed;
  result.text = "Table 2. Concurrency measures\n  Cw 0.7560  Pc 7.77\n";
  result.metrics = {{"cw", 0.756}, {"pc", 7.77}};
  result.checks = {{"cw", 0.756, 0.70, 0.65, 0.75, false, true},
                   {"pc", 7.77, 7.5, 7.0, 8.0, true, false}};
  return result;
}

class ResultFuzz : public ResultStoreTest {
 protected:
  struct Outcomes {
    int misses = 0;
    int throws = 0;
    int decoded = 0;
  };

  /// Each mutant of `value`'s blob must miss, throw CapsuleError on
  /// decode, or decode to a result (for a run, with every width in range)
  /// that re-encodes to exactly the bytes it came from.
  template <typename T>
  Outcomes fuzz_blobs(const T& value, bool raw, std::uint64_t seed);
};

template <typename T>
ResultFuzz::Outcomes ResultFuzz::fuzz_blobs(const T& value, bool raw,
                                            std::uint64_t seed) {
  ResultStore store(dir_.string());
  const std::vector<std::uint8_t> payload = encode_result(value);
  constexpr std::uint64_t kKey = 0x5EED;
  store.put(kKey, payload);
  const std::vector<std::uint8_t> sealed =
      capsule::read_file(store.object_path(kKey));
  // The sealed file's payload: key echo, store version, result.
  const std::vector<std::uint8_t> framed = capsule::unseal(sealed);
  EXPECT_EQ(framed.size(), payload.size() + 12);

  Rng rng(seed);
  Outcomes outcomes;
  for (int i = 0; i < 150; ++i) {
    // An inflation that finds no count to inflate leaves the bytes as
    // they were; draw again until the mutant differs.
    std::vector<std::uint8_t> mutant;
    do {
      mutant = raw ? mutate(sealed, rng, 0)
                   : capsule::seal(mutate(framed, rng, 12));
    } while (mutant == sealed);
    write_bytes(store.object_path(kKey), mutant);
    const auto got = store.get(kKey);
    if (!got) {
      ++outcomes.misses;
      continue;
    }
    try {
      const T decoded = decode_result<T>(*got);
      if constexpr (std::is_same_v<T, core::RunResult>) {
        EXPECT_TRUE(in_range(decoded)) << "mutant " << i;
      }
      EXPECT_EQ(encode_result(decoded), *got) << "mutant " << i;
      ++outcomes.decoded;
    } catch (const capsule::CapsuleError&) {
      ++outcomes.throws;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what();
    }
  }
  return outcomes;
}

TEST_F(ResultFuzz, RawRunBlobsMiss) {
  // The envelope digest catches every damaged file.
  EXPECT_EQ(fuzz_blobs(small_run(), /*raw=*/true, 0xB10B).misses, 150);
}

TEST_F(ResultFuzz, ResealedRunBlobsThrowOrDecodeInRange) {
  const Outcomes outcomes = fuzz_blobs(small_run(), /*raw=*/false, 0xB10C);
  EXPECT_EQ(outcomes.misses, 0);   // Sealed and framed: the walk is reached.
  EXPECT_GT(outcomes.decoded, 0);  // Flips in plain counters decode...
  EXPECT_GT(outcomes.throws, 0);   // ...truncations and inflations do not.
}

TEST_F(ResultFuzz, RawArtifactBlobsMiss) {
  EXPECT_EQ(fuzz_blobs(small_artifact(), /*raw=*/true, 0xA27B).misses, 150);
}

TEST_F(ResultFuzz, ResealedArtifactBlobsThrowOrDecodeExact) {
  const Outcomes outcomes =
      fuzz_blobs(small_artifact(), /*raw=*/false, 0xA27C);
  EXPECT_EQ(outcomes.misses, 0);
  EXPECT_GT(outcomes.decoded, 0);  // Flips in text and values decode...
  EXPECT_GT(outcomes.throws, 0);   // ...truncations and inflations do not.
}

}  // namespace
}  // namespace repro::artifacts
