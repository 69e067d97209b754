// Persistent content-addressed result store: incremental fx8bench.
//
// Every sampled run (core::RunSpec) and every rendered artifact of the
// reproduction is a deterministic function of its config, so its result
// can be addressed by a 64-bit content hash of that config and reused
// across processes. The store maps such a key to a sealed
// capsule-envelope blob (base/capsule.hpp) holding a serialized
// core::RunResult or ArtifactResult. A warm `fx8bench --all` re-renders
// only the artifacts whose blobs are gone, and replays their runs from
// the run blobs.
//
// Key derivation (docs/benchmarks.md, "The result cache"):
//
//   key = fasthash( kind tag · code salt · config fingerprint ·
//                   canonical config walk , seed = code salt )
//
// where a run's canonical walk is its core::run_key digest. The walk
// covers every config field that decides results, so any such change
// misses the cache. The perf-only knobs (`threads`, `fast_forward`) are
// left out: the differential oracle proves they do not change results,
// so a --threads 4 run reuses a --threads 1 entry.
// The code salt folds the capsule format version, the store format
// version, and a manually bumped kCodeVersion; bumping any of them
// orphans every old key (a clean miss, never a stale hit).
//
// Robustness contract: the store can only ever *miss*, never return a
// wrong answer. A truncated, tampered, wrong-version, or stale-salt blob
// fails the envelope or header checks, is counted in CacheStats, deleted
// when possible, and recomputed. A missing or corrupt bloom sidecar is
// rebuilt from the object directory.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "base/capsule.hpp"
#include "core/run.hpp"
#include "core/study.hpp"
#include "core/transition.hpp"

namespace repro::artifacts {

/// Store directory format version: the envelope laid around blobs and
/// the bloom sidecar. Bump on layout changes.
inline constexpr std::uint32_t kStoreFormatVersion = 1;

/// Manually bumped experiment-semantics version. Bump whenever simulator
/// or artifact-render changes alter what any config would produce — the
/// cheap, honest alternative to hashing the binary. Folded into every
/// key, so a stale store degrades to a full miss.
/// v3: study keys fold the session workload mixes (the contention
/// family made mixes an experimental axis a key must cover).
/// v4: the study-config key walk lost its rig-batch width field.
/// v5: the key walks lost the perf-only knobs (threads, fast_forward).
/// v6: the store caches runs (run-result/1) instead of whole studies and
/// transitions.
inline constexpr std::uint32_t kCodeVersion = 6;

/// The salt every key is seeded with.
inline constexpr std::uint64_t kCodeSalt =
    (static_cast<std::uint64_t>(kCodeVersion) << 40) |
    (static_cast<std::uint64_t>(kStoreFormatVersion) << 20) |
    static_cast<std::uint64_t>(capsule::kFormatVersion);

/// Hit/miss accounting, reported in the fx8bench JSON (`cache` object)
/// and by --cache-stats.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;        ///< Includes bloom skips and corrupt blobs.
  std::uint64_t bloom_skips = 0;   ///< Misses resolved without touching disk.
  std::uint64_t corrupt_misses = 0;  ///< Blobs rejected by envelope/header.
  std::uint64_t puts = 0;
  std::uint64_t put_errors = 0;    ///< Failed blob writes (read-only dir, ...).
  /// Failed bloom-sidecar writes. Counted separately from put_errors:
  /// a lost sidecar never loses the blob (it is rebuilt from the object
  /// directory on reopen), and save_bloom also runs on reopen-rebuild,
  /// where no put is in flight to blame.
  std::uint64_t bloom_save_errors = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

/// Membership bloom over every key ever put: if it says "absent" the key
/// is definitely not stored and the open/stat path is skipped (the
/// negative cache of SNIPPETS 1-2). False positives cost one failed
/// open; false negatives cannot occur for keys inserted through this
/// process, and a stale sidecar only costs a spurious recompute.
class BloomFilter {
 public:
  static constexpr std::uint32_t kBits = 1u << 16;  // 8 KiB of bits.
  static constexpr int kProbes = 4;

  void insert(std::uint64_t key);
  [[nodiscard]] bool maybe_contains(std::uint64_t key) const;

  /// Capsule walk for the persisted sidecar.
  void serialize(capsule::Io& io);

 private:
  std::vector<std::uint8_t> bits_ = std::vector<std::uint8_t>(kBits / 8, 0);
};

class ResultStore {
 public:
  /// Opens (creating if needed) the store at `dir`. Layout:
  ///   <dir>/objects/<16-hex-key>.blob   sealed result blobs
  ///   <dir>/bloom.bin                   sealed bloom sidecar
  /// Throws capsule::CapsuleError if the directory cannot be created.
  explicit ResultStore(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// The unsealed result payload for `key`, or nullopt on any kind of
  /// miss (absent, truncated, tampered, wrong version, foreign key).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> get(
      std::uint64_t key);

  /// Store `payload` under `key` (tmp-file + rename; failures are
  /// counted, never thrown) and persist the updated bloom.
  void put(std::uint64_t key, const std::vector<std::uint8_t>& payload);

  /// A snapshot of the counters.
  [[nodiscard]] CacheStats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  [[nodiscard]] std::string object_path(std::uint64_t key) const;

 private:
  void load_or_rebuild_bloom();
  /// Requires mutex_ held (or no other thread yet, as in the ctor).
  void save_bloom();

  std::string dir_;
  /// Guards bloom_, stats_ and the sidecar save: concurrent renders get
  /// and put from pool workers. Blob files are read and written outside
  /// it; each key has its own file and publishes by rename.
  mutable std::mutex mutex_;
  BloomFilter bloom_;
  CacheStats stats_;
};

// --- Key derivation ---------------------------------------------------

/// Key of one sampled run: core::run_key(spec), which walks every field
/// that decides the run's result, salted.
[[nodiscard]] std::uint64_t run_cache_key(const core::RunSpec& spec,
                                          std::uint64_t salt = kCodeSalt);

/// Key of one rendered artifact: its id plus both shared configs plus
/// the quick flag (which also scales artifact-private populations).
[[nodiscard]] std::uint64_t artifact_cache_key(
    const std::string& id, const core::StudyConfig& study,
    const core::TransitionConfig& transition, bool quick,
    std::uint64_t salt = kCodeSalt);

// --- Result blobs -----------------------------------------------------

/// Serialize a result (anything with a capsule `serialize` walk) into a
/// store payload.
template <typename T>
[[nodiscard]] std::vector<std::uint8_t> encode_result(const T& value) {
  capsule::Io io = capsule::Io::saver();
  T copy = value;  // The walk is mode-agnostic and takes a mutable ref.
  copy.serialize(io);
  return io.bytes();
}

/// Decode a store payload back into a result. Throws
/// capsule::CapsuleError on shape mismatch (callers treat it as a miss).
template <typename T>
[[nodiscard]] T decode_result(std::vector<std::uint8_t> payload) {
  capsule::Io io = capsule::Io::loader(std::move(payload));
  T value;
  value.serialize(io);
  if (!io.exhausted()) {
    throw capsule::CapsuleError("result capsule: trailing bytes");
  }
  return value;
}

}  // namespace repro::artifacts
