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
//   key = digest( kind tag · code salt · canonical config walk )
//
// where digest is the FNV-1a capsule digester (capsule::Io::digester(),
// the hash core::run_key already uses for a run's identity) and a run's
// canonical walk is its core::run_key digest. The walk covers every
// config field that decides results, so any such change misses the
// cache. The perf-only knobs (`threads`, `fast_forward`) are left out:
// the differential oracle proves they do not change results, so a
// --threads 4 run reuses a --threads 1 entry.
// The code salt folds the capsule format version, the store format
// version, and a manually bumped kCodeVersion; bumping any of them
// orphans every old key (a clean miss, never a stale hit).
//
// Robustness contract: the store can only ever *miss*, never return a
// wrong answer. A truncated, tampered, wrong-version, or stale-salt blob
// fails the envelope or header checks, is counted in CacheStats, deleted
// when possible, and recomputed.
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

/// Store directory format version: the directory layout, the envelope
/// laid around blobs, and the key derivation. Bump on any change to them.
/// v2: the negative-cache sidecar is gone, and keys are capsule digests
/// with no separate system-config digest folded in.
inline constexpr std::uint32_t kStoreFormatVersion = 2;

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
/// v7: a capture run's fast-forward accounting counts its capture cycles
/// as naive.
/// v8: the activity histograms list rows width..0 only, not one row per
/// bin of the widest topology.
/// v9: acquisitions are counted inside blocks, not lockstep-latched, so a
/// run's fast-forward split moves (the jumps moved it once before
/// without a bump).
inline constexpr std::uint32_t kCodeVersion = 9;

/// The salt walked into every key.
inline constexpr std::uint64_t kCodeSalt =
    (static_cast<std::uint64_t>(kCodeVersion) << 40) |
    (static_cast<std::uint64_t>(kStoreFormatVersion) << 20) |
    static_cast<std::uint64_t>(capsule::kFormatVersion);

/// Hit/miss accounting, reported in the fx8bench JSON (`cache` object)
/// and by --cache-stats.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;          ///< Includes corrupt blobs.
  std::uint64_t corrupt_misses = 0;  ///< Blobs rejected by envelope/header.
  std::uint64_t puts = 0;
  std::uint64_t put_errors = 0;  ///< Failed blob writes (read-only dir, ...).
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
};

class ResultStore {
 public:
  /// Opens (creating if needed) the store at `dir`. Layout:
  ///   <dir>/objects/<16-hex-key>.blob   sealed result blobs
  /// Throws capsule::CapsuleError if the directory cannot be created.
  explicit ResultStore(std::string dir);

  [[nodiscard]] const std::string& dir() const { return dir_; }

  /// The unsealed result payload for `key`, or nullopt on any kind of
  /// miss (absent, truncated, tampered, wrong version, foreign key).
  [[nodiscard]] std::optional<std::vector<std::uint8_t>> get(
      std::uint64_t key);

  /// Store `payload` under `key`: written to a temp file of this put's
  /// own, then renamed into place, so racing writers of one key each
  /// publish a whole blob. Failures are counted, never thrown.
  void put(std::uint64_t key, const std::vector<std::uint8_t>& payload);

  /// A snapshot of the counters.
  [[nodiscard]] CacheStats stats() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
  }

  [[nodiscard]] std::string object_path(std::uint64_t key) const;

 private:
  std::string dir_;
  /// Guards stats_: concurrent renders get and put from pool workers.
  /// Blob files are read and written outside it; each key has its own
  /// file and publishes by rename.
  mutable std::mutex mutex_;
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
