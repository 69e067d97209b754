#include "artifacts/result_store.hpp"

#include <cstdio>
#include <filesystem>
#include <functional>
#include <system_error>
#include <utility>

#include "base/fasthash.hpp"
#include "os/system.hpp"

namespace repro::artifacts {

namespace fs = std::filesystem;

namespace {

// Probe seeds for the bloom's hash family (independent seeded fasthash
// calls, the SNIPPETS 1-2 construction).
constexpr std::uint64_t kBloomSeeds[BloomFilter::kProbes] = {31, 47, 59, 67};

constexpr char kBloomFile[] = "bloom.bin";

/// Inner header laid in front of every blob payload before sealing:
/// the key echo catches renamed/collided files, the version catches
/// format skew that predates the envelope's own version field.
void append_header(std::vector<std::uint8_t>& out, std::uint64_t key) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(key >> (8 * i)));
  }
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(kStoreFormatVersion >> (8 * i)));
  }
}

constexpr std::size_t kHeaderBytes = 8 + 4;

std::uint64_t read_key(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

std::uint32_t read_version(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

std::string key_hex(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(key));
  return buf;
}

/// Parse an objects/ filename stem back into a key (bloom rebuild).
bool parse_key_hex(const std::string& stem, std::uint64_t& key) {
  if (stem.size() != 16) {
    return false;
  }
  key = 0;
  for (const char c : stem) {
    std::uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    key = (key << 4) | digit;
  }
  return true;
}

}  // namespace

// --- BloomFilter ------------------------------------------------------

void BloomFilter::insert(std::uint64_t key) {
  for (const std::uint64_t seed : kBloomSeeds) {
    const std::uint64_t bit = base::fasthash64(key, seed) % kBits;
    bits_[bit / 8] |= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

bool BloomFilter::maybe_contains(std::uint64_t key) const {
  for (const std::uint64_t seed : kBloomSeeds) {
    const std::uint64_t bit = base::fasthash64(key, seed) % kBits;
    if ((bits_[bit / 8] & (1u << (bit % 8))) == 0) {
      return false;
    }
  }
  return true;
}

void BloomFilter::serialize(capsule::Io& io) {
  const std::uint64_t count = io.extent(bits_.size());
  if (count != bits_.size()) {
    throw capsule::CapsuleError("bloom sidecar: wrong bit-array size");
  }
  for (std::uint8_t& byte : bits_) {
    io.u8(byte);
  }
}

// --- ResultStore ------------------------------------------------------

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "objects", ec);
  if (ec) {
    throw capsule::CapsuleError("result store: cannot create " + dir_ +
                                ": " + ec.message());
  }
  load_or_rebuild_bloom();
}

std::string ResultStore::object_path(std::uint64_t key) const {
  return (fs::path(dir_) / "objects" / (key_hex(key) + ".blob")).string();
}

std::optional<std::vector<std::uint8_t>> ResultStore::get(std::uint64_t key) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!bloom_.maybe_contains(key)) {
      ++stats_.bloom_skips;
      ++stats_.misses;
      return std::nullopt;
    }
  }
  const std::string path = object_path(key);
  std::uint64_t bytes_read = 0;
  try {
    std::vector<std::uint8_t> sealed = capsule::read_file(path);
    bytes_read = sealed.size();
    std::vector<std::uint8_t> payload = capsule::unseal(sealed);
    if (payload.size() < kHeaderBytes ||
        read_key(payload.data()) != key ||
        read_version(payload.data() + 8) != kStoreFormatVersion) {
      throw capsule::CapsuleError("result store: blob header mismatch");
    }
    payload.erase(payload.begin(), payload.begin() + kHeaderBytes);
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.bytes_read += bytes_read;
    ++stats_.hits;
    return payload;
  } catch (const capsule::CapsuleError&) {
    // Absent file and corrupt blob both land here; only the latter has
    // bytes on disk worth counting and removing. Either way: a miss.
    std::error_code ec;
    const bool corrupt = fs::exists(path, ec) && !ec;
    if (corrupt) {
      fs::remove(path, ec);  // Best effort; a survivor just misses again.
    }
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.bytes_read += bytes_read;
    if (corrupt) {
      ++stats_.corrupt_misses;
    }
    ++stats_.misses;
    return std::nullopt;
  }
}

void ResultStore::put(std::uint64_t key,
                      const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> framed;
  framed.reserve(kHeaderBytes + payload.size());
  append_header(framed, key);
  framed.insert(framed.end(), payload.begin(), payload.end());
  const std::vector<std::uint8_t> sealed = capsule::seal(framed);

  const std::string path = object_path(key);
  const std::string tmp = path + ".tmp";
  try {
    capsule::write_file(tmp, sealed);
    fs::rename(tmp, path);  // Atomic publish; readers never see torn blobs.
  } catch (...) {
    std::error_code ec;
    fs::remove(tmp, ec);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.put_errors;
    return;
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.puts;
  stats_.bytes_written += sealed.size();
  bloom_.insert(key);
  save_bloom();
}

void ResultStore::load_or_rebuild_bloom() {
  const std::string path = (fs::path(dir_) / kBloomFile).string();
  try {
    capsule::Io io =
        capsule::Io::loader(capsule::unseal(capsule::read_file(path)));
    bloom_.serialize(io);
    if (!io.exhausted()) {
      throw capsule::CapsuleError("bloom sidecar: trailing bytes");
    }
    return;
  } catch (const capsule::CapsuleError&) {
    // Missing or corrupt sidecar: rebuild membership from the object
    // directory so existing blobs stay reachable (a bloom that forgot a
    // key would skip a present object — wasted recompute, not wrongness,
    // but readdir is cheap and exact).
    bloom_ = BloomFilter();
    std::error_code ec;
    for (const auto& entry :
         fs::directory_iterator(fs::path(dir_) / "objects", ec)) {
      std::uint64_t key;
      if (entry.path().extension() == ".blob" &&
          parse_key_hex(entry.path().stem().string(), key)) {
        bloom_.insert(key);
      }
    }
    save_bloom();
  }
}

void ResultStore::save_bloom() {
  capsule::Io io = capsule::Io::saver();
  bloom_.serialize(io);
  const std::string path = (fs::path(dir_) / kBloomFile).string();
  const std::string tmp = path + ".tmp";
  try {
    capsule::write_file(tmp, capsule::seal(io.bytes()));
    fs::rename(tmp, path);
  } catch (...) {
    std::error_code ec;
    fs::remove(tmp, ec);
    // Not a put error: the blob (if any) landed fine, and this path also
    // runs from the reopen rebuild where no put is in flight. Counting
    // it against puts double-charged every sidecar failure.
    ++stats_.bloom_save_errors;
  }
}

// --- Key derivation ---------------------------------------------------

namespace {

std::uint64_t hash_walk(const char* tag, std::uint64_t salt,
                        std::uint64_t fingerprint,
                        const std::function<void(capsule::Io&)>& walk) {
  capsule::Io io = capsule::Io::saver();
  std::string tag_str = tag;
  io.str(tag_str);
  std::uint64_t salt_copy = salt;
  io.u64(salt_copy);
  io.u64(fingerprint);
  walk(io);
  return base::fasthash(io.bytes().data(), io.bytes().size(), salt);
}

}  // namespace

std::uint64_t run_cache_key(const core::RunSpec& spec, std::uint64_t salt) {
  std::uint64_t key = core::run_key(spec);
  return hash_walk("run-result/1", salt, os::config_fingerprint(spec.system),
                   [&key](capsule::Io& io) { io.u64(key); });
}

std::uint64_t artifact_cache_key(const std::string& id,
                                 const core::StudyConfig& study,
                                 const core::TransitionConfig& transition,
                                 bool quick, std::uint64_t salt) {
  core::StudyConfig study_copy = study;
  core::TransitionConfig transition_copy = transition;
  return hash_walk(
      "artifact-result/1", salt, os::config_fingerprint(study.system),
      [&](capsule::Io& io) {
        std::string id_copy = id;
        io.str(id_copy);
        bool quick_copy = quick;
        io.boolean(quick_copy);
        serialize_config(io, study_copy);
        serialize_config(io, transition_copy);
      });
}

}  // namespace repro::artifacts
