#include "artifacts/result_store.hpp"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <system_error>
#include <utility>

namespace repro::artifacts {

namespace fs = std::filesystem;

namespace {

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

/// A temp-file name no other writer uses: the pid tells apart processes
/// sharing the directory, the counter every put of this process (any
/// thread, any store instance).
std::string temp_path(const std::string& path) {
  static std::atomic<std::uint64_t> next{0};
  return path + "." + std::to_string(::getpid()) + "." +
         std::to_string(next++) + ".tmp";
}

}  // namespace

// --- ResultStore ------------------------------------------------------

ResultStore::ResultStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  fs::create_directories(fs::path(dir_) / "objects", ec);
  if (ec) {
    throw capsule::CapsuleError("result store: cannot create " + dir_ +
                                ": " + ec.message());
  }
}

std::string ResultStore::object_path(std::uint64_t key) const {
  return (fs::path(dir_) / "objects" / (key_hex(key) + ".blob")).string();
}

std::optional<std::vector<std::uint8_t>> ResultStore::get(std::uint64_t key) {
  const std::string path = object_path(key);
  std::vector<std::uint8_t> sealed;
  try {
    sealed = capsule::read_file(path);
  } catch (const capsule::CapsuleError&) {
    // No readable file under this key: a plain miss.
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.misses;
    return std::nullopt;
  }
  try {
    std::vector<std::uint8_t> payload = capsule::unseal(sealed);
    if (payload.size() < kHeaderBytes ||
        read_key(payload.data()) != key ||
        read_version(payload.data() + 8) != kStoreFormatVersion) {
      throw capsule::CapsuleError("result store: blob header mismatch");
    }
    payload.erase(payload.begin(), payload.begin() + kHeaderBytes);
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.bytes_read += sealed.size();
    ++stats_.hits;
    return payload;
  } catch (const capsule::CapsuleError&) {
    // A corrupt blob: counted, removed, and missed.
    std::error_code ec;
    fs::remove(path, ec);  // Best effort; a survivor just misses again.
    const std::lock_guard<std::mutex> lock(mutex_);
    stats_.bytes_read += sealed.size();
    ++stats_.corrupt_misses;
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
  const std::string tmp = temp_path(path);
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
}

// --- Key derivation ---------------------------------------------------

namespace {

std::uint64_t hash_walk(const char* tag, std::uint64_t salt,
                        const std::function<void(capsule::Io&)>& walk) {
  capsule::Io io = capsule::Io::digester();
  std::string tag_str = tag;
  io.str(tag_str);
  io.u64(salt);
  walk(io);
  return io.digest();
}

}  // namespace

std::uint64_t run_cache_key(const core::RunSpec& spec, std::uint64_t salt) {
  std::uint64_t key = core::run_key(spec);
  return hash_walk("run-result/1", salt,
                   [&key](capsule::Io& io) { io.u64(key); });
}

std::uint64_t artifact_cache_key(const std::string& id,
                                 const core::StudyConfig& study,
                                 const core::TransitionConfig& transition,
                                 bool quick, std::uint64_t salt) {
  core::StudyConfig study_copy = study;
  core::TransitionConfig transition_copy = transition;
  return hash_walk("artifact-result/1", salt, [&](capsule::Io& io) {
    std::string id_copy = id;
    io.str(id_copy);
    bool quick_copy = quick;
    io.boolean(quick_copy);
    serialize_config(io, study_copy);
    serialize_config(io, transition_copy);
  });
}

}  // namespace repro::artifacts
