// State capsules: one serialization walk, three uses.
//
// Every deterministic component exposes `void serialize(capsule::Io&)`
// that visits its state through the same sequence of primitive calls
// whatever the mode. In kSave mode the walk encodes the state into a
// byte stream; in kLoad mode the identical walk decodes it back; in
// kDigest mode it folds the encoded bytes into a 64-bit FNV-1a digest
// without storing them. Because save and digest see the same byte
// stream, the digest of a saved capsule always equals the digest
// computed in place — bit-identity between two machines can therefore
// be asserted by comparing two 8-byte values instead of replaying
// traces (see docs/checkpointing.md).
//
// Capsule files wrap the payload in a sealed envelope (magic, format
// version, payload size, trailing digest). Unsealing validates all
// four and throws CapsuleError — a *recoverable* error, unlike
// ContractViolation — on any mismatch, so a stale or truncated
// checkpoint is rejected instead of loading garbage state.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "base/expect.hpp"
#include "base/fnv1a.hpp"

namespace repro::capsule {

/// Recoverable capsule failure: bad magic, version skew, truncation,
/// digest mismatch, config fingerprint mismatch, unreadable file.
class CapsuleError : public std::runtime_error {
 public:
  explicit CapsuleError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Capsule payload format version. Bump on any change to a serialize()
/// walk; unseal() rejects every other version.
/// v2: the Mmu translation memo walks one entry per CE lane, no longer
/// one per (batch rig, CE lane).
/// v3: the memory bus walks its idle cycles with the quiescent fold
/// added in and no longer carries the fold itself.
/// v4: no translation memo is walked (a load drops them), and the VM no
/// longer walks a translation count.
/// v5: each cluster walks the programs it runs (the scheduler keeps only
/// a running job's id and class) and only its real detached slots; the
/// machine walks its clock and control-event counter once, before the
/// clusters, which keep no clock of their own; jobs walk only their
/// submission cycle.
inline constexpr std::uint32_t kFormatVersion = 5;

/// Run a loaded value's validate() and rethrow a failed check as a
/// CapsuleError: loaded bytes come from outside, so a value the simulator
/// could not run marks a corrupt capsule, not a programming error.
template <typename T>
void check_loaded(const T& value) {
  try {
    value.validate();
  } catch (const ContractViolation& e) {
    throw CapsuleError(std::string("capsule: loaded value is invalid: ") +
                       e.what());
  }
}

enum class Mode : std::uint8_t { kSave, kLoad, kDigest };

class Io {
 public:
  /// Walk state into an internal byte buffer (and digest).
  [[nodiscard]] static Io saver() { return Io(Mode::kSave, {}); }
  /// Walk state folding the encoded bytes into digest() only.
  [[nodiscard]] static Io digester() { return Io(Mode::kDigest, {}); }
  /// Walk state out of `payload` (as produced by a saver).
  [[nodiscard]] static Io loader(std::vector<std::uint8_t> payload) {
    return Io(Mode::kLoad, std::move(payload));
  }

  [[nodiscard]] Mode mode() const noexcept { return mode_; }
  [[nodiscard]] bool loading() const noexcept { return mode_ == Mode::kLoad; }

  // Primitives. Each writes, reads, or digests the value in place
  // depending on the mode; integers are encoded little-endian so
  // capsules and digests are stable across hosts.
  void u8(std::uint8_t& v) { scalar(v); }
  void u16(std::uint16_t& v) { scalar(v); }
  void u32(std::uint32_t& v) { scalar(v); }
  void u64(std::uint64_t& v) { scalar(v); }

  void i64(std::int64_t& v) {
    auto bits = static_cast<std::uint64_t>(v);
    u64(bits);
    v = static_cast<std::int64_t>(bits);
  }

  /// Doubles travel as their bit pattern — exact, NaN-preserving.
  void f64(double& v);

  void boolean(bool& v) {
    std::uint8_t bits = v ? 1 : 0;
    u8(bits);
    if (loading() && bits > 1) {
      throw CapsuleError("capsule: corrupt bool encoding");
    }
    v = bits != 0;
  }

  void str(std::string& v);

  /// Enum of any underlying type, transported as u32. `last` is the
  /// highest enumerator: enum state indexes arrays and drives switches,
  /// so a loaded value past it is corrupt and throws.
  template <typename E>
  void enum32(E& v, E last) {
    static_assert(std::is_enum_v<E>);
    auto bits = static_cast<std::uint32_t>(
        static_cast<std::underlying_type_t<E>>(v));
    u32(bits);
    if (loading() && bits > static_cast<std::uint32_t>(
                                static_cast<std::underlying_type_t<E>>(last))) {
      throw CapsuleError("capsule: enum value out of range");
    }
    v = static_cast<E>(static_cast<std::underlying_type_t<E>>(bits));
  }

  /// A u32 that bounds array reads (a machine width, a cluster count): a
  /// loaded value outside [lo, hi] is corrupt and throws.
  void u32_in(std::uint32_t& v, std::uint32_t lo, std::uint32_t hi) {
    u32(v);
    if (loading() && (v < lo || v > hi)) {
      throw CapsuleError("capsule: value out of range");
    }
  }

  /// Container-size handshake: encodes `n` when saving/digesting and
  /// returns it; returns the decoded count when loading. Callers size
  /// their container from the return value. Every element walks at
  /// least one byte, so a loaded count larger than the bytes left is
  /// corrupt and throws before anyone allocates for it.
  [[nodiscard]] std::uint64_t extent(std::uint64_t n) {
    u64(n);
    if (loading() && n > buf_.size() - cursor_) {
      throw CapsuleError("capsule: element count exceeds payload");
    }
    return n;
  }

  /// Saved payload (kSave mode only; empty otherwise).
  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return buf_;
  }
  /// FNV-1a 64 over every byte the walk encoded so far (kSave/kDigest).
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  /// True when a loader has consumed its whole payload.
  [[nodiscard]] bool exhausted() const noexcept {
    return cursor_ == buf_.size();
  }

 private:
  Io(Mode mode, std::vector<std::uint8_t> payload)
      : mode_(mode), buf_(std::move(payload)) {}

  template <typename T>
  void scalar(T& v) {
    static_assert(std::is_unsigned_v<T>);
    std::uint8_t bytes[sizeof(T)];
    if (loading()) {
      get(bytes, sizeof(T));
      std::uint64_t acc = 0;
      for (std::size_t i = 0; i < sizeof(T); ++i) {
        acc |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
      }
      v = static_cast<T>(acc);
      return;
    }
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    }
    put(bytes, sizeof(T));
  }

  void put(const std::uint8_t* p, std::size_t n);
  void get(std::uint8_t* p, std::size_t n);

  Mode mode_;
  std::vector<std::uint8_t> buf_;
  std::size_t cursor_ = 0;
  std::uint64_t digest_ = base::kFnv1aOffset;
};

/// Walk an optional as a presence flag, then `walk(*value)` when present.
/// A load resets `value` and, when the flag is set, walks a
/// default-constructed one.
template <typename T, typename Walk>
void walk_optional(Io& io, std::optional<T>& value, Walk&& walk) {
  bool present = value.has_value();
  io.boolean(present);
  if (io.loading()) {
    value.reset();
    if (present) {
      value.emplace();
    }
  }
  if (present) {
    walk(*value);
  }
}

/// Wrap a payload in the capsule envelope:
/// magic "FX8CAPS\0" · u32 version · u64 payload size · payload ·
/// u64 FNV-1a digest of the payload.
[[nodiscard]] std::vector<std::uint8_t> seal(
    const std::vector<std::uint8_t>& payload);

/// Validate an envelope and return its payload. Throws CapsuleError on
/// bad magic, wrong version, truncation, or digest mismatch.
[[nodiscard]] std::vector<std::uint8_t> unseal(
    const std::vector<std::uint8_t>& sealed);

/// File I/O for sealed capsules; both throw CapsuleError on failure.
void write_file(const std::string& path,
                const std::vector<std::uint8_t>& sealed);
[[nodiscard]] std::vector<std::uint8_t> read_file(const std::string& path);

}  // namespace repro::capsule
