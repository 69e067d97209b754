// System facade: the machine plus its operating system.
//
// This is the integration point the instrumentation layer attaches to: it
// owns the FX/8 model, the virtual-memory/fault machinery, the kernel
// counters, and the scheduler, and advances them in the right order each
// cycle.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "base/capsule.hpp"
#include "base/types.hpp"
#include "fx8/machine.hpp"
#include "os/kernel_counters.hpp"
#include "os/scheduler.hpp"
#include "os/vm.hpp"

namespace repro::os {

struct SystemConfig {
  fx8::MachineConfig machine;
  VmConfig vm;
  SchedulingPolicy scheduling = SchedulingPolicy::kFifo;
};

/// Canonical walk over every structural field of a SystemConfig. This is
/// the byte stream behind System::config_fingerprint() and the result
/// cache's key derivation (src/artifacts/result_store.hpp): two configs
/// hash equal iff every field matches.
void serialize_config(capsule::Io& io, SystemConfig& config);

/// 64-bit FNV-1a digest of serialize_config's walk, without needing a
/// constructed System.
[[nodiscard]] std::uint64_t config_fingerprint(const SystemConfig& config);

class System {
 public:
  explicit System(const SystemConfig& config);

  /// Advance the whole system one cycle (scheduler, then hardware).
  void tick();
  void run(Cycle cycles);

  [[nodiscard]] Cycle now() const { return machine_->now(); }

  [[nodiscard]] fx8::Machine& machine() { return *machine_; }
  [[nodiscard]] const fx8::Machine& machine() const { return *machine_; }
  [[nodiscard]] Scheduler& scheduler() { return *scheduler_; }
  [[nodiscard]] const Scheduler& scheduler() const { return *scheduler_; }
  [[nodiscard]] KernelCounters& counters() { return counters_; }
  [[nodiscard]] const KernelCounters& counters() const { return counters_; }
  [[nodiscard]] VirtualMemory& vm() { return *vm_; }
  [[nodiscard]] const SystemConfig& config() const { return config_; }

  // --- State capsules --------------------------------------------------
  /// One walk over the entire deterministic state, in dependency order:
  /// counters, VM, machine, then the scheduler (whose load check reads
  /// the loaded clusters). The same walk serves save, load, and digest
  /// (base/capsule.hpp).
  void serialize(capsule::Io& io);

  /// 64-bit FNV-1a digest over the full state walk. Two systems built
  /// from the same config are bit-identical iff their digests match.
  [[nodiscard]] std::uint64_t state_digest();

  /// Structural fingerprint of the config this system was built from.
  /// Stored in every capsule; load_capsule rejects a capsule whose
  /// fingerprint differs (the walk only carries state, not structure).
  [[nodiscard]] std::uint64_t config_fingerprint() const;

  /// Sealed capsule (envelope + payload) of the current state.
  [[nodiscard]] std::vector<std::uint8_t> save_capsule();
  /// Restore state from a sealed capsule. Throws capsule::CapsuleError on
  /// version/digest/fingerprint mismatch; the system is unchanged in the
  /// fingerprint case and must be discarded on a mid-walk failure.
  void load_capsule(const std::vector<std::uint8_t>& sealed);

 private:
  SystemConfig config_;
  KernelCounters counters_;
  std::unique_ptr<VirtualMemory> vm_;
  std::unique_ptr<fx8::Machine> machine_;
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace repro::os
