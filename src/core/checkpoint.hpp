// Session checkpoints: save, restore, and digest a whole measurement rig.
//
// A "session" here is the unit the study engine schedules: one os::System
// plus the workload generator feeding it and the session controller
// sampling it. One capsule walk covers all three, so a session can be
// stopped at a sample boundary, written to disk, and resumed later — on
// the same rig or a freshly constructed one — bit-identically. The same
// walk yields a 64-bit digest, which is how the tests assert
// bit-identity without comparing traces. See docs/checkpointing.md for
// the format and the deliberate exclusions.
#pragma once

#include <cstdint>
#include <vector>

#include "base/capsule.hpp"
#include "instr/session_controller.hpp"
#include "os/system.hpp"
#include "workload/generator.hpp"

namespace repro::core {

/// One walk over the full session state: the system (counters, VM,
/// machine, scheduler), the workload generator, and the controller's
/// persistent state, in that order.
void serialize_session(capsule::Io& io, os::System& system,
                       workload::WorkloadGenerator& generator,
                       instr::SessionController& controller);

/// FNV-1a 64 digest of the full session state. Equal digests ⇔ the two
/// rigs are bit-identical (for rigs built from the same configs).
[[nodiscard]] std::uint64_t session_digest(
    os::System& system, workload::WorkloadGenerator& generator,
    instr::SessionController& controller);

/// Sealed capsule of the session state, prefixed with the system's
/// config fingerprint.
[[nodiscard]] std::vector<std::uint8_t> save_session(
    os::System& system, workload::WorkloadGenerator& generator,
    instr::SessionController& controller);

/// Restore a session from a sealed capsule into an already-constructed
/// rig (built from the same configs — the fingerprint enforces the
/// system's half of that contract). Throws capsule::CapsuleError on
/// envelope, fingerprint, or payload-shape mismatch.
void load_session(const std::vector<std::uint8_t>& sealed,
                  os::System& system,
                  workload::WorkloadGenerator& generator,
                  instr::SessionController& controller);

/// Progress of a resumable single-session study (fx8meter --checkpoint):
/// how many samples are done and the completed records themselves, so a
/// resumed run re-reports the whole session, not just its tail.
struct StudyCheckpoint {
  std::uint32_t samples_done = 0;
  std::uint32_t samples_total = 0;
  std::vector<instr::SampleRecord> records;

  void serialize(capsule::Io& io);
};

/// Sealed capsule bundling study progress with the live session state.
[[nodiscard]] std::vector<std::uint8_t> save_study_checkpoint(
    const StudyCheckpoint& progress, os::System& system,
    workload::WorkloadGenerator& generator,
    instr::SessionController& controller);

/// Counterpart of save_study_checkpoint: restores the session rig and
/// returns the recorded progress.
[[nodiscard]] StudyCheckpoint load_study_checkpoint(
    const std::vector<std::uint8_t>& sealed, os::System& system,
    workload::WorkloadGenerator& generator,
    instr::SessionController& controller);

}  // namespace repro::core
