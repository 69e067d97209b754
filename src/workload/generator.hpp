// Workload generator: keeps the system fed according to a mixture.
//
// A WorkloadMix describes one measurement session's environment: how
// likely the next submission is a concurrent numeric job vs. a detached
// serial process, how bursty submissions are, and how long the machine
// idles between bursts. The generator drives an os::System the way the
// user population drove the CSRD machine: it watches the run queue and
// submits new work when the machine drains.
#pragma once

#include <cstdint>
#include <string>

#include "base/rng.hpp"
#include "base/types.hpp"
#include "os/system.hpp"
#include "workload/contention.hpp"
#include "workload/jobs.hpp"

namespace repro::workload {

struct WorkloadMix {
  std::string name = "default";
  /// Probability the next submitted job is a concurrent numeric job.
  double concurrent_job_fraction = 0.5;
  /// Mean idle gap (cycles) between the queue draining and new arrivals.
  double mean_idle_cycles = 30000;
  /// Mean number of jobs per arrival burst (>= 1).
  double mean_burst_jobs = 1.6;
  /// Probability the next submitted job is a synchronization-bound
  /// contention job (drawn before the concurrent/serial split). Exactly
  /// 0.0 draws no RNG, so legacy mixes keep their job streams
  /// bit-identical to builds that predate the contention family.
  double contention_job_fraction = 0.0;
  ContentionParams contention;
  NumericJobParams numeric;
  SerialJobParams serial;

  void validate() const;
};

/// Capsule walk over every WorkloadMix knob. The mix is config, not
/// state — generators never capsule it — but run keys must fold it in
/// so that editing a preset can never stale-hit a run result computed
/// under the old conditions (see core::run_key).
void serialize_config(capsule::Io& io, WorkloadMix& mix);

class WorkloadGenerator {
 public:
  WorkloadGenerator(WorkloadMix mix, std::uint64_t seed);

  /// Call once per cycle before System::tick(); submits jobs when the
  /// machine has drained and the idle gap has elapsed.
  void tick(os::System& system);

  /// Event-horizon fast-forward: cycles for which tick(system) is
  /// guaranteed to be a no-op — forever while the system is busy (the
  /// system horizon bounds the drain), the rest of the idle gap while it
  /// is drained. 0 = the next tick may draw randomness or submit.
  [[nodiscard]] Cycle quiet_horizon(const os::System& system) const;

  [[nodiscard]] std::uint64_t jobs_generated() const { return next_job_id_; }
  [[nodiscard]] const WorkloadMix& mix() const { return mix_; }

  /// Capsule walk: RNG stream and arrival progress. The mix itself is
  /// config, pinned by the session's fingerprint rather than capsuled.
  void serialize(capsule::Io& io) {
    rng_.serialize(io);
    io.u64(next_job_id_);
    io.u64(next_arrival_);
    io.boolean(waiting_for_drain_);
  }

 private:
  void submit_burst(os::System& system);

  WorkloadMix mix_;
  Rng rng_;
  JobId next_job_id_ = 0;
  Cycle next_arrival_ = 0;
  bool waiting_for_drain_ = false;
};

}  // namespace repro::workload
