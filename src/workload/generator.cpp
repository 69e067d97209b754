#include "workload/generator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/expect.hpp"

namespace repro::workload {

void WorkloadMix::validate() const {
  REPRO_EXPECT(concurrent_job_fraction >= 0.0 &&
                   concurrent_job_fraction <= 1.0,
               "concurrent job fraction must be a probability");
  // The drawn gap is at most ~37x the mean and is cast to a Cycle, so
  // the mean is bounded well inside that range.
  REPRO_EXPECT(mean_idle_cycles >= 0.0 && mean_idle_cycles <= 1e12,
               "idle gap must be in [0, 1e12] cycles");
  REPRO_EXPECT(mean_burst_jobs >= 1.0 && std::isfinite(mean_burst_jobs),
               "bursts contain a finite mean of at least one job");
  REPRO_EXPECT(contention_job_fraction >= 0.0 &&
                   contention_job_fraction <= 1.0,
               "contention job fraction must be a probability");
  contention.validate();
  numeric.trip_law.validate();
}

namespace {

void serialize_tuning(capsule::Io& io, KernelTuning& k) {
  io.u32(k.concurrent_compute_cycles);
  io.f64(k.vector_fraction);
  io.u64(k.concurrent_working_set);
  io.u64(k.concurrent_stride);
  io.u32(k.concurrent_steps_scale);
  io.f64(k.serial_hot_fraction);
}

}  // namespace

void serialize_config(capsule::Io& io, WorkloadMix& mix) {
  io.str(mix.name);
  io.f64(mix.concurrent_job_fraction);
  io.f64(mix.mean_idle_cycles);
  io.f64(mix.mean_burst_jobs);
  io.f64(mix.contention_job_fraction);
  io.f64(mix.contention.rcu_fraction);
  LockJobParams& lock = mix.contention.lock;
  io.enum32(lock.lock, LockType::kMcs);
  io.u32(lock.contenders);
  io.u32(lock.min_rounds);
  io.u32(lock.max_rounds);
  io.u32(lock.critical_steps);
  io.u32(lock.parallel_steps);
  io.u32(lock.ticket_handoff_steps);
  RcuJobParams& rcu = mix.contention.rcu;
  io.u32(rcu.readers);
  io.u32(rcu.min_rounds);
  io.u32(rcu.max_rounds);
  io.u32(rcu.reader_steps);
  io.u32(rcu.writer_steps);
  io.u32(rcu.writer_every);
  NumericJobParams& n = mix.numeric;
  serialize_tuning(io, n.tuning);
  TripLaw& t = n.trip_law;
  io.f64(t.weight_multiple_of_width);
  io.f64(t.weight_two_leftover);
  io.f64(t.weight_uniform);
  io.f64(t.weight_narrow);
  io.u64(t.min_batches);
  io.u64(t.max_batches);
  io.u32(t.width);
  io.u32(n.min_loops);
  io.u32(n.max_loops);
  io.u32(n.min_setup_reps);
  io.u32(n.max_setup_reps);
  io.f64(n.dependence_prob);
  io.f64(n.long_path_prob);
  io.u32(n.long_path_extra_steps);
  serialize_tuning(io, mix.serial.tuning);
  io.u32(mix.serial.min_reps);
  io.u32(mix.serial.max_reps);
}

WorkloadGenerator::WorkloadGenerator(WorkloadMix mix, std::uint64_t seed)
    : mix_(std::move(mix)), rng_(seed) {
  mix_.validate();
}

void WorkloadGenerator::submit_burst(os::System& system) {
  // Geometric-ish burst size with the configured mean.
  std::uint64_t burst = 1;
  const double p_more = 1.0 - 1.0 / mix_.mean_burst_jobs;
  while (burst < 8 && rng_.bernoulli(p_more)) {
    ++burst;
  }
  for (std::uint64_t i = 0; i < burst; ++i) {
    const JobId id = next_job_id_++;
    // The > 0 guard keeps legacy mixes off this branch without drawing,
    // preserving their RNG streams bit for bit.
    if (mix_.contention_job_fraction > 0.0 &&
        rng_.bernoulli(mix_.contention_job_fraction)) {
      if (mix_.contention.rcu_fraction > 0.0 &&
          rng_.bernoulli(mix_.contention.rcu_fraction)) {
        system.scheduler().submit(
            make_rcu_job(id, rng_, mix_.contention.rcu, system.now()));
      } else {
        system.scheduler().submit(
            make_lock_job(id, rng_, mix_.contention.lock, system.now()));
      }
    } else if (rng_.bernoulli(mix_.concurrent_job_fraction)) {
      system.scheduler().submit(
          make_numeric_job(id, rng_, mix_.numeric, system.now()));
    } else {
      system.scheduler().submit(
          make_serial_job(id, rng_, mix_.serial, system.now()));
    }
  }
}

Cycle WorkloadGenerator::quiet_horizon(const os::System& system) const {
  if (!system.scheduler().idle()) {
    // Busy system: ticks are no-ops once the drain flag is latched (the
    // first busy tick must run naively to latch it).
    return waiting_for_drain_ ? kHorizonNever : 0;
  }
  if (waiting_for_drain_) {
    return 0;  // The idle-gap draw (an RNG call) happens next tick.
  }
  const Cycle now = system.now();
  return now < next_arrival_ ? next_arrival_ - now : 0;
}

void WorkloadGenerator::tick(os::System& system) {
  if (!system.scheduler().idle()) {
    waiting_for_drain_ = true;
    return;
  }
  if (waiting_for_drain_) {
    // The machine just drained: draw the idle gap before the next burst.
    waiting_for_drain_ = false;
    const Cycle gap = mix_.mean_idle_cycles <= 0.0
                          ? 0
                          : static_cast<Cycle>(
                                rng_.exponential(mix_.mean_idle_cycles));
    next_arrival_ = system.now() + gap;
  }
  if (system.now() >= next_arrival_) {
    submit_burst(system);
  }
}

}  // namespace repro::workload
