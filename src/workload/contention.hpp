// Contention-scenario workload family: synchronization-bound jobs.
//
// The paper's workload is numeric kernels, but the measurement pipeline
// is workload-agnostic (ROADMAP item 5). This family expresses classic
// shared-memory contention scenarios through the existing Job/phase
// machinery, so the study engine, fast-forward, capsules, the result
// cache, and topology scale-out all apply unmodified:
//
//  * Coarse-grained locking (ticket and MCS-style queue locks): each
//    round is a dependence-free concurrent "parallel section" phase
//    followed by a fully dependence-chained "critical section" phase.
//    With dependence_prob = 1 every iteration i waits for iteration i-1
//    to complete over the CCB, so the critical sections execute in
//    strict FIFO ticket order — exactly a queue lock's admission order.
//    The two lock types differ in handoff cost: a ticket lock's release
//    bumps a shared now-serving line that every spinner re-reads (extra
//    shared-line RMW steps in the critical body), while an MCS lock
//    hands off through a single per-waiter flag (the CCB dependence
//    release is the local spin — no extra steps).
//  * RCU-style concurrent search: rounds of read-only concurrent
//    lookups over a shared structure, with a periodic serial writer
//    phase standing in for the update + grace period.
//
// The bodies are deliberately deterministic (no jitter, no vector
// steps, icache-resident, cache-sized working sets) so the analytical
// throughput predictor in src/model/lock_model.hpp shares these exact
// factories and can price a round in closed form.
#pragma once

#include <cstdint>

#include "base/rng.hpp"
#include "base/types.hpp"
#include "isa/kernel.hpp"
#include "os/job.hpp"

namespace repro::workload {

enum class LockType : std::uint8_t { kTicket, kMcs };

[[nodiscard]] const char* to_string(LockType lock);

struct LockJobParams {
  LockType lock = LockType::kTicket;
  /// Contending CEs (the trip count of both phases); 1..8, one cluster.
  std::uint32_t contenders = 8;
  /// Lock-acquisition rounds per job (min == max pins the count, which
  /// the artifacts rely on for exact throughput accounting).
  std::uint32_t min_rounds = 2;
  std::uint32_t max_rounds = 4;
  /// Steps inside the critical section / the parallel section between
  /// acquisitions (the tunable critical/parallel ratio).
  std::uint32_t critical_steps = 12;
  std::uint32_t parallel_steps = 48;
  /// Extra shared now-serving-line steps a ticket release pays and an
  /// MCS handoff does not.
  std::uint32_t ticket_handoff_steps = 2;
};

struct RcuJobParams {
  /// Concurrent readers per round; 1..8, one cluster.
  std::uint32_t readers = 8;
  std::uint32_t min_rounds = 2;
  std::uint32_t max_rounds = 4;
  /// Steps per read-side lookup and per writer update.
  std::uint32_t reader_steps = 24;
  std::uint32_t writer_steps = 30;
  /// A serial writer phase runs after every `writer_every` reader rounds.
  std::uint32_t writer_every = 2;
};

struct ContentionParams {
  /// Share of contention jobs that are RCU searches (the rest are lock
  /// jobs). Guarded like contention_job_fraction: 0 draws no RNG.
  double rcu_fraction = 0.25;
  LockJobParams lock;
  RcuJobParams rcu;

  void validate() const;
};

// Body factories, shared with the analytical predictor so the priced
// kernel and the executed kernel can never drift apart.
[[nodiscard]] isa::KernelSpec lock_parallel_body(const LockJobParams& params);
[[nodiscard]] isa::KernelSpec lock_critical_body(const LockJobParams& params);
[[nodiscard]] isa::KernelSpec rcu_reader_body(const RcuJobParams& params);
[[nodiscard]] isa::KernelSpec rcu_writer_body(const RcuJobParams& params);

/// A coarse-grained-locking job: `rounds` repetitions of parallel
/// section then FIFO-serialized critical section, all on one cluster.
[[nodiscard]] os::Job make_lock_job(JobId id, Rng& rng,
                                    const LockJobParams& params, Cycle now);

/// An RCU-style concurrent-search job: read-mostly concurrent rounds
/// with a periodic serial writer phase.
[[nodiscard]] os::Job make_rcu_job(JobId id, Rng& rng,
                                   const RcuJobParams& params, Cycle now);

}  // namespace repro::workload
