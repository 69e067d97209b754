// Cluster job scheduler.
//
// A single FIFO run queue feeds the Computational Cluster: the next job is
// loaded as soon as the cluster drains, its pages are released and the
// kernel counters bumped when it finishes. (Concentrix timesliced; our
// jobs are short relative to the 5-minute sampling interval, so
// run-to-completion produces the same sampled mixture with less
// machinery — see DESIGN.md.)
#pragma once

#include <cstdint>
#include <deque>
#include <optional>

#include "base/types.hpp"
#include "fx8/machine.hpp"
#include "os/job.hpp"
#include "os/kernel_counters.hpp"
#include "os/vm.hpp"

namespace repro::os {

struct SchedulerStats {
  std::uint64_t jobs_completed = 0;
  std::uint64_t cluster_jobs_completed = 0;
  std::uint64_t serial_jobs_completed = 0;
  std::uint64_t total_wait_cycles = 0;  ///< Queue time across jobs.
};

/// Run-queue discipline. The paper's closing chapter flags "the
/// relationship of concurrency and software-level parameters (such as
/// those related to job scheduling)" as future work (§6); the
/// non-FIFO policies let that experiment run (scheduling_policy).
enum class SchedulingPolicy : std::uint8_t {
  kFifo,             ///< Arrival order (the baseline everywhere else).
  kConcurrentFirst,  ///< Cluster (concurrent) jobs preempt queue order.
  kSerialFirst,      ///< Detached serial jobs preempt queue order.
};

class Scheduler {
 public:
  Scheduler(fx8::Machine& machine, VirtualMemory& vm,
            KernelCounters& counters,
            SchedulingPolicy policy = SchedulingPolicy::kFifo);

  /// Queue a job for execution.
  void submit(Job job);

  /// Reap a finished job / start the next queued one. Call once per cycle
  /// before the machine ticks. Serial jobs prefer free detached CEs when
  /// the machine has them (ClusterConfig::detached_ces).
  void tick(Cycle now);

  /// True when nothing is running and nothing is queued.
  [[nodiscard]] bool idle() const;

  /// Event-horizon fast-forward: 0 when the next tick would reap or
  /// start a job, kHorizonNever otherwise (the scheduler only reacts to
  /// cluster state, whose changes the cluster horizon already bounds).
  /// The scheduler keeps no per-cycle counters, so there is no skip().
  [[nodiscard]] Cycle quiet_horizon() const;

  [[nodiscard]] std::size_t queue_depth() const { return queue_.size(); }
  /// True while any cluster has a job loaded.
  [[nodiscard]] bool job_running() const {
    for (const auto& job : running_) {
      if (job) {
        return true;
      }
    }
    return false;
  }
  [[nodiscard]] const SchedulerStats& stats() const { return stats_; }
  [[nodiscard]] SchedulingPolicy policy() const { return policy_; }

  /// Capsule walk: run queue, the running jobs' records, and stats. Must
  /// run *after* the machine's walk: a load throws capsule::CapsuleError
  /// when a loaded cluster or detached slot is busy with no record for
  /// the scheduler to reap it by.
  void serialize(capsule::Io& io);

 private:
  /// What the scheduler keeps of a running cluster job; the cluster owns
  /// its program.
  struct Running {
    JobId id = 0;
    JobClass cls = JobClass::kCluster;
  };

  /// Pop the next job per the policy.
  [[nodiscard]] Job pop_next();

  /// Detached CEs each cluster contributes (identical clusters).
  [[nodiscard]] std::uint32_t detached_per_cluster() const {
    return machine_.cluster().detached_count();
  }

  fx8::Machine& machine_;
  VirtualMemory& vm_;
  KernelCounters& counters_;
  SchedulingPolicy policy_;
  std::deque<Job> queue_;
  /// One running cluster job per cluster (index = cluster index). The
  /// single FIFO queue feeds every cluster; cluster 0 fills first.
  std::vector<std::optional<Running>> running_;
  /// Ids of the serial jobs running on detached CEs, flattened
  /// cluster-major: global slot = cluster * detached_per_cluster() +
  /// local slot.
  std::vector<std::optional<JobId>> detached_running_;
  SchedulerStats stats_;
};

}  // namespace repro::os
