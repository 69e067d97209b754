#include "os/scheduler.hpp"

#include <algorithm>
#include <utility>

#include "base/capsule.hpp"

namespace repro::os {

Scheduler::Scheduler(fx8::Machine& machine, VirtualMemory& vm,
                     KernelCounters& counters, SchedulingPolicy policy)
    : machine_(machine), vm_(vm), counters_(counters), policy_(policy),
      running_(machine.n_clusters()),
      detached_running_(static_cast<std::size_t>(machine.n_clusters()) *
                        machine.cluster().detached_count()) {}

Job Scheduler::pop_next() {
  auto it = queue_.begin();
  if (policy_ != SchedulingPolicy::kFifo) {
    const JobClass preferred = policy_ == SchedulingPolicy::kConcurrentFirst
                                   ? JobClass::kCluster
                                   : JobClass::kSerialDetached;
    for (auto candidate = queue_.begin(); candidate != queue_.end();
         ++candidate) {
      if (candidate->cls == preferred) {
        it = candidate;
        break;
      }
    }
  }
  Job job = std::move(*it);
  queue_.erase(it);
  return job;
}

void Scheduler::submit(Job job) {
  job.program.validate();
  counters_.increment(KernelCounter::kJobsSubmitted);
  queue_.push_back(std::move(job));
}

void Scheduler::tick(Cycle now) {
  const std::uint32_t per = detached_per_cluster();
  // Reap drained detached jobs.
  for (std::uint32_t slot = 0; slot < detached_running_.size(); ++slot) {
    if (detached_running_[slot] &&
        !machine_.cluster(slot / per).detached_busy(slot % per)) {
      vm_.release_job(*detached_running_[slot]);
      counters_.increment(KernelCounter::kJobsCompleted);
      ++stats_.jobs_completed;
      ++stats_.serial_jobs_completed;
      detached_running_[slot].reset();
    }
  }
  // Route queued serial jobs onto free detached CEs.
  for (std::uint32_t slot = 0; slot < detached_running_.size(); ++slot) {
    if (detached_running_[slot]) {
      continue;
    }
    const auto candidate = std::find_if(
        queue_.begin(), queue_.end(), [](const Job& job) {
          return job.cls == JobClass::kSerialDetached;
        });
    if (candidate == queue_.end()) {
      break;
    }
    Job job = std::move(*candidate);
    queue_.erase(candidate);
    stats_.total_wait_cycles += now - job.submitted_at;
    counters_.increment(KernelCounter::kContextSwitches);
    detached_running_[slot] = job.id;
    machine_.cluster(slot / per).load_detached(
        slot % per, std::move(job.program), job.id);
  }

  // Reap drained cluster jobs.
  for (std::uint32_t k = 0; k < running_.size(); ++k) {
    std::optional<Running>& running = running_[k];
    if (running && !machine_.cluster(k).busy()) {
      vm_.release_job(running->id);
      counters_.increment(KernelCounter::kJobsCompleted);
      ++stats_.jobs_completed;
      if (running->cls == JobClass::kCluster) {
        ++stats_.cluster_jobs_completed;
      } else {
        ++stats_.serial_jobs_completed;
      }
      running.reset();
    }
  }
  // Start the next ones (cluster 0 first, matching hardware priority).
  for (std::uint32_t k = 0; k < running_.size(); ++k) {
    if (!running_[k] && !queue_.empty()) {
      Job job = pop_next();
      stats_.total_wait_cycles += now - job.submitted_at;
      counters_.increment(KernelCounter::kContextSwitches);
      running_[k] = Running{job.id, job.cls};
      machine_.cluster(k).load(std::move(job.program), job.id);
    }
  }
}

Cycle Scheduler::quiet_horizon() const {
  for (std::uint32_t k = 0; k < running_.size(); ++k) {
    if (running_[k] && !machine_.cluster(k).busy()) {
      return 0;  // A cluster job to reap.
    }
    if (!running_[k] && !queue_.empty()) {
      return 0;  // A job to start.
    }
  }
  const std::uint32_t per = detached_per_cluster();
  bool free_slot = false;
  for (std::uint32_t slot = 0; slot < detached_running_.size(); ++slot) {
    if (detached_running_[slot]) {
      if (!machine_.cluster(slot / per).detached_busy(slot % per)) {
        return 0;  // A detached job to reap.
      }
    } else {
      free_slot = true;
    }
  }
  if (free_slot && !queue_.empty() &&
      std::any_of(queue_.begin(), queue_.end(), [](const Job& job) {
        return job.cls == JobClass::kSerialDetached;
      })) {
    return 0;  // A serial job to route onto a free detached CE.
  }
  return kHorizonNever;
}

void Scheduler::serialize(capsule::Io& io) {
  const std::uint64_t depth = io.extent(queue_.size());
  if (io.loading()) {
    queue_.assign(static_cast<std::size_t>(depth), Job{});
  }
  for (Job& queued : queue_) {
    io.u64(queued.id);
    io.enum32(queued.cls, JobClass::kSerialDetached);
    queued.program.serialize(io);
    io.u64(queued.submitted_at);
  }
  // One slot per cluster, no extent: the slot count is structural (it
  // must match the machine).
  for (std::optional<Running>& running : running_) {
    capsule::walk_optional(io, running, [&io](Running& r) {
      io.u64(r.id);
      io.enum32(r.cls, JobClass::kSerialDetached);
    });
  }
  const std::uint64_t detached = io.extent(detached_running_.size());
  if (io.loading() && detached != detached_running_.size()) {
    throw capsule::CapsuleError("capsule: detached slot count mismatch");
  }
  for (std::optional<JobId>& slot : detached_running_) {
    capsule::walk_optional(io, slot, [&io](JobId& id) { io.u64(id); });
  }
  io.u64(stats_.jobs_completed);
  io.u64(stats_.cluster_jobs_completed);
  io.u64(stats_.serial_jobs_completed);
  io.u64(stats_.total_wait_cycles);

  if (io.loading()) {
    // The machine's walk, which ran first, loaded the clusters with the
    // programs they run. Every busy one needs the record the next tick
    // reaps it by; a record whose cluster is idle is fine (its job ended
    // in the cycle before the save, and the next tick reaps it).
    const std::uint32_t per = detached_per_cluster();
    for (std::uint32_t k = 0; k < running_.size(); ++k) {
      if (machine_.cluster(k).busy() && !running_[k]) {
        throw capsule::CapsuleError(
            "capsule: cluster busy but no running job");
      }
    }
    for (std::uint32_t slot = 0; slot < detached_running_.size(); ++slot) {
      if (machine_.cluster(slot / per).detached_busy(slot % per) &&
          !detached_running_[slot]) {
        throw capsule::CapsuleError(
            "capsule: detached CE busy but no running job");
      }
    }
  }
}

bool Scheduler::idle() const {
  if (job_running() || !queue_.empty()) {
    return false;
  }
  for (const auto& job : detached_running_) {
    if (job) {
      return false;
    }
  }
  return true;
}

}  // namespace repro::os
