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
      detached_running_[slot]->finished_at = now;
      vm_.release_job(detached_running_[slot]->id);
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
    job.started_at = now;
    stats_.total_wait_cycles += now - job.submitted_at;
    counters_.increment(KernelCounter::kContextSwitches);
    detached_running_[slot] = std::move(job);
    machine_.cluster(slot / per).load_detached(
        slot % per, &detached_running_[slot]->program,
        detached_running_[slot]->id);
  }

  // Reap drained cluster jobs.
  for (std::uint32_t k = 0; k < running_.size(); ++k) {
    std::optional<Job>& running = running_[k];
    if (running && !machine_.cluster(k).busy()) {
      running->finished_at = now;
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
      running_[k] = pop_next();
      running_[k]->started_at = now;
      stats_.total_wait_cycles += now - running_[k]->submitted_at;
      counters_.increment(KernelCounter::kContextSwitches);
      machine_.cluster(k).load(&running_[k]->program, running_[k]->id);
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
  const auto job = [&io](Job& j) {
    io.u64(j.id);
    io.enum32(j.cls, JobClass::kSerialDetached);
    j.program.serialize(io);
    io.u64(j.submitted_at);
    io.u64(j.started_at);
    io.u64(j.finished_at);
  };
  const auto optional_job = [&io, &job](std::optional<Job>& slot) {
    bool present = slot.has_value();
    io.boolean(present);
    if (io.loading()) {
      slot.reset();
      if (present) {
        slot.emplace();
      }
    }
    if (present) {
      job(*slot);
    }
  };

  const std::uint64_t depth = io.extent(queue_.size());
  if (io.loading()) {
    queue_.assign(static_cast<std::size_t>(depth), Job{});
  }
  for (Job& queued : queue_) {
    job(queued);
  }
  // One slot per cluster, no extent: the slot count is structural (it
  // must match the machine), so the single-cluster stream stays
  // byte-identical to the pre-topology one-optional walk.
  for (std::optional<Job>& running : running_) {
    optional_job(running);
  }
  const std::uint64_t detached = io.extent(detached_running_.size());
  if (io.loading() && detached != detached_running_.size()) {
    throw capsule::CapsuleError("capsule: detached slot count mismatch");
  }
  for (std::optional<Job>& slot : detached_running_) {
    optional_job(slot);
  }
  io.u64(stats_.jobs_completed);
  io.u64(stats_.cluster_jobs_completed);
  io.u64(stats_.serial_jobs_completed);
  io.u64(stats_.total_wait_cycles);

  if (io.loading()) {
    // The machine's walk left each cluster's program pointers null with
    // rebind-pending flags for every slot that was mid-job; point them at
    // the programs that now live inside this scheduler's Job storage.
    const std::uint32_t per = detached_per_cluster();
    for (std::uint32_t k = 0; k < running_.size(); ++k) {
      fx8::Cluster& cluster = machine_.cluster(k);
      if (cluster.needs_program_rebind()) {
        if (!running_[k].has_value()) {
          throw capsule::CapsuleError(
              "capsule: cluster busy but no running job");
        }
        cluster.rebind_program(&running_[k]->program);
      }
      for (std::uint32_t slot = 0; slot < per; ++slot) {
        if (cluster.detached_needs_rebind(slot)) {
          const std::uint32_t flat = k * per + slot;
          if (!detached_running_[flat].has_value()) {
            throw capsule::CapsuleError(
                "capsule: detached CE busy but no running job");
          }
          cluster.rebind_detached_program(
              slot, &detached_running_[flat]->program);
        }
      }
    }
  }
}

bool Scheduler::idle() const {
  if (job_running() || !queue_.empty()) {
    return false;
  }
  for (const std::optional<Job>& job : detached_running_) {
    if (job) {
      return false;
    }
  }
  return true;
}

}  // namespace repro::os
