#include "os/vm.hpp"

#include <algorithm>
#include <vector>

#include "base/expect.hpp"
#include "base/rng.hpp"

namespace repro::os {

VirtualMemory::VirtualMemory(const VmConfig& config, KernelCounters& counters)
    : config_(config), counters_(counters),
      frames_(config.physical_bytes) {
  REPRO_EXPECT(config.segments > 0 && config.pages_per_segment > 0,
               "address space must be non-empty");
  REPRO_EXPECT(config.system_fault_fraction >= 0.0 &&
                   config.system_fault_fraction <= 1.0,
               "system fault fraction must be a probability");
}

void VirtualMemory::unmap(JobPages& pages, Addr page) {
  invalidate_translations();
  const auto it = pages.resident.find(page);
  if (it == pages.resident.end()) {
    return;
  }
  frames_.free(it->second);
  pages.resident.erase(it);
  counters_.increment(KernelCounter::kPagesEvicted);
}

bool VirtualMemory::reclaim_one() {
  while (!global_fifo_.empty()) {
    const auto [job, page] = global_fifo_.front();
    global_fifo_.pop_front();
    const auto job_it = jobs_.find(job);
    if (job_it == jobs_.end()) {
      continue;  // Job released; entry stale.
    }
    if (!job_it->second.resident.contains(page)) {
      continue;  // Evicted earlier; entry stale.
    }
    unmap(job_it->second, page);
    ++stats_.global_reclaims;
    return true;
  }
  return false;
}

Cycle VirtualMemory::touch(JobId job, CeId ce, Addr addr) {
  const Addr page = addr / kPageBytes;
  const Addr limit =
      config_.segments * config_.pages_per_segment * kPageBytes;
  REPRO_EXPECT(addr < limit, "virtual address beyond the segmented space");

  JobPages& pages = jobs_[job];
  if (pages.resident.contains(page)) {
    return 0;
  }

  // Page fault: find a frame (reclaiming under exhaustion), map, account.
  std::optional<mem::FrameId> frame = frames_.allocate();
  while (!frame) {
    REPRO_ENSURE(reclaim_one(),
                 "physical memory exhausted with nothing reclaimable");
    frame = frames_.allocate();
  }
  pages.resident.emplace(page, *frame);
  pages.fifo.push_back(page);
  global_fifo_.emplace_back(job, page);
  ++stats_.faults;
  counters_.increment(KernelCounter::kPagesMapped);

  // Deterministically classify user vs system mode from the fault site.
  const bool system_mode =
      static_cast<double>(mix64(page ^ (job << 20) ^ ce) >> 11) * 0x1.0p-53 <
      config_.system_fault_fraction;
  counters_.increment(system_mode ? KernelCounter::kCePageFaultsSystem
                                  : KernelCounter::kCePageFaultsUser);

  if (config_.resident_limit_pages > 0 &&
      pages.resident.size() > config_.resident_limit_pages) {
    // Per-job FIFO cap: skip stale queue entries.
    while (!pages.fifo.empty()) {
      const Addr victim = pages.fifo.front();
      pages.fifo.pop_front();
      if (pages.resident.contains(victim)) {
        unmap(pages, victim);
        ++stats_.evictions;
        break;
      }
    }
  }
  return config_.fault_service_cycles;
}

void VirtualMemory::release_job(JobId job) {
  invalidate_translations();
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return;
  }
  for (const auto& [page, frame] : it->second.resident) {
    frames_.free(frame);
  }
  jobs_.erase(it);
}

std::uint64_t VirtualMemory::resident_pages(JobId job) const {
  const auto it = jobs_.find(job);
  return it == jobs_.end() ? 0 : it->second.resident.size();
}

void VirtualMemory::serialize(capsule::Io& io) {
  // Page tables. The unordered_maps are only ever iterated in
  // release_job's frame frees (order-independent), so serializing them in
  // sorted key order is behaviour-neutral and makes save/digest canonical.
  const std::uint64_t job_count = io.extent(jobs_.size());
  if (io.loading()) {
    jobs_.clear();
    for (std::uint64_t j = 0; j < job_count; ++j) {
      JobId job = 0;
      io.u64(job);
      JobPages& pages = jobs_[job];
      const std::uint64_t resident = io.extent(0);
      for (std::uint64_t p = 0; p < resident; ++p) {
        Addr page = 0;
        mem::FrameId frame = 0;
        io.u64(page);
        io.u64(frame);
        pages.resident.emplace(page, frame);
      }
      const std::uint64_t fifo_depth = io.extent(0);
      pages.fifo.assign(static_cast<std::size_t>(fifo_depth), 0);
      for (Addr& page : pages.fifo) {
        io.u64(page);
      }
    }
  } else {
    std::vector<JobId> job_ids;
    job_ids.reserve(jobs_.size());
    for (const auto& [job, pages] : jobs_) {
      job_ids.push_back(job);
    }
    std::sort(job_ids.begin(), job_ids.end());
    for (JobId job : job_ids) {
      io.u64(job);
      JobPages& pages = jobs_[job];
      std::vector<Addr> resident_pages_sorted;
      resident_pages_sorted.reserve(pages.resident.size());
      for (const auto& [page, frame] : pages.resident) {
        resident_pages_sorted.push_back(page);
      }
      std::sort(resident_pages_sorted.begin(), resident_pages_sorted.end());
      std::uint64_t resident = io.extent(resident_pages_sorted.size());
      (void)resident;
      for (Addr page : resident_pages_sorted) {
        io.u64(page);
        io.u64(pages.resident.at(page));
      }
      std::uint64_t fifo_depth = io.extent(pages.fifo.size());
      (void)fifo_depth;
      for (Addr& page : pages.fifo) {
        io.u64(page);
      }
    }
  }

  // Global reclaim FIFO.
  const std::uint64_t global_depth = io.extent(global_fifo_.size());
  if (io.loading()) {
    global_fifo_.assign(static_cast<std::size_t>(global_depth), {0, 0});
  }
  for (auto& [job, page] : global_fifo_) {
    io.u64(job);
    io.u64(page);
  }

  io.u64(stats_.faults);
  io.u64(stats_.evictions);
  io.u64(stats_.global_reclaims);
  frames_.serialize(io);
  if (io.loading()) {
    // The loaded page tables replace the ones the memos were taken from.
    invalidate_translations();
  }
}

}  // namespace repro::os
