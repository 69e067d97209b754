// Concentrix-style virtual memory: the Mmu implementation.
//
// "The system's virtual address spaces are organized as 1024 segments of
// 1024 pages per segment; pages are 4 Kbytes in length" (Appendix C). Each
// job owns a sparse resident set backed by physical frames from the
// machine's 64 MB pool; the first CE touch of a page takes a fault whose
// service time stalls the touching CE and whose occurrence bumps the
// kernel counters the software sampler reads. Reclaim happens at two
// levels: an optional per-job resident-set cap (FIFO), and global FIFO
// reclaim when physical memory is exhausted — the pressure that makes
// page-fault rate a system measure. The one translation memo is the
// fx8::Mmu base's per-CE memo; every touch() that reaches here looks the
// page up.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "base/capsule.hpp"
#include "base/types.hpp"
#include "fx8/mmu.hpp"
#include "mem/frame_allocator.hpp"
#include "os/kernel_counters.hpp"

namespace repro::os {

struct VmConfig {
  std::uint64_t segments = 1024;
  std::uint64_t pages_per_segment = 1024;
  /// CE stall for one fault service (OS handler + disk/zero-fill mix).
  Cycle fault_service_cycles = 40;
  /// Fraction of faults booked as system-mode (rest are user-mode).
  double system_fault_fraction = 0.2;
  /// Per-job resident-set cap in pages; 0 disables the per-job cap.
  std::uint64_t resident_limit_pages = 4096;
  /// Physical memory backing the frames (Appendix C: up to 64 MB).
  std::uint64_t physical_bytes = 64ULL * 1024 * 1024;
};

struct VmStats {
  std::uint64_t faults = 0;
  std::uint64_t evictions = 0;        ///< Per-job cap evictions.
  std::uint64_t global_reclaims = 0;  ///< Evictions forced by exhaustion.
};

class VirtualMemory final : public fx8::Mmu {
 public:
  VirtualMemory(const VmConfig& config, KernelCounters& counters);

  /// fx8::Mmu: first touch of a page faults (service time returned) and
  /// maps it to a physical frame; later touches are free.
  Cycle touch(JobId job, CeId ce, Addr addr) override;

  /// Drop a finished job's resident set (frames return to the pool).
  void release_job(JobId job);

  [[nodiscard]] std::uint64_t resident_pages(JobId job) const;
  [[nodiscard]] const VmStats& stats() const { return stats_; }
  [[nodiscard]] const VmConfig& config() const { return config_; }
  [[nodiscard]] const mem::FrameAllocator& frames() const { return frames_; }

  /// Capsule walk: page tables (in sorted key order — the hash maps are
  /// never iterated on behaviour-relevant paths, so the stored order is a
  /// free choice and sorting keeps the digest canonical), FIFO queues,
  /// stats, and the frame pool. A load drops the translation memos.
  void serialize(capsule::Io& io);

 private:
  struct JobPages {
    std::unordered_map<Addr, mem::FrameId> resident;
    std::deque<Addr> fifo;
  };

  /// Unmap one page of one job, returning its frame to the pool.
  void unmap(JobPages& pages, Addr page);
  /// Global FIFO reclaim of one page from any job; false if none left.
  bool reclaim_one();

  VmConfig config_;
  KernelCounters& counters_;
  mem::FrameAllocator frames_;
  std::unordered_map<JobId, JobPages> jobs_;
  /// Global mapping order for exhaustion reclaim (entries may be stale;
  /// validated lazily).
  std::deque<std::pair<JobId, Addr>> global_fifo_;
  VmStats stats_;
};

}  // namespace repro::os
