#include "cache/shared_cache.hpp"

#include "base/expect.hpp"

namespace repro::cache {

SharedCache::SharedCache(const SharedCacheConfig& config, mem::MemoryBus& bus,
                         std::uint32_t n_ces)
    : config_(config), bus_(bus), n_ces_(n_ces) {
  REPRO_EXPECT(config.banks > 0 && config.modules > 0 && config.ways > 0,
               "cache geometry must be positive");
  REPRO_EXPECT(config.banks % config.modules == 0,
               "banks must divide evenly across modules");
  REPRO_EXPECT(n_ces > 0 && n_ces <= kMaxTopologyCes,
               "MSHR waiter mask supports up to 64 CEs");
  const std::uint64_t total_lines = config.total_bytes / kLineBytes;
  REPRO_EXPECT(total_lines % (config.banks * config.ways) == 0,
               "cache size must factor into banks*ways*sets");
  sets_per_bank_ = total_lines / (config.banks * config.ways);
  lines_.resize(total_lines);
  if (std::has_single_bit(config.banks)) {
    bank_mask_ = config.banks - 1;
    bank_shift_ = static_cast<std::uint32_t>(std::countr_zero(config.banks));
  }
  if (std::has_single_bit(sets_per_bank_)) {
    sets_pow2_ = true;
    set_mask_ = sets_per_bank_ - 1;
  }
  banks_per_module_ = config.banks / config.modules;
  if (std::has_single_bit(banks_per_module_)) {
    modules_pow2_ = true;
    module_shift_ =
        static_cast<std::uint32_t>(std::countr_zero(banks_per_module_));
  }
}

Addr SharedCache::line_addr(Addr addr) const {
  return addr >> kLineShift << kLineShift;
}

std::uint32_t SharedCache::module_of_bank(std::uint32_t bank) const {
  REPRO_EXPECT(bank < config_.banks, "bank index out of range");
  return modules_pow2_ ? bank >> module_shift_ : bank / banks_per_module_;
}

std::size_t SharedCache::set_index(Addr addr) const {
  const std::uint32_t bank = bank_of(addr);
  std::size_t set_in_bank;
  if (bank_mask_ != 0 && sets_pow2_) {
    set_in_bank =
        static_cast<std::size_t>(addr >> kLineShift >> bank_shift_) &
        set_mask_;
  } else {
    set_in_bank = static_cast<std::size_t>(addr / kLineBytes / config_.banks) %
                  sets_per_bank_;
  }
  return (static_cast<std::size_t>(bank) * sets_per_bank_ + set_in_bank) *
         config_.ways;
}

SharedCache::Line* SharedCache::find_line(Addr addr) {
  const Addr tag = line_addr(addr);
  const std::size_t base = set_index(addr);
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    Line& line = lines_[base + w];
    if (line.state != LineState::kInvalid && line.tag == tag) {
      return &line;
    }
  }
  return nullptr;
}

const SharedCache::Line* SharedCache::find_line(Addr addr) const {
  return const_cast<SharedCache*>(this)->find_line(addr);
}

SharedCache::Line& SharedCache::victim_for(Addr addr) {
  const std::size_t base = set_index(addr);
  Line* victim = &lines_[base];
  for (std::uint32_t w = 0; w < config_.ways; ++w) {
    Line& line = lines_[base + w];
    if (line.state == LineState::kInvalid) {
      return line;
    }
    if (line.last_use < victim->last_use) {
      victim = &line;
    }
  }
  return *victim;
}

AccessOutcome SharedCache::access(CeId ce, Addr addr, AccessType type) {
  REPRO_EXPECT(ce < n_ces_, "CE index out of range");
  REPRO_EXPECT(!miss_outstanding(ce),
               "CE presented an access with a miss already outstanding");
  ++stats_.accesses;
  ++use_clock_;
  const Addr tag = line_addr(addr);

  if (Line* line = find_line(addr)) {
    // Present. Writes need a unique copy; upgrading costs an invalidate
    // broadcast but the data is already here, so the CE is not stalled.
    line->last_use = use_clock_;
    if (type == AccessType::kWrite) {
      if (line->state == LineState::kShared) {
        ++stats_.write_upgrades;
        const std::uint32_t module = module_of_bank(bank_of(addr));
        bus_.submit_untracked(module, mem::MemBusOp::kInvalidate, tag);
        line->state = LineState::kUnique;
      }
      line->dirty = true;
    }
    return AccessOutcome::kHit;
  }

  ++stats_.misses;
  const LaneMask ce_bit = LaneMask{1} << ce;
  miss_outstanding_mask_ |= ce_bit;

  // Merge with an in-flight fill of the same line if one exists: the
  // cross-CE sharing path.
  for (auto& [line_tag, fill] : fills_) {
    if (line_tag == tag) {
      fill.waiters |= ce_bit;
      fill.want_unique |= (type == AccessType::kWrite);
      ++stats_.merged_misses;
      return AccessOutcome::kMissMerged;
    }
  }

  // Fetch the line; the victim is chosen (and written back if dirty) when
  // the fill completes and the line is installed.
  const std::uint32_t module = module_of_bank(bank_of(addr));
  const mem::TxnId txn = bus_.submit(module, mem::MemBusOp::kLineFetch, tag);
  fills_.emplace_back(tag, Fill{txn, ce_bit, type == AccessType::kWrite});
  return AccessOutcome::kMissStarted;
}

void SharedCache::drain_fills() {
  for (auto it = fills_.begin(); it != fills_.end();) {
    if (!bus_.take_finished(it->second.txn)) {
      ++it;
      continue;
    }
    // Install the line (writing back the victim if needed) and wake every
    // waiter.
    Line& line = victim_for(it->first);
    if (line.state != LineState::kInvalid && line.dirty) {
      ++stats_.write_backs;
      bus_.submit_untracked(module_of_bank(bank_of(line.tag)),
                            mem::MemBusOp::kWriteBack, line.tag);
    }
    line.tag = it->first;
    line.state =
        it->second.want_unique ? LineState::kUnique : LineState::kShared;
    line.dirty = it->second.want_unique;
    line.last_use = ++use_clock_;
    fill_ready_mask_ |= it->second.waiters;
    it = fills_.erase(it);
  }
  seen_epoch_ = bus_.completion_epoch();
}

bool SharedCache::take_fill_ready(CeId ce) {
  REPRO_EXPECT(ce < n_ces_, "CE index out of range");
  const LaneMask ce_bit = LaneMask{1} << ce;
  if (fill_ready_mask_ & ce_bit) {
    fill_ready_mask_ &= ~ce_bit;
    miss_outstanding_mask_ &= ~ce_bit;
    return true;
  }
  return false;
}

void SharedCache::snoop_invalidate(Addr addr) {
  if (Line* line = find_line(addr)) {
    // Coherence rule: the IP side needs the unique copy, ours is dropped.
    // A dirty victim would be written back by hardware; account for it.
    if (line->dirty) {
      ++stats_.write_backs;
      bus_.submit_untracked(module_of_bank(bank_of(line->tag)),
                            mem::MemBusOp::kWriteBack, line->tag);
    }
    line->state = LineState::kInvalid;
    line->dirty = false;
    ++stats_.snoop_invalidations;
  }
}

bool SharedCache::contains(Addr addr) const {
  return find_line(addr) != nullptr;
}

void SharedCache::serialize(capsule::Io& io) {
  const std::uint64_t line_count = io.extent(lines_.size());
  if (io.loading() && line_count != lines_.size()) {
    throw capsule::CapsuleError("capsule: cache geometry mismatch");
  }
  for (Line& line : lines_) {
    io.u64(line.tag);
    io.enum32(line.state, LineState::kUnique);
    io.boolean(line.dirty);
    io.u64(line.last_use);
  }
  const std::uint64_t fill_count = io.extent(fills_.size());
  if (io.loading()) {
    fills_.assign(static_cast<std::size_t>(fill_count), {});
  }
  for (auto& [tag, fill] : fills_) {
    io.u64(tag);
    io.u64(fill.txn);
    io.u64(fill.waiters);
    io.boolean(fill.want_unique);
  }
  io.u64(seen_epoch_);
  io.u64(stats_.accesses);
  io.u64(stats_.misses);
  io.u64(stats_.write_upgrades);
  io.u64(stats_.write_backs);
  io.u64(stats_.merged_misses);
  io.u64(stats_.snoop_invalidations);
  io.u64(fill_ready_mask_);
  io.u64(miss_outstanding_mask_);
  io.u64(use_clock_);
}

}  // namespace repro::cache
