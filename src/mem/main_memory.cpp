#include "mem/main_memory.hpp"

#include <algorithm>
#include <bit>

#include "base/expect.hpp"

namespace repro::mem {

MainMemory::MainMemory(const MainMemoryConfig& config) : config_(config) {
  REPRO_EXPECT(config.interleave > 0 &&
                   config.interleave <= bank_free_at_.size(),
               "interleave factor out of range");
  REPRO_EXPECT(config.bank_busy_cycles > 0, "bank busy time must be positive");
  if (std::has_single_bit(config.interleave)) {
    bank_mask_ = config.interleave - 1;
  }
}

std::uint32_t MainMemory::bank_of(Addr addr) const {
  const Addr line = addr / kLineBytes;
  if (bank_mask_ != 0 || config_.interleave == 1) {
    return static_cast<std::uint32_t>(line) & bank_mask_;
  }
  return static_cast<std::uint32_t>(line % config_.interleave);
}

Cycle MainMemory::earliest_start(Addr addr, Cycle now) const {
  return std::max(now, bank_free_at_[bank_of(addr)]);
}

Cycle MainMemory::begin_access(Addr addr, Cycle start) {
  const std::uint32_t bank = bank_of(addr);
  REPRO_EXPECT(start >= bank_free_at_[bank],
               "access scheduled while bank still busy");
  const Cycle done = start + config_.bank_busy_cycles;
  bank_free_at_[bank] = done;
  ++accesses_;
  return done;
}

}  // namespace repro::mem
