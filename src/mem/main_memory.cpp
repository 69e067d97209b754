#include "mem/main_memory.hpp"

#include <algorithm>

#include "base/expect.hpp"

namespace repro::mem {

MainMemory::MainMemory(const MainMemoryConfig& config) : config_(config) {
  REPRO_EXPECT(config.interleave > 0 &&
                   config.interleave <= bank_free_at_.size(),
               "interleave factor out of range");
  REPRO_EXPECT(config.bank_busy_cycles > 0, "bank busy time must be positive");
}

std::uint32_t MainMemory::bank_of(Addr addr) const {
  return static_cast<std::uint32_t>((addr / kLineBytes) % config_.interleave);
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
