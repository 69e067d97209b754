#include "cache/ip_cache.hpp"

#include <utility>

#include "base/expect.hpp"

namespace repro::cache {

IpCache::IpCache(const IpCacheConfig& config, mem::MemoryBus& bus)
    : config_(config), bus_(bus) {
  REPRO_EXPECT(config.capacity_bytes >= kLineBytes,
               "IP cache must hold at least one line");
  tags_.assign(config.capacity_bytes / kLineBytes, 0);
}

void IpCache::set_snoop_hook(SnoopHook hook) { snoop_ = std::move(hook); }

bool IpCache::access(Addr addr, bool is_write) {
  ++stats_.accesses;
  const Addr line = addr / kLineBytes * kLineBytes;
  const std::size_t slot =
      static_cast<std::size_t>(line / kLineBytes) % tags_.size();
  const Addr stored = line | 1;  // Mark occupied (line addrs are 32B-aligned).

  if (is_write) {
    // The IP needs the unique copy; any CE-side copy is revoked.
    ++stats_.write_snoops;
    if (snoop_) {
      snoop_(line);
    }
  }

  if (tags_[slot] == stored) {
    return true;
  }
  ++stats_.misses;
  tags_[slot] = stored;
  bus_.submit_untracked(config_.bus, mem::MemBusOp::kIpTraffic, line);
  return false;
}

}  // namespace repro::cache
