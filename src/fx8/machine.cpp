#include "fx8/machine.hpp"

#include <algorithm>
#include <bit>
#include <string>

#include "base/expect.hpp"
#include "base/rng.hpp"

namespace repro::fx8 {

namespace {
/// Index of the lowest set bit of a nonzero mask.
std::size_t lowest_bit(std::uint64_t mask) {
  return static_cast<std::size_t>(std::countr_zero(mask));
}
}  // namespace

void ActiveLineCycles::book(LaneMask mask, Cycle cycles,
                            std::uint32_t width) {
  const auto count = static_cast<std::uint32_t>(std::popcount(mask));
  by_count[count] += cycles;
  const bool transition = count >= 2 && count < width;
  for (; mask != 0; mask &= mask - 1) {
    const std::size_t ce = lowest_bit(mask);
    per_ce[ce] += cycles;
    if (transition) {
      per_ce_transition[ce] += cycles;
    }
  }
}

MachineConfig MachineConfig::fx8() { return MachineConfig{}; }

MachineConfig MachineConfig::fx1() {
  MachineConfig config;
  config.cluster.n_ces = 1;
  config.cluster.policy = ServicePolicy::kAscending;
  config.n_ips = 1;
  config.shared_cache.total_bytes = 64 * 1024;
  config.shared_cache.modules = 1;
  config.shared_cache.banks = 2;
  config.membus.bus_count = 1;
  return config;
}

MachineConfig MachineConfig::fx16() {
  MachineConfig config;
  config.n_clusters = 2;
  config.shared_cache.total_bytes = 256 * 1024;
  config.shared_cache.banks = 8;
  return config;
}

MachineConfig MachineConfig::fx32() {
  MachineConfig config;
  config.n_clusters = 4;
  config.shared_cache.total_bytes = 512 * 1024;
  config.shared_cache.banks = 16;
  config.shared_cache.modules = 4;
  config.membus.bus_count = 4;
  return config;
}

MachineConfig MachineConfig::fx64() {
  MachineConfig config;
  config.n_clusters = 8;
  config.shared_cache.total_bytes = 1024 * 1024;
  config.shared_cache.banks = 32;
  config.shared_cache.modules = 4;
  config.membus.bus_count = 4;
  return config;
}

Machine::Machine(const MachineConfig& config, Mmu& mmu)
    : config_(config), lane_pass_(select_lane_pass()) {
  REPRO_EXPECT(shape_valid(config.n_clusters, config.cluster.n_ces),
               "invalid machine shape: need 1..8 clusters of 1..8 CEs each");
  REPRO_EXPECT(config.membus.bus_count >= config.shared_cache.modules,
               "memory bus count " + std::to_string(config.membus.bus_count) +
                   " is below the shared cache's " +
                   std::to_string(config.shared_cache.modules) +
                   " modules (each module's misses ride the bus of its "
                   "index)");
  memory_ = std::make_unique<mem::MainMemory>(config.memory);
  membus_ = std::make_unique<mem::MemoryBus>(config.membus, *memory_);
  // Global CE ids index the MSHR waiter masks: cover every cluster.
  shared_cache_ = std::make_unique<cache::SharedCache>(
      config.shared_cache, *membus_, total_ces());

  if (config.n_clusters > 1) {
    fabric_ = std::make_unique<ClusterFabric>(config.shared_cache.banks);
  }
  clusters_.reserve(config.n_clusters);
  for (std::uint32_t i = 0; i < config.n_clusters; ++i) {
    clusters_.push_back(std::make_unique<Cluster>(
        config.cluster, *shared_cache_, mmu, lanes_, control_events_, now_,
        /*ce_base=*/i * config.cluster.n_ces));
    if (fabric_) {
      clusters_.back()->crossbar().attach_fabric(fabric_.get());
    }
  }

  std::uint64_t seed = config.seed;
  for (IpId ip = 0; ip < config.n_ips; ++ip) {
    cache::IpCacheConfig ipc;
    ipc.bus = ip % config.membus.bus_count;
    auto ip_cache = std::make_unique<cache::IpCache>(ipc, *membus_);
    ip_cache->set_snoop_hook(
        [this](Addr line) { shared_cache_->snoop_invalidate(line); });
    // IP regions sit far above job data regions so they never alias.
    const Addr region = 0xE0000000ULL + static_cast<Addr>(ip) * 0x100000ULL;
    ips_.emplace_back(ip, config.ip, region, *ip_cache, splitmix64(seed));
    ip_caches_.push_back(std::move(ip_cache));
  }
}

Cycle Machine::quiet_horizon() const {
  // The CE part comes from the lane records: on every cycle, inside a
  // block too, each lane of a live cluster records the cycle its quiet
  // horizon runs out, or is flagged in the fill-ready word (CeHot::due),
  // though its countdowns may lag until it next steps; a fill-ready bit always belongs
  // to a miss-waiting lane, so to a live cluster. Idle clusters' lanes
  // are parked and drop out with their clusters. The shared cache has no
  // horizon of its own: a fill completes only on a bus-completion tick,
  // which the bus horizon already makes run naively.
  if (shared_cache_->fill_ready_mask() != 0) {
    return 0;
  }
  Cycle due = kHorizonNever;
  for (const auto& cluster : clusters_) {
    if (!cluster->lanes_live()) {
      continue;
    }
    if (cluster->control_due()) {
      return 0;
    }
    for (CeId c = cluster->ce_base(); c < cluster->lane_end(); ++c) {
      due = std::min(due, lanes_.due[c]);
    }
  }
  if (due <= now_) {
    return 0;
  }
  Cycle horizon = due == kHorizonNever ? kHorizonNever : due - now_;
  horizon = std::min(horizon, membus_->quiet_horizon(now_));
  for (const Ip& ip : ips_) {
    horizon = std::min(horizon, ip.quiet_horizon());
    if (horizon == 0) {
      return 0;
    }
  }
  return horizon;
}

ProbeCounters Machine::probe_counters() const {
  ProbeCounters counters;
  counters.now = now_;
  counters.ce_op_cycles = lanes_.op_cycles;
  for (std::uint32_t bus = 0; bus < mem_bus_count(); ++bus) {
    for (std::size_t op = 0; op < mem::kNumMemBusOps; ++op) {
      counters.mem_op_cycles[op] +=
          membus_->op_cycles(bus, static_cast<mem::MemBusOp>(op));
    }
  }
  // The lines have read active_lines_ since active_since_: a change
  // after the last ticked cycle (an OS-layer load) shows from now_ on.
  counters.active = active_booked_;
  counters.active.book(active_lines_, now_ - active_since_, total_ces());
  return counters;
}

bool Machine::rebook_active_lines() {
  active_changes_seen_ = lanes_.active_changes;
  const LaneMask lines = active_mask();
  if (lines == active_lines_) {
    return false;
  }
  active_booked_.book(active_lines_, now_ - active_since_, total_ces());
  const bool count_changed = std::popcount(lines) != std::popcount(active_lines_);
  active_lines_ = lines;
  active_since_ = now_;
  return count_changed;
}

void Machine::run(Cycle cycles) {
  // tick_block's early stops only split the loop and it always advances
  // >= 1 cycle per call, so run() is just the block driven to completion.
  Cycle done = 0;
  while (done < cycles) {
    done += tick_block(cycles - done);
  }
}

void Machine::serialize(capsule::Io& io) {
  // The clock and the control-event counter the clusters share go first:
  // a cluster's load resyncs its lanes to the loaded clock.
  io.u64(now_);
  io.u64(control_events_);
  memory_->serialize(io);
  membus_->serialize(io);
  shared_cache_->serialize(io);
  for (auto& cluster : clusters_) {
    cluster->serialize(io);
  }
  if (fabric_) {
    // Gated on existence: the single-cluster walk stays byte-identical
    // to the pre-topology stream.
    fabric_->serialize(io);
  }
  for (auto& ip_cache : ip_caches_) {
    ip_cache->serialize(io);
  }
  for (Ip& ip : ips_) {
    ip.serialize(io);
  }
  if (io.loading()) {
    // The active-line record is bookkeeping: re-read the loaded lines
    // and count on from the loaded clock.
    active_lines_ = active_mask();
    active_since_ = now_;
    active_changes_seen_ = lanes_.active_changes;
  }
}

Cycle Machine::tick_block(Cycle max_cycles, bool stop_on_active_count) {
  mem::MemoryBus& membus = *membus_;
  cache::SharedCache& shared_cache = *shared_cache_;
  const std::uint64_t events_at_entry = control_events_;
  // The machine's one cycle loop, at every width: run every live
  // cluster's control half, then select the lanes due this cycle over
  // the live prefix of the machine's CE lanes, then step just those
  // through Ce::step() in their owning cluster, cluster-major and in
  // service order. A lane in a steady state (compute burn, miss wait,
  // fault wait) touches only its own Ce state and bus-opcode lane until
  // its quiet horizon runs out or its fill comes up, so it sits out those
  // cycles and books them through Ce's bulk-advance body just before it
  // next steps. Which lanes step early does not change the result:
  // lane_pass_reference, which steps every live lane every cycle, is the
  // naive oracle the differential tests hold the horizon selection to.
  // Phases, done_mask and the lanes' due cycles, which are all that
  // control and quiet_horizon() read of a lane, are exact on every cycle;
  // countdowns, counters and bus opcodes are exact once the block-end
  // catch-up below has run, which is the only time the probe (its latch
  // and its counters), stats() and the capsule walk read them.
  //
  // The live cluster set is fixed for the whole block. Only the OS layer
  // loads a cluster, and a cluster goes idle only on a control event,
  // which ends the block at the end of that cycle. An idle cluster's
  // lanes are parked with their bus opcodes already latched kIdle, so
  // they need neither control nor peel, nor anything at block end: a
  // cluster reads the machine clock. The selection stops at the highest
  // live lane (the scheduler fills clusters lowest-first); a lane above
  // it can never be due or hold a pending fill — either would keep its
  // cluster live.
  std::uint64_t live = 0;
  std::uint32_t live_lanes = 0;
  for (std::size_t k = 0; k < clusters_.size(); ++k) {
    if (clusters_[k]->lanes_live()) {
      live |= std::uint64_t{1} << k;
      live_lanes = clusters_[k]->lane_end();
    }
  }
  ClusterFabric* const fabric = fabric_.get();
  const LanePassFn pass = lane_pass_;
  // Fast-forward: a stretch of two or more cycles in which nothing is
  // due (quiet_horizon()) is jumped, not ticked. A stretch can open only
  // at entry or after a ticked cycle that stepped no lane and left no
  // fill ready, so only those read the horizon. A one-cycle block
  // (tick()) and the naive oracle, the jumps' reference, never jump.
  const bool may_jump = pass != &lane_pass_reference;
  bool look = may_jump;
  Cycle done = 0;
  while (done < max_cycles) {
    if (look && max_cycles - done >= 2) {
      look = false;
      const Cycle jump = std::min(quiet_horizon(), max_cycles - done);
      if (jump >= 2) {
        // Book what the quiet cycles repeat; the lanes book theirs by
        // clock lag when they next step or at the block-end catch-up.
        if (fabric != nullptr) {
          fabric->begin_cycle();
        }
        for (std::uint64_t m = live; m != 0; m &= m - 1) {
          clusters_[lowest_bit(m)]->skip(jump);
        }
        for (Ip& ip : ips_) {
          ip.skip(jump);
        }
        membus.skip(jump);
        now_ += jump;
        done += jump;
        ++jumps_;
        jumped_cycles_ += jump;
        continue;
      }
    }
    if (fabric != nullptr && !fabric->idle()) {
      fabric->begin_cycle();
    }
    for (std::uint64_t m = live; m != 0; m &= m - 1) {
      clusters_[lowest_bit(m)]->tick_control();
    }
    // Only control (and the OS layer's loads before the block) moves the
    // CCB active lines, so this cycle latches what they read now.
    const bool count_changed = lanes_.active_changes != active_changes_seen_ &&
                               rebook_active_lines();
    LaneMask due = 0;
    if (live_lanes != 0) {
      due = pass(lanes_, shared_cache.fill_ready_mask(), live_lanes, now_);
      if (due != 0) {
        for (std::uint64_t m = live; m != 0; m &= m - 1) {
          Cluster& cluster = *clusters_[lowest_bit(m)];
          if ((due & cluster.lanes_mask()) != 0) {
            cluster.tick_peel(due, now_);
          }
        }
      }
    }
    for (Ip& ip : ips_) {
      ip.tick();
    }
    membus.tick(now_);
    shared_cache.tick();
    ++now_;
    ++done;
    if (control_events_ != events_at_entry) {
      // A job or detached job completed this cycle: stop so the OS layer
      // ticks naively next cycle, exactly as lockstep ticking would.
      break;
    }
    if (count_changed && stop_on_active_count) {
      break;
    }
    look = may_jump && due == 0 && shared_cache.fill_ready_mask() == 0;
  }
  for (std::uint64_t m = live; m != 0; m &= m - 1) {
    clusters_[lowest_bit(m)]->catch_up(now_);
  }
  return done;
}

}  // namespace repro::fx8
