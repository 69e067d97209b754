#include "os/system.hpp"

#include <utility>

namespace repro::os {

System::System(const SystemConfig& config) : config_(config) {
  vm_ = std::make_unique<VirtualMemory>(config.vm, counters_);
  machine_ = std::make_unique<fx8::Machine>(config.machine, *vm_);
  scheduler_ = std::make_unique<Scheduler>(*machine_, *vm_, counters_,
                                           config.scheduling);
}

void System::tick() {
  scheduler_->tick(machine_->now());
  machine_->tick();
}

void System::run(Cycle cycles) {
  Scheduler& scheduler = *scheduler_;
  fx8::Machine& machine = *machine_;
  for (Cycle i = 0; i < cycles; ++i) {
    scheduler.tick(machine.now());
    machine.tick();
  }
}

void System::serialize(capsule::Io& io) {
  counters_.serialize(io);
  vm_->serialize(io);
  machine_->serialize(io);
  scheduler_->serialize(io);  // Last: its load check reads the clusters.
}

std::uint64_t System::state_digest() {
  capsule::Io io = capsule::Io::digester();
  serialize(io);
  return io.digest();
}

void serialize_config(capsule::Io& io, SystemConfig& c) {
  io.u32(c.machine.memory.interleave);
  io.u32(c.machine.memory.bank_busy_cycles);
  io.u32(c.machine.membus.bus_count);
  io.u32(c.machine.membus.transfer_cycles);
  io.u32(c.machine.membus.invalidate_cycles);
  io.u64(c.machine.shared_cache.total_bytes);
  io.u32(c.machine.shared_cache.banks);
  io.u32(c.machine.shared_cache.modules);
  io.u32(c.machine.shared_cache.ways);
  io.u32(c.machine.cluster.n_ces);
  io.enum32(c.machine.cluster.policy, fx8::ServicePolicy::kRotating);
  io.enum32(c.machine.cluster.dispatch,
            fx8::DispatchPolicy::kStaticChunked);
  io.u64(c.machine.cluster.icache_bytes);
  io.u32(c.machine.cluster.detached_ces);
  io.f64(c.machine.ip.duty);
  io.u32(c.machine.ip.access_interval);
  io.f64(c.machine.ip.write_fraction);
  io.u64(c.machine.ip.working_set_bytes);
  io.u32(c.machine.ip.mean_burst_cycles);
  io.f64(c.machine.ip.jump_prob);
  io.u32(c.machine.n_ips);
  io.u64(c.machine.seed);
  io.u32(c.machine.n_clusters);
  io.u64(c.vm.segments);
  io.u64(c.vm.pages_per_segment);
  io.u64(c.vm.fault_service_cycles);
  io.f64(c.vm.system_fault_fraction);
  io.u64(c.vm.resident_limit_pages);
  io.u64(c.vm.physical_bytes);
  io.enum32(c.scheduling, SchedulingPolicy::kSerialFirst);
}

std::uint64_t config_fingerprint(const SystemConfig& config) {
  // Walk a mutable copy of the config through a digester: structure is
  // what the state walk assumes, so structure is what the capsule pins.
  capsule::Io io = capsule::Io::digester();
  SystemConfig c = config;
  serialize_config(io, c);
  return io.digest();
}

std::uint64_t System::config_fingerprint() const {
  return os::config_fingerprint(config_);
}

std::vector<std::uint8_t> System::save_capsule() {
  capsule::Io io = capsule::Io::saver();
  std::uint64_t fingerprint = config_fingerprint();
  io.u64(fingerprint);
  serialize(io);
  return capsule::seal(io.bytes());
}

void System::load_capsule(const std::vector<std::uint8_t>& sealed) {
  capsule::Io io = capsule::Io::loader(capsule::unseal(sealed));
  std::uint64_t fingerprint = 0;
  io.u64(fingerprint);
  if (fingerprint != config_fingerprint()) {
    throw capsule::CapsuleError(
        "capsule: config fingerprint mismatch (capsule was saved from a "
        "system with a different configuration)");
  }
  serialize(io);
  if (!io.exhausted()) {
    throw capsule::CapsuleError("capsule: trailing bytes after state walk");
  }
}

}  // namespace repro::os
