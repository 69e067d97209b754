#include "oracle/oracle.hpp"

#include "base/capsule.hpp"

namespace repro::oracle {

namespace {

template <typename Walk>
void add(std::vector<Component>& out, std::string path, Walk&& walk) {
  capsule::Io io = capsule::Io::digester();
  walk(io);
  out.push_back({std::move(path), io.digest()});
}

}  // namespace

std::vector<Component> machine_components(fx8::Machine& machine) {
  std::vector<Component> out;
  add(out, "machine.memory",
      [&](capsule::Io& io) { machine.memory().serialize(io); });
  add(out, "machine.membus",
      [&](capsule::Io& io) { machine.membus().serialize(io); });
  add(out, "machine.shared_cache",
      [&](capsule::Io& io) { machine.shared_cache().serialize(io); });
  for (std::uint32_t i = 0; i < machine.n_clusters(); ++i) {
    fx8::Cluster& cluster = machine.cluster(i);
    const std::string path = "machine.cluster[" + std::to_string(i) + "]";
    for (CeId j = 0; j < cluster.width(); ++j) {
      add(out, path + ".ce[" + std::to_string(j) + "]",
          [&](capsule::Io& io) { cluster.ce(j).serialize(io); });
    }
    add(out, path, [&](capsule::Io& io) { cluster.serialize(io); });
  }
  if (machine.fabric() != nullptr) {
    add(out, "machine.fabric",
        [&](capsule::Io& io) { machine.fabric()->serialize(io); });
  }
  for (std::uint32_t k = 0; k < machine.ips().size(); ++k) {
    add(out, "machine.ip[" + std::to_string(k) + "]", [&](capsule::Io& io) {
      machine.ip_cache(k).serialize(io);
      machine.ips()[k].serialize(io);
    });
  }
  add(out, "machine.clock", [&](capsule::Io& io) {
    std::uint64_t now = machine.now();
    io.u64(now);
    std::uint64_t events = machine.cluster().control_events();
    io.u64(events);
  });
  return out;
}

std::string first_divergence(const std::vector<Component>& reference,
                             const std::vector<Component>& candidate) {
  for (std::size_t i = 0; i < reference.size() && i < candidate.size();
       ++i) {
    if (reference[i].digest != candidate[i].digest) {
      return reference[i].path;
    }
  }
  return "unattributed";
}

::testing::AssertionResult same_machine(fx8::Machine& reference,
                                        fx8::Machine& candidate) {
  capsule::Io a = capsule::Io::digester();
  reference.serialize(a);
  capsule::Io b = capsule::Io::digester();
  candidate.serialize(b);
  if (a.digest() == b.digest()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "at cycle " << reference.now() << ": first divergence in "
         << first_divergence(machine_components(reference),
                             machine_components(candidate));
}

}  // namespace repro::oracle
