#include "core/speedup.hpp"

#include <sstream>

#include "base/expect.hpp"
#include "base/text.hpp"
#include "fx8/mmu.hpp"
#include "isa/program.hpp"

namespace repro::core {

namespace {

Cycle run_on_width(const isa::KernelSpec& body, std::uint64_t trip_count,
                   std::uint32_t width, const SpeedupOptions& options) {
  fx8::NoFaultMmu mmu;
  fx8::MachineConfig config = options.machine;
  config.cluster.n_ces = width;
  if (width != kMaxCes) {
    // The calibrated outer-first order is an 8-wide artifact.
    config.cluster.policy = fx8::ServicePolicy::kAscending;
  }
  if (options.quiesce_ips) {
    config.ip.duty = 0.0;
  }
  fx8::Machine machine(config, mmu);

  isa::ConcurrentLoopPhase loop;
  loop.body = body;
  loop.trip_count = trip_count;
  machine.cluster().load(isa::ProgramBuilder("speedup")
                             .data_base(0x01000000)
                             .concurrent_loop(loop)
                             .build(),
                         1);
  while (machine.cluster().busy()) {
    machine.tick();
  }
  return machine.now();
}

}  // namespace

SpeedupCurve measure_speedup(const isa::KernelSpec& body,
                             std::uint64_t trip_count,
                             const SpeedupOptions& options) {
  REPRO_EXPECT(trip_count > 0, "speedup needs at least one iteration");
  REPRO_EXPECT(options.max_processors >= 1 &&
                   options.max_processors <= kMaxCes,
               "processor range must be 1..8");
  body.validate();

  SpeedupCurve curve;
  curve.kernel = body.name;
  curve.trip_count = trip_count;
  curve.t1 = run_on_width(body, trip_count, 1, options);

  for (std::uint32_t p = 1; p <= options.max_processors; ++p) {
    SpeedupPoint point;
    point.processors = p;
    point.time = p == 1 ? curve.t1
                        : run_on_width(body, trip_count, p, options);
    point.speedup =
        static_cast<double>(curve.t1) / static_cast<double>(point.time);
    point.efficiency = point.speedup / static_cast<double>(p);
    curve.points.push_back(point);
  }
  return curve;
}

std::string render_speedup_table(const SpeedupCurve& curve) {
  std::ostringstream os;
  os << curve.kernel << " (trip " << curve.trip_count << ", T1 = "
     << curve.t1 << " cycles)\n";
  os << "  p   ";
  for (const SpeedupPoint& point : curve.points) {
    os << pad_left(std::to_string(point.processors), 7);
  }
  os << "\n  S_p ";
  for (const SpeedupPoint& point : curve.points) {
    os << pad_left(fixed(point.speedup, 2), 7);
  }
  os << "\n  E_p ";
  for (const SpeedupPoint& point : curve.points) {
    os << pad_left(fixed(point.efficiency, 2), 7);
  }
  os << '\n';
  return os.str();
}

}  // namespace repro::core
