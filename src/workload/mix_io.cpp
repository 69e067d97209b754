#include "workload/mix_io.hpp"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "base/expect.hpp"

namespace repro::workload {

namespace {

void emit(std::ostringstream& os, const char* key, double value) {
  os << key << " = " << value << '\n';
}

void emit(std::ostringstream& os, const char* key, std::uint64_t value) {
  os << key << " = " << value << '\n';
}

double parse_double(const std::string& value, const std::string& line) {
  double out = 0.0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  REPRO_EXPECT(ec == std::errc{} && ptr == end && std::isfinite(out),
               "malformed or non-finite numeric value in: " + line);
  return out;
}

std::uint64_t parse_u64(const std::string& value, const std::string& line) {
  std::uint64_t out = 0;
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, out);
  REPRO_EXPECT(ec == std::errc{} && ptr == end,
               "malformed integer value in: " + line);
  return out;
}

std::uint32_t parse_u32(const std::string& value, const std::string& line) {
  const std::uint64_t out = parse_u64(value, line);
  REPRO_EXPECT(out <= std::numeric_limits<std::uint32_t>::max(),
               "integer value out of range in: " + line);
  return static_cast<std::uint32_t>(out);
}

std::string trim(const std::string& s) {
  const auto first = s.find_first_not_of(" \t\r");
  if (first == std::string::npos) {
    return "";
  }
  const auto last = s.find_last_not_of(" \t\r");
  return s.substr(first, last - first + 1);
}

}  // namespace

std::string mix_to_text(const WorkloadMix& mix) {
  std::ostringstream os;
  os.precision(17);
  os << "# fx8-concurrency workload mix\n";
  os << "name = " << mix.name << '\n';
  emit(os, "concurrent_job_fraction", mix.concurrent_job_fraction);
  emit(os, "mean_idle_cycles", mix.mean_idle_cycles);
  emit(os, "mean_burst_jobs", mix.mean_burst_jobs);

  emit(os, "contention_job_fraction", mix.contention_job_fraction);
  emit(os, "contention.rcu_fraction", mix.contention.rcu_fraction);
  const LockJobParams& cl = mix.contention.lock;
  os << "contention.lock.type = " << to_string(cl.lock) << '\n';
  emit(os, "contention.lock.contenders", std::uint64_t{cl.contenders});
  emit(os, "contention.lock.min_rounds", std::uint64_t{cl.min_rounds});
  emit(os, "contention.lock.max_rounds", std::uint64_t{cl.max_rounds});
  emit(os, "contention.lock.critical_steps",
       std::uint64_t{cl.critical_steps});
  emit(os, "contention.lock.parallel_steps",
       std::uint64_t{cl.parallel_steps});
  emit(os, "contention.lock.ticket_handoff_steps",
       std::uint64_t{cl.ticket_handoff_steps});
  const RcuJobParams& cr = mix.contention.rcu;
  emit(os, "contention.rcu.readers", std::uint64_t{cr.readers});
  emit(os, "contention.rcu.min_rounds", std::uint64_t{cr.min_rounds});
  emit(os, "contention.rcu.max_rounds", std::uint64_t{cr.max_rounds});
  emit(os, "contention.rcu.reader_steps", std::uint64_t{cr.reader_steps});
  emit(os, "contention.rcu.writer_steps", std::uint64_t{cr.writer_steps});
  emit(os, "contention.rcu.writer_every", std::uint64_t{cr.writer_every});

  const NumericJobParams& n = mix.numeric;
  emit(os, "numeric.min_loops", std::uint64_t{n.min_loops});
  emit(os, "numeric.max_loops", std::uint64_t{n.max_loops});
  emit(os, "numeric.min_setup_reps", std::uint64_t{n.min_setup_reps});
  emit(os, "numeric.max_setup_reps", std::uint64_t{n.max_setup_reps});
  emit(os, "numeric.dependence_prob", n.dependence_prob);
  emit(os, "numeric.long_path_prob", n.long_path_prob);
  emit(os, "numeric.long_path_extra_steps",
       std::uint64_t{n.long_path_extra_steps});

  const TripLaw& t = n.trip_law;
  emit(os, "trip.weight_multiple_of_width", t.weight_multiple_of_width);
  emit(os, "trip.weight_two_leftover", t.weight_two_leftover);
  emit(os, "trip.weight_uniform", t.weight_uniform);
  emit(os, "trip.weight_narrow", t.weight_narrow);
  emit(os, "trip.min_batches", t.min_batches);
  emit(os, "trip.max_batches", t.max_batches);
  emit(os, "trip.width", std::uint64_t{t.width});

  const KernelTuning& k = n.tuning;
  emit(os, "tuning.concurrent_compute_cycles",
       std::uint64_t{k.concurrent_compute_cycles});
  emit(os, "tuning.vector_fraction", k.vector_fraction);
  emit(os, "tuning.concurrent_working_set", k.concurrent_working_set);
  emit(os, "tuning.concurrent_stride", k.concurrent_stride);
  emit(os, "tuning.concurrent_steps_scale",
       std::uint64_t{k.concurrent_steps_scale});
  emit(os, "tuning.serial_hot_fraction", k.serial_hot_fraction);

  emit(os, "serial.min_reps", std::uint64_t{mix.serial.min_reps});
  emit(os, "serial.max_reps", std::uint64_t{mix.serial.max_reps});
  return os.str();
}

WorkloadMix parse_mix(const std::string& text) {
  WorkloadMix mix;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    const std::string stripped = trim(line);
    if (stripped.empty() || stripped[0] == '#') {
      continue;
    }
    const auto eq = stripped.find('=');
    REPRO_EXPECT(eq != std::string::npos, "missing '=' in: " + line);
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    REPRO_EXPECT(!key.empty() && !value.empty(),
                 "empty key or value in: " + line);

    NumericJobParams& n = mix.numeric;
    TripLaw& t = n.trip_law;
    KernelTuning& k = n.tuning;
    if (key == "name") {
      mix.name = value;
    } else if (key == "concurrent_job_fraction") {
      mix.concurrent_job_fraction = parse_double(value, line);
    } else if (key == "mean_idle_cycles") {
      mix.mean_idle_cycles = parse_double(value, line);
    } else if (key == "mean_burst_jobs") {
      mix.mean_burst_jobs = parse_double(value, line);
    } else if (key == "contention_job_fraction") {
      mix.contention_job_fraction = parse_double(value, line);
    } else if (key == "contention.rcu_fraction") {
      mix.contention.rcu_fraction = parse_double(value, line);
    } else if (key == "contention.lock.type") {
      if (value == "ticket") {
        mix.contention.lock.lock = LockType::kTicket;
      } else if (value == "mcs") {
        mix.contention.lock.lock = LockType::kMcs;
      } else {
        REPRO_EXPECT(false, "unknown lock type in: " + line);
      }
    } else if (key == "contention.lock.contenders") {
      mix.contention.lock.contenders = parse_u32(value, line);
    } else if (key == "contention.lock.min_rounds") {
      mix.contention.lock.min_rounds = parse_u32(value, line);
    } else if (key == "contention.lock.max_rounds") {
      mix.contention.lock.max_rounds = parse_u32(value, line);
    } else if (key == "contention.lock.critical_steps") {
      mix.contention.lock.critical_steps = parse_u32(value, line);
    } else if (key == "contention.lock.parallel_steps") {
      mix.contention.lock.parallel_steps = parse_u32(value, line);
    } else if (key == "contention.lock.ticket_handoff_steps") {
      mix.contention.lock.ticket_handoff_steps = parse_u32(value, line);
    } else if (key == "contention.rcu.readers") {
      mix.contention.rcu.readers = parse_u32(value, line);
    } else if (key == "contention.rcu.min_rounds") {
      mix.contention.rcu.min_rounds = parse_u32(value, line);
    } else if (key == "contention.rcu.max_rounds") {
      mix.contention.rcu.max_rounds = parse_u32(value, line);
    } else if (key == "contention.rcu.reader_steps") {
      mix.contention.rcu.reader_steps = parse_u32(value, line);
    } else if (key == "contention.rcu.writer_steps") {
      mix.contention.rcu.writer_steps = parse_u32(value, line);
    } else if (key == "contention.rcu.writer_every") {
      mix.contention.rcu.writer_every = parse_u32(value, line);
    } else if (key == "numeric.min_loops") {
      n.min_loops = parse_u32(value, line);
    } else if (key == "numeric.max_loops") {
      n.max_loops = parse_u32(value, line);
    } else if (key == "numeric.min_setup_reps") {
      n.min_setup_reps = parse_u32(value, line);
    } else if (key == "numeric.max_setup_reps") {
      n.max_setup_reps = parse_u32(value, line);
    } else if (key == "numeric.dependence_prob") {
      n.dependence_prob = parse_double(value, line);
    } else if (key == "numeric.long_path_prob") {
      n.long_path_prob = parse_double(value, line);
    } else if (key == "numeric.long_path_extra_steps") {
      n.long_path_extra_steps = parse_u32(value, line);
    } else if (key == "trip.weight_multiple_of_width") {
      t.weight_multiple_of_width = parse_double(value, line);
    } else if (key == "trip.weight_two_leftover") {
      t.weight_two_leftover = parse_double(value, line);
    } else if (key == "trip.weight_uniform") {
      t.weight_uniform = parse_double(value, line);
    } else if (key == "trip.weight_narrow") {
      t.weight_narrow = parse_double(value, line);
    } else if (key == "trip.min_batches") {
      t.min_batches = parse_u64(value, line);
    } else if (key == "trip.max_batches") {
      t.max_batches = parse_u64(value, line);
    } else if (key == "trip.width") {
      t.width = parse_u32(value, line);
    } else if (key == "tuning.concurrent_compute_cycles") {
      k.concurrent_compute_cycles = parse_u32(value, line);
    } else if (key == "tuning.vector_fraction") {
      k.vector_fraction = parse_double(value, line);
    } else if (key == "tuning.concurrent_working_set") {
      k.concurrent_working_set = parse_u64(value, line);
    } else if (key == "tuning.concurrent_stride") {
      k.concurrent_stride = parse_u64(value, line);
    } else if (key == "tuning.concurrent_steps_scale") {
      k.concurrent_steps_scale = parse_u32(value, line);
    } else if (key == "tuning.serial_hot_fraction") {
      k.serial_hot_fraction = parse_double(value, line);
    } else if (key == "serial.min_reps") {
      mix.serial.min_reps = parse_u32(value, line);
    } else if (key == "serial.max_reps") {
      mix.serial.max_reps = parse_u32(value, line);
    } else {
      REPRO_EXPECT(false, "unknown key in: " + line);
    }
  }
  mix.validate();
  return mix;
}

}  // namespace repro::workload
