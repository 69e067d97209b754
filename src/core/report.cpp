#include "core/report.hpp"

#include <algorithm>
#include <sstream>

#include "base/expect.hpp"
#include "base/text.hpp"
#include "stats/freq_table.hpp"

namespace repro::core {

std::string render_table2(const ConcurrencyMeasures& overall) {
  std::ostringstream os;
  os << "TABLE 2. Overall Concurrency Measures for All Sessions.\n";
  os << "  ";
  for (std::uint32_t j = 0; j <= overall.width; ++j) {
    std::string label = "c";
    label += std::to_string(j);
    os << pad_left(label, 8);
  }
  os << pad_left("Cw", 8)
     << pad_left("c(" + std::to_string(overall.width) + "|c)", 8)
     << pad_left("Pc", 8) << '\n';
  os << "  ";
  for (std::uint32_t j = 0; j <= overall.width; ++j) {
    os << pad_left(fixed(overall.c[j], 4), 8);
  }
  os << pad_left(fixed(overall.cw, 4), 8)
     << pad_left(
            overall.pc_defined ? fixed(overall.c_cond[overall.width], 4)
                               : "n/a",
            8)
     << pad_left(overall.pc_defined ? fixed(overall.pc, 2) : "n/a", 8)
     << '\n';
  return os.str();
}

std::string render_regression_table(std::span<const MedianModel> models,
                                    Regressor regressor) {
  std::ostringstream os;
  os << "Regression Models — System Measure vs. "
     << (regressor == Regressor::kCw ? "Cw" : "Pc") << '\n';
  os << "  " << pad_right("System Measure", 26) << pad_left("beta1", 12)
     << pad_left("beta2", 12) << pad_left("C", 12) << pad_left("R^2", 8)
     << '\n';
  for (const MedianModel& model : models) {
    if (model.regressor != regressor) {
      continue;
    }
    os << "  " << pad_right(measure_name(model.measure), 26);
    if (model.fit) {
      os << pad_left(scientific(model.fit->coeffs[1], 2), 12)
         << pad_left(scientific(model.fit->coeffs[2], 2), 12)
         << pad_left(scientific(model.fit->coeffs[0], 2), 12)
         << pad_left(fixed(model.fit->r_squared, 2), 8) << '\n';
    } else {
      os << pad_left("n/a", 12) << pad_left("n/a", 12) << pad_left("n/a", 12)
         << pad_left("n/a", 8) << '\n';
    }
  }
  return os.str();
}

std::string render_active_histogram(std::span<const std::uint64_t> counts,
                                    std::uint32_t width,
                                    const std::string& title) {
  REPRO_EXPECT(width < counts.size(), "histogram narrower than its width");
  counts = counts.first(width + 1);
  // The paper lists rows top-down from the highest processor count.
  std::vector<std::uint64_t> reversed(counts.rbegin(), counts.rend());
  std::vector<std::string> labels;
  for (std::size_t j = counts.size(); j-- > 0;) {
    labels.push_back(std::to_string(j));
  }
  std::ostringstream os;
  os << title << '\n'
     << "NUMBER OF PROCESSORS\n"
     << stats::FreqTable::from_counts(reversed, labels).render();
  return os.str();
}

std::string render_processor_histogram(std::span<const std::uint64_t> counts,
                                       const std::string& title) {
  std::vector<std::string> labels;
  for (std::size_t j = 0; j < counts.size(); ++j) {
    labels.push_back("CE" + std::to_string(j));
  }
  std::ostringstream os;
  os << title << '\n'
     << "PROCESSOR NUMBER\n"
     << stats::FreqTable::from_counts(counts, labels).render();
  return os.str();
}

std::string render_session_table(std::span<const SessionResult> sessions) {
  std::ostringstream os;
  os << "Table A.1. Mean Concurrency Measures for Random Samples.\n";
  const std::uint32_t width =
      sessions.empty() ? kMaxCes : sessions.front().overall.width;
  os << "  " << pad_right("Session", 30) << pad_left("samples", 9)
     << pad_left("Cw", 9) << pad_left("Pc", 9)
     << pad_left("c(" + std::to_string(width) + "|c)", 9) << '\n';
  for (const SessionResult& session : sessions) {
    os << "  " << pad_right(session.name, 30)
       << pad_left(std::to_string(session.samples.size()), 9)
       << pad_left(fixed(session.overall.cw, 4), 9)
       << pad_left(
              session.overall.pc_defined ? fixed(session.overall.pc, 2)
                                         : "n/a",
              9)
       << pad_left(session.overall.pc_defined
                       ? fixed(session.overall.c_cond[session.overall.width],
                               3)
                       : "n/a",
                   9)
       << '\n';
  }
  return os.str();
}

}  // namespace repro::core
