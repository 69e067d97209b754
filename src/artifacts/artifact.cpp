#include "artifacts/artifact.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "artifacts/inputs.hpp"

namespace repro::artifacts {

const char* to_string(ArtifactKind kind) {
  switch (kind) {
    case ArtifactKind::kTable:
      return "table";
    case ArtifactKind::kFigure:
      return "figure";
    case ArtifactKind::kAppendix:
      return "appendix";
    case ArtifactKind::kAblation:
      return "ablation";
    case ArtifactKind::kExtension:
      return "extension";
  }
  return "?";
}

const char* to_string(ArtifactStatus status) {
  switch (status) {
    case ArtifactStatus::kOk:
      return "ok";
    case ArtifactStatus::kToleranceFailed:
      return "tolerance_failed";
    case ArtifactStatus::kError:
      return "error";
  }
  return "?";
}

void ArtifactResult::serialize(capsule::Io& io) {
  io.str(id);
  io.enum32(status, ArtifactStatus::kError);
  io.str(error);
  io.str(text);
  auto n_metrics = io.extent(metrics.size());
  metrics.resize(n_metrics);
  for (Metric& metric : metrics) {
    io.str(metric.name);
    io.f64(metric.value);
  }
  auto n_checks = io.extent(checks.size());
  checks.resize(n_checks);
  for (Check& check : checks) {
    io.str(check.name);
    io.f64(check.measured);
    io.f64(check.paper);
    io.f64(check.lo);
    io.f64(check.hi);
    io.boolean(check.pass);
    io.boolean(check.enforced);
  }
}

bool Context::quick() const { return inputs_.quick(); }

std::vector<const core::RunResult*> Context::runs() {
  std::vector<const core::RunResult*> results;
  if (def_.runs) {
    for (const core::RunSpec& spec : def_.runs(inputs_)) {
      results.push_back(&inputs_.run(spec));
    }
  }
  return results;
}

void Context::printf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list measure;
  va_copy(measure, args);
  const int needed = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  if (needed > 0) {
    const std::size_t old_size = result_.text.size();
    result_.text.resize(old_size + static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(result_.text.data() + old_size,
                   static_cast<std::size_t>(needed) + 1, format, args);
    result_.text.resize(old_size + static_cast<std::size_t>(needed));
  }
  va_end(args);
}

void Context::metric(const std::string& name, double value) {
  result_.metrics.push_back({name, value});
}

bool Context::record_check(const std::string& name, double measured,
                           double paper, double lo, double hi,
                           bool enforced) {
  Check check;
  check.name = name;
  check.measured = measured;
  check.paper = paper;
  check.lo = lo;
  check.hi = hi;
  check.enforced = enforced;
  check.pass = std::isfinite(measured) && measured >= lo && measured <= hi;
  result_.checks.push_back(check);
  metric(name, measured);
  if (!check.pass && enforced &&
      result_.status == ArtifactStatus::kOk) {
    result_.status = ArtifactStatus::kToleranceFailed;
  }
  return check.pass;
}

bool Context::check(const std::string& name, double measured, double paper,
                    double lo, double hi) {
  return record_check(name, measured, paper, lo, hi, /*enforced=*/true);
}

bool Context::note(const std::string& name, double measured, double paper,
                   double lo, double hi) {
  return record_check(name, measured, paper, lo, hi, /*enforced=*/false);
}

void Context::fail(const std::string& reason) {
  result_.status = ArtifactStatus::kError;
  if (!result_.error.empty()) {
    result_.error += "; ";
  }
  result_.error += reason;
}

}  // namespace repro::artifacts
