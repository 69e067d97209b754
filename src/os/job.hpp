// Job model: a schedulable program with Concentrix resource-class tagging.
//
// "Programs may be specified to run on either the CE or the IP ... or on
// the Cluster with a particular number of processors" (Appendix C / [21]).
// In this reproduction the cluster is the measured resource, so cluster
// and detached-serial jobs both execute there (a detached serial job is a
// program with no concurrent phases — exactly the footnote under Figure 3);
// IP-class work is modelled statistically inside fx8::Ip.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "base/types.hpp"
#include "isa/program.hpp"

namespace repro::os {

enum class JobClass : std::uint8_t {
  kCluster,         ///< Numeric job using loop concurrency.
  kSerialDetached,  ///< Serial-only process (editor, compiler, shell).
};

struct Job {
  JobId id = 0;
  JobClass cls = JobClass::kCluster;
  isa::Program program;
  Cycle submitted_at = 0;
};

}  // namespace repro::os
