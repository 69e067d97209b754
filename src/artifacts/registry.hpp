// The artifact catalog: every paper table/figure/appendix plus the
// design ablations and §6 extensions, in paper order.
//
// Registration is explicit (no static-initializer tricks that a static
// library's linker could drop): registry.cpp calls each group's
// register_* function once, and the catalog order is the paper's order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "artifacts/artifact.hpp"

namespace repro::artifacts {

/// Every registered artifact, in catalog (paper) order.
[[nodiscard]] const std::vector<ArtifactDef>& catalog();

/// Lookup by id; nullptr when unknown.
[[nodiscard]] const ArtifactDef* find_artifact(const std::string& id);

/// The catalog id nearest to `id` by edit distance ("did you mean"),
/// preferring the earlier catalog entry on ties. Never nullptr while the
/// catalog is non-empty.
[[nodiscard]] const ArtifactDef* suggest_artifact(const std::string& id);

/// The stock FX/8, FX/16, FX/32 or FX/64 (extensions.cpp).
[[nodiscard]] os::SystemConfig width_config(std::uint32_t width);

/// One point of the width studies: `mix` sampled on `system`, its
/// arrival bursts deepened by the cluster count (extensions.cpp).
[[nodiscard]] core::RunSpec width_run(const os::SystemConfig& system,
                                      workload::WorkloadMix mix,
                                      std::uint64_t seed, const Inputs& in);

// Group registrars (one per artifacts/*.cpp registration file).
void register_tables(std::vector<ArtifactDef>& catalog);
void register_study_figures(std::vector<ArtifactDef>& catalog);
void register_transition_figures(std::vector<ArtifactDef>& catalog);
void register_model_figures(std::vector<ArtifactDef>& catalog);
void register_appendices(std::vector<ArtifactDef>& catalog);
void register_ablations(std::vector<ArtifactDef>& catalog);
void register_extensions(std::vector<ArtifactDef>& catalog);
void register_contention(std::vector<ArtifactDef>& catalog);
void register_perf(std::vector<ArtifactDef>& catalog);

}  // namespace repro::artifacts
