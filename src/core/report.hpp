// Report renderers: the paper's tables and figure-style charts as text.
#pragma once

#include <span>
#include <string>

#include "core/measures.hpp"
#include "core/regression_models.hpp"
#include "core/sample.hpp"
#include "core/study.hpp"
#include "core/transition.hpp"

namespace repro::core {

/// Table 2: "Overall Concurrency Measures for All Sessions" — c_0..c_8,
/// Cw, c_{8|c}, Pc.
[[nodiscard]] std::string render_table2(const ConcurrencyMeasures& overall);

/// Tables 3/4: regression coefficients (beta1, beta2, C) and R^2 per
/// system measure, against one regressor.
[[nodiscard]] std::string render_regression_table(
    std::span<const MedianModel> models, Regressor regressor);

/// Figure 3 style: records with N processors active, bar chart (rows
/// width..0 like the paper). `counts` holds c_0 upward and may run past
/// the machine width (TotalCounts::num spans the widest topology); only
/// its first width + 1 bins are listed.
[[nodiscard]] std::string render_active_histogram(
    std::span<const std::uint64_t> counts, std::uint32_t width,
    const std::string& title);

/// Figure 7 style: records active by processor number.
[[nodiscard]] std::string render_processor_histogram(
    std::span<const std::uint64_t> counts, const std::string& title);

/// Table A.1 style: per-session mean concurrency measures.
[[nodiscard]] std::string render_session_table(
    std::span<const SessionResult> sessions);

}  // namespace repro::core
