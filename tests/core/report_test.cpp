#include "core/report.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/regression_models.hpp"

namespace repro::core {
namespace {

ConcurrencyMeasures table2_measures() {
  const std::vector<std::uint64_t> counts = {4142, 2351, 100, 15, 22,
                                             5,    25,   545, 2795};
  return ConcurrencyMeasures::from_counts(counts);
}

TEST(Report, Table2ShowsAllMeasureValues) {
  const std::string table = render_table2(table2_measures());
  EXPECT_NE(table.find("0.2795"), std::string::npos);  // c8
  EXPECT_NE(table.find("0.3507"), std::string::npos);  // Cw
  EXPECT_NE(table.find("7.61"), std::string::npos);    // Pc
}

TEST(Report, Table2HandlesUndefinedPc) {
  const std::vector<std::uint64_t> counts = {50, 50, 0, 0, 0, 0, 0, 0, 0};
  const std::string table =
      render_table2(ConcurrencyMeasures::from_counts(counts));
  EXPECT_NE(table.find("n/a"), std::string::npos);
}

TEST(Report, RegressionTableFiltersByRegressor) {
  MedianModel cw_model;
  cw_model.measure = SystemMeasure::kMissRate;
  cw_model.regressor = Regressor::kCw;
  cw_model.fit = stats::PolyFit{{1e-3, 2e-2, 3e-3}, 0.74};
  MedianModel pc_model = cw_model;
  pc_model.regressor = Regressor::kPc;
  pc_model.fit->r_squared = 0.07;
  const std::vector<MedianModel> models = {cw_model, pc_model};

  const std::string cw_table =
      render_regression_table(models, Regressor::kCw);
  EXPECT_NE(cw_table.find("0.74"), std::string::npos);
  EXPECT_EQ(cw_table.find("0.07"), std::string::npos);

  const std::string pc_table =
      render_regression_table(models, Regressor::kPc);
  EXPECT_NE(pc_table.find("0.07"), std::string::npos);
  EXPECT_NE(pc_table.find("vs. Pc"), std::string::npos);
}

TEST(Report, ActiveHistogramListsTopDown) {
  const std::vector<std::uint64_t> counts = {10, 20, 0, 0, 0, 0, 0, 0, 90};
  const std::string chart =
      render_active_histogram(counts, 8, "test title");
  EXPECT_NE(chart.find("test title"), std::string::npos);
  // Row "8" appears before row "0".
  const auto eight = chart.find("\n8 ");
  const auto zero = chart.find("\n0 ");
  ASSERT_NE(eight, std::string::npos);
  ASSERT_NE(zero, std::string::npos);
  EXPECT_LT(eight, zero);
  EXPECT_NE(chart.find("TOTAL: 120"), std::string::npos);

  // A study's counts span the widest topology (65 bins); an FX/8 lists
  // rows 8..0 only.
  std::vector<std::uint64_t> wide(kMaxTopologyCes + 1, 0);
  std::copy(counts.begin(), counts.end(), wide.begin());
  const std::string fx8_chart = render_active_histogram(wide, 8, "wide");
  EXPECT_EQ(fx8_chart, "wide" + chart.substr(chart.find('\n')));
  EXPECT_EQ(fx8_chart.find("\n9 "), std::string::npos);
  EXPECT_EQ(fx8_chart.find("\n64 "), std::string::npos);
}

TEST(Report, ProcessorHistogramLabelsCes) {
  const std::vector<std::uint64_t> counts = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::string chart = render_processor_histogram(counts, "procs");
  EXPECT_NE(chart.find("CE0"), std::string::npos);
  EXPECT_NE(chart.find("CE7"), std::string::npos);
}

}  // namespace
}  // namespace repro::core
