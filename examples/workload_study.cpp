// Chapter 4 end-to-end: nine random-sampling sessions over the preset
// workload mixes, reported the way the thesis reports them — Table 2,
// Table A.1, and the Figure 3/4/5 distributions.
#include <cstdio>

#include "core/presets.hpp"
#include "core/report.hpp"
#include "core/study.hpp"
#include "stats/freq_table.hpp"

int main() {
  using namespace repro;

  // The snappy example-scale population (core/presets.hpp).
  const core::StudyConfig config = core::presets::example_study();

  std::printf("Running the nine measurement sessions...\n\n");
  const core::StudyResult study = core::run_default_study(config);

  // Table 2 and the all-sessions activity histogram (Figure 3).
  std::printf("%s\n", core::render_table2(study.overall).c_str());
  std::printf("%s\n",
              core::render_active_histogram(
                  study.totals.num, study.overall.width,
                  "Figure 3. Number of Records with N Processors Active / "
                  "All Sessions")
                  .c_str());

  // Figure 4: distribution of samples by Workload Concurrency.
  const auto samples = study.all_samples();
  const std::vector<double> cw = core::column_cw(samples);
  std::vector<double> cw_mids;
  for (int i = 0; i <= 8; ++i) {
    cw_mids.push_back(static_cast<double>(i) / 8.0);
  }
  std::printf(
      "Figure 4. Distribution of Samples by Workload Concurrency\n%s\n",
      stats::FreqTable::from_values(cw, cw_mids, 3).render(40).c_str());

  // Figure 5: distribution of samples by Mean Concurrency Level.
  const std::vector<double> pc = core::column_pc(samples);
  std::vector<double> pc_mids;
  for (int i = 4; i <= 16; ++i) {
    pc_mids.push_back(static_cast<double>(i) / 2.0);
  }
  if (!pc.empty()) {
    std::printf(
        "Figure 5. Distribution of Samples by Mean Concurrency Level\n%s\n",
        stats::FreqTable::from_values(pc, pc_mids, 1).render(40).c_str());
  }

  // Table A.1: per-session measures.
  std::printf("%s", core::render_session_table(study.sessions).c_str());
  return 0;
}
