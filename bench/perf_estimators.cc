// Feature-mode accuracy grid (run via bench/run_estimators.sh →
// BENCH_estimators.json).
//
// The deliverable of the MAV subsystem: CPI sampling error at the Fig. 7
// sample size for each of the {freq, mav, combined} feature modes under
// the paper's Neyman-allocated stratified estimator, across the paper's
// twelve workload configurations. Like perf_service this is a custom sweep
// driver, not a google-benchmark suite — the quantity under test is
// estimation accuracy, not wall time, so each cell is the mean relative
// error over kErrorRepetitions seeds (single draws are dominated by luck).
//
// Acceptance (exit non-zero on failure): MAV-informed phases must pay off —
// the combined feature mode beats freq on mean sampling error on at least
// one configuration.
//
// Flags (after the common obs flags): --out FILE.
#include <array>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "bench_common.h"
#include "features/feature_mode.h"
#include "support/table.h"

namespace {

using namespace simprof;

struct Cell {
  double error = 0.0;         ///< mean relative CPI error over seeds
  double ci_rel_width = 0.0;  ///< mean CI width / estimate (0 if estimate 0)
};

constexpr std::size_t kModes = 3;

std::string_view mode_name(std::size_t m) {
  return features::to_string(static_cast<features::FeatureMode>(m));
}

}  // namespace

int main(int argc, char** argv) {
  bench::ObsSession obs_session(argc, argv);
  std::string out = "BENCH_estimators.json";
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0) out = argv[i + 1];
  }

  core::WorkloadLab lab(bench::lab_config());
  const auto& names = bench::config_names();
  const auto runs = bench::run_configs(lab, names);

  std::cout << "Feature-mode grid — CPI sampling error (sample size "
            << bench::kFig7SampleSize << ", " << bench::kErrorRepetitions
            << " seeds)\n";
  Table table({"config", "freq", "mav", "combined"});

  // grid[config][mode]
  std::vector<std::array<Cell, kModes>> grid(runs.size());
  double sums[kModes] = {};
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const auto& prof = runs[i].profile;
    std::vector<std::string> row{names[i]};
    for (std::size_t m = 0; m < kModes; ++m) {
      core::PhaseFormationConfig pcfg;
      pcfg.features = static_cast<features::FeatureMode>(m);
      const auto model = core::form_phases(prof, pcfg);
      Cell cell;
      for (int s = 0; s < bench::kErrorRepetitions; ++s) {
        const core::SamplePlan plan = core::simprof_sample(
            prof, model, bench::kFig7SampleSize, 1000 + s);
        cell.error += core::relative_error(plan, prof);
        if (plan.estimated_cpi > 0.0) {
          cell.ci_rel_width += 2.0 * plan.ci.margin / plan.estimated_cpi;
        }
      }
      cell.error /= bench::kErrorRepetitions;
      cell.ci_rel_width /= bench::kErrorRepetitions;
      grid[i][m] = cell;
      sums[m] += cell.error;
      row.push_back(Table::pct(cell.error));
    }
    table.row(std::move(row));
  }
  const double n = static_cast<double>(runs.size());
  table.row({"average", Table::pct(sums[0] / n), Table::pct(sums[1] / n),
             Table::pct(sums[2] / n)});
  table.print(std::cout);

  // Acceptance: combined must beat freq somewhere.
  std::size_t combined_beats_freq = 0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (grid[i][2].error < grid[i][0].error) ++combined_beats_freq;
  }

  // Manifest quality figures for the `simprof report` regression gate: the
  // historical freq error and the MAV-informed combined error (both
  // lower-is-better in the gate's table).
  obs::ledger().set_config("sample_size",
                           std::to_string(bench::kFig7SampleSize));
  obs::ledger().set_quality("sampling_error_frac", sums[0] / n);
  obs::ledger().set_quality("mav_sampling_error_frac", sums[2] / n);

  std::ofstream os(out);
  os << "{\n \"sample_size\": " << bench::kFig7SampleSize
     << ",\n \"repetitions\": " << bench::kErrorRepetitions
     << ",\n \"configs\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    os << "  {\"config\": \"" << names[i] << "\", \"cells\": [";
    for (std::size_t m = 0; m < kModes; ++m) {
      os << (m > 0 ? ", " : "") << "{\"features\": \"" << mode_name(m)
         << "\", \"error\": " << grid[i][m].error
         << ", \"ci_rel_width\": " << grid[i][m].ci_rel_width << "}";
    }
    os << "]}" << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  os << " ],\n \"averages\": {";
  for (std::size_t m = 0; m < kModes; ++m) {
    os << (m > 0 ? ", " : "") << "\"" << mode_name(m)
       << "\": " << sums[m] / n;
  }
  os << "},\n \"combined_beats_freq_cells\": " << combined_beats_freq
     << "\n}\n";
  os.close();

  std::cout << "combined beats freq on " << combined_beats_freq << "/"
            << runs.size() << " configs\n";
  if (combined_beats_freq == 0) {
    std::cerr << "FAIL: combined features never beat freq — MAV signal "
                 "missing from the grid\n";
    return 1;
  }
  return 0;
}
