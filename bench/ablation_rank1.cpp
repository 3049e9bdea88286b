// Ablation: does the RPCA constant component beat per-link summaries
// (the DESIGN.md "rank-one extraction vs column means" question)?
//
// Two regimes are compared, because they answer differently:
//  * stationary interference — time-correlated, so the newest samples
//    predict the near future and every per-link summary beats RPCA;
//  * replayed trace with injected transient noise (the paper's Fig 10
//    methodology) — past errors carry no information about the future;
//    the decomposition that strips them beats the mean, EWA and last
//    value, but the per-link minimum stays slightly ahead of it.
#include <iostream>

#include "bench_util.hpp"
#include "cloud/calibration.hpp"
#include "cloud/synthetic.hpp"
#include "collective/collective_ops.hpp"
#include "collective/fnf.hpp"
#include "core/constant_finder.hpp"
#include "core/heuristics.hpp"
#include "core/noise.hpp"
#include "support/statistics.hpp"

using namespace netconst;

namespace {

constexpr std::size_t kInstances = 32;
constexpr std::uint64_t kBytes = 8ull << 20;
constexpr std::size_t kPlanRows = 10;

struct Candidate {
  std::string name;
  netmodel::PerformanceMatrix guidance;
};

std::vector<Candidate> build_candidates(
    const netmodel::TemporalPerformance& window) {
  std::vector<Candidate> candidates;
  candidates.push_back(
      {"RPCA constant", core::find_constant(window).constant});
  for (const auto kind :
       {core::HeuristicKind::Mean, core::HeuristicKind::Min,
        core::HeuristicKind::Ewa, core::HeuristicKind::LastValue}) {
    candidates.push_back({std::string("heuristic:") +
                              core::heuristic_name(kind),
                          core::heuristic_matrix(window, kind)});
  }
  return candidates;
}

void score_and_print(const std::string& title,
                     const std::vector<Candidate>& candidates,
                     const std::vector<const netmodel::PerformanceMatrix*>&
                         realities,
                     Rng& rng) {
  std::vector<std::vector<double>> samples(candidates.size());
  for (const auto* reality : realities) {
    const auto root = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(kInstances) - 1));
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const auto tree = collective::fnf_tree(
          candidates[c].guidance.weight_matrix(kBytes), root);
      samples[c].push_back(collective::collective_time(
          tree, *reality, collective::Collective::Broadcast, kBytes));
    }
  }
  print_banner(std::cout, title);
  ConsoleTable table({"guidance", "mean_bcast_s", "vs_rpca"});
  const double rpca_mean = mean(samples[0]);
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const double m = mean(samples[c]);
    table.add_row({candidates[c].name, ConsoleTable::cell(m, 4),
                   ConsoleTable::cell_percent(m / rpca_mean - 1.0)});
  }
  table.print(std::cout);
}

}  // namespace

int main() {
  // Shared clean capture.
  cloud::SyntheticCloudConfig config;
  config.cluster_size = kInstances;
  config.datacenter_racks = 8;
  config.mean_quiet_duration = 3000.0;  // regime 1: live interference
  config.mean_spike_duration = 600.0;
  config.seed = 314;
  cloud::SyntheticCloud provider(config);
  cloud::SeriesOptions series_options;
  series_options.time_step = 40;
  series_options.interval = 1800.0;
  const auto captured = cloud::calibrate_series(provider, series_options);

  // Regime 1: stationary interference, plan on the first rows, score
  // fresh oracle samples of the live cloud.
  {
    netmodel::TemporalPerformance window;
    for (std::size_t r = 0; r < kPlanRows; ++r) {
      window.append(captured.series.time_at(r), captured.series.snapshot(r));
    }
    const auto candidates = build_candidates(window);
    std::vector<netmodel::PerformanceMatrix> oracles;
    for (int k = 0; k < 40; ++k) {
      oracles.push_back(provider.oracle_snapshot());
      provider.advance(600.0);
    }
    std::vector<const netmodel::PerformanceMatrix*> realities;
    for (const auto& o : oracles) realities.push_back(&o);
    Rng rng(15);
    score_and_print(
        "Ablation regime 1: stationary interference (measured order: "
        "last, min, mean, EWA, RPCA)",
        candidates, realities, rng);
  }

  // Regime 2: the paper's replay — symmetric transient noise injected
  // to Norm(N_E) ~ 0.15; past errors are pure noise about the future.
  {
    Rng noise_rng(16);
    const auto noisy =
        core::inject_noise_to_norm(captured.series, 0.15, noise_rng);
    netmodel::TemporalPerformance window;
    for (std::size_t r = 0; r < kPlanRows; ++r) {
      window.append(noisy.series.time_at(r), noisy.series.snapshot(r));
    }
    const auto candidates = build_candidates(window);
    std::vector<const netmodel::PerformanceMatrix*> realities;
    for (std::size_t r = kPlanRows; r < noisy.series.row_count(); ++r) {
      realities.push_back(&noisy.series.snapshot(r));
    }
    Rng rng(17);
    score_and_print(
        "Ablation regime 2: replay with injected transient noise "
        "(Norm ~ 0.15; measured order: min, RPCA, mean, EWA, last)",
        candidates, realities, rng);
  }

  std::cout << "\nExpected: in regime 1 every per-link summary is "
               "ahead of RPCA and the recency-chasers (last/min) lead — "
               "stationary, time-correlated interference makes the newest "
               "sample genuinely predictive. In regime 2 (transient errors that carry no "
               "information about the future — the paper's setting) the "
               "ordering flips for every summary but min: the RPCA "
               "constant beats mean, EWA and last, and last trails the "
               "most, while the per-link min stays slightly ahead of "
               "RPCA.\n";
  return 0;
}
