// Ablation: RPCA solver choice (APG — the paper's — vs stable PCP vs
// time-frequency stable PCP) on synthetic low-rank + sparse instances
// shaped like TP-matrices: recovery quality, support fidelity and
// runtime. The run exits 1 if a solver throws or returns a non-finite
// D.
//
// Second study: the online refresher's full path on N=32
// SyntheticClouds at fixed 300 s steps (8 clouds x 30 slides, band
// sigma 0.04 and 0.01). A bootstrap solve of the first full window,
// then each slide re-solves both layers from the last accepted factors
// under three policies:
//   "plain"    seeded APG with the solver's own 300-step alternation
//              (the refresher before the Huber fit);
//   "apg_fit"  seeded APG, then rpca::polish opening with
//              rpca::rank1_huber_fit (the refresher before the fit ran
//              without a solver);
//   "seed_fit" rpca::polish with the Huber fit started from the last
//              accepted E, and from E = 0 at bootstrap, with no solver
//              (WindowRefresher's).
// The two APG policies bootstrap with a cold APG plus the plain
// alternation and redo a slide cold on the refresher's former checks
// (APG not converged, pre-polish residual above 1e-3, polish cap);
// seed_fit accepts every fit, capped or not.
// Reported per cloud: const_err p50/p90 over the slides and boot_err
// at bootstrap (relative error of the 8 MB transfer times against the
// cloud's ground-truth constant), mean refresh ms per slide, cold
// redos, and accepted layer solves whose polish capped (bootstrap
// included). The seed_fit replica is checked bit for bit against a
// WindowRefresher driven in lockstep; the run exits 1 if they differ
// or if seed_fit caps on any layer.
//
// Usage: ablation_solvers [--smoke]
//   --smoke  the solver grid's 10x256 shape, then the study on one
//            cloud per band x 10 slides: every gate in a few seconds
//            (CI's bench-smoke job).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "cloud/synthetic.hpp"
#include "core/constant_finder.hpp"
#include "online/refresher.hpp"
#include "online/window.hpp"
#include "rpca/validation.hpp"
#include "rpca/workspace.hpp"
#include "support/stopwatch.hpp"

using namespace netconst;

namespace {

/// The solver grid over `shapes` (rows x cols). Returns false, after
/// printing the table, if any solve threw or left a non-finite entry in
/// D.
bool solver_grid(const std::vector<std::pair<int, int>>& shapes) {
  print_banner(std::cout,
               "Ablation: RPCA solvers on planted rank-1 + sparse "
               "TP-matrix instances");
  ConsoleTable table({"rows_x_cols", "sparsity", "solver", "low_rank_err",
                      "support_f1", "iterations", "seconds"});

  bool ok = true;
  Rng rng(2718);
  for (const auto& [rows, cols] : shapes) {
    const std::string shape =
        std::to_string(rows) + "x" + std::to_string(cols);
    for (const double sparsity : {0.02, 0.10}) {
      rpca::SyntheticSpec spec;
      spec.rows = static_cast<std::size_t>(rows);
      spec.cols = static_cast<std::size_t>(cols);
      spec.rank = 1;
      spec.sparsity = sparsity;
      spec.sparse_magnitude = 6.0;
      Rng instance_rng = rng.split();
      const rpca::SyntheticProblem problem =
          rpca::make_synthetic(spec, instance_rng);

      for (const auto solver : {rpca::Solver::Apg, rpca::Solver::StablePcp,
                                rpca::Solver::StablePcpTf}) {
        rpca::Result result;
        try {
          result = rpca::solve(problem.data, solver);
        } catch (const std::exception& error) {
          ok = false;
          std::cerr << "SOLVER FAILURE: " << rpca::solver_name(solver)
                    << " on " << shape << " threw: " << error.what() << "\n";
          continue;
        }
        const auto d = result.low_rank.data();
        if (!std::all_of(d.begin(), d.end(),
                         [](double x) { return std::isfinite(x); })) {
          ok = false;
          std::cerr << "SOLVER FAILURE: " << rpca::solver_name(solver)
                    << " on " << shape << " left a non-finite D\n";
        }
        const rpca::RecoveryError err = rpca::measure_recovery(
            problem, result.low_rank, result.sparse);
        table.add_row({shape, ConsoleTable::cell(sparsity, 2),
                       rpca::solver_name(solver),
                       ConsoleTable::cell(err.low_rank_error, 4),
                       ConsoleTable::cell(err.support_f1, 3),
                       std::to_string(result.iterations),
                       ConsoleTable::cell(result.solve_seconds, 3)});
      }
    }
  }
  table.print(std::cout);
  std::cout << "\nExpected: APG and StablePCP both recover the planted "
               "rank-1 component (low-rank error 0.07-0.23 at 10 rows, "
               "<= 0.05 at 20x4096), APG slightly better: StablePCP's "
               "fixed mu leaves a noise band in the residual that these "
               "instances do not have. Both run to the 500-iteration cap. "
               "StablePCP-TF does not recover them (low-rank error "
               "0.8-1.0): its band limit keeps only the slow temporal "
               "frequencies of D, and these instances' row factor is "
               "white over time, not the slow diurnal profile the solver "
               "models.\n";
  return ok;
}

// ---- the full-path study ----

/// Clouds per noise band and slides per cloud.
struct StudySize {
  std::uint64_t clouds = 8;
  int slides = 30;
};

constexpr std::size_t kWindow = 10;
constexpr double kStepSeconds = 300.0;
constexpr double kOperationBytes = 8.0 * 1024 * 1024;

enum class WarmPolish { Plain, ApgFit, SeedFit };

const char* policy_name(WarmPolish policy) {
  switch (policy) {
    case WarmPolish::Plain:
      return "plain";
    case WarmPolish::ApgFit:
      return "apg_fit";
    case WarmPolish::SeedFit:
      return "seed_fit";
  }
  return "unknown";
}

/// The pre-polish residual above which the former warm attempt's seeded
/// APG counted as diverged.
constexpr double kDivergenceResidual = 1e-3;

/// One layer's state across slides: its last accepted factors and the
/// APG policies' seed.
struct LayerState {
  rpca::Result result;
  rpca::WarmStart seed;
};

/// One layer on the full path under `policy`. seed_fit is
/// WindowRefresher::solve_layer's: the fit from the last E, or from
/// zero when there is none. The APG policies solve cold without a seed
/// and redo a rejected warm attempt cold. Counts the redo and whether
/// the accepted polish capped.
void refresh_layer(const linalg::Matrix& data, WarmPolish policy,
                   const online::RefresherOptions& refresher,
                   rpca::SolverWorkspace& ws, LayerState& layer,
                   int& redos, int& caps) {
  const rpca::Solver solver = refresher.finder.solver;
  rpca::Options options = refresher.finder.rpca;
  rpca::Result& result = layer.result;
  rpca::WarmStart& seed = layer.seed;
  if (policy == WarmPolish::SeedFit) {
    if (result.sparse.empty()) {
      result.low_rank.resize(data.rows(), data.cols());
      result.sparse.resize(data.rows(), data.cols());
      result.sparse.fill(0.0);
    }
    rpca::polish(data, options, /*huber_start=*/true, ws, result);
  } else if (seed.empty()) {
    rpca::solve(data, solver, options, ws, result);
  } else {
    options.warm_start = seed;
    if (policy == WarmPolish::ApgFit) {
      options.polish_iterations = 0;
      rpca::solve(data, solver, options, ws, result);
      options.polish_iterations = refresher.finder.rpca.polish_iterations;
      rpca::polish(data, options, result.warm_started, ws, result);
    } else {
      rpca::solve(data, solver, options, ws, result);
    }
    if (!result.converged || result.solver_residual > kDivergenceResidual ||
        !result.polish_converged) {
      ++redos;
      options.warm_start = rpca::WarmStart{};
      rpca::solve(data, solver, options, ws, result);
    }
  }
  caps += !result.polish_converged;
  if (policy != WarmPolish::SeedFit) {
    seed = {result.low_rank, result.sparse, result.final_mu, result.mu_floor};
  }
}

double const_error(const netmodel::PerformanceMatrix& estimate,
                   const netmodel::PerformanceMatrix& truth) {
  double diff = 0.0, norm = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    for (std::size_t j = 0; j < truth.size(); ++j) {
      if (i == j) continue;
      const double t = truth.transfer_time(i, j, kOperationBytes);
      const double d = estimate.transfer_time(i, j, kOperationBytes) - t;
      diff += d * d;
      norm += t * t;
    }
  }
  return std::sqrt(diff / norm);
}

struct CloudRun {
  double err_p50 = 0.0;
  double err_p90 = 0.0;
  double boot_err = 0.0;
  double refresh_ms = 0.0;
  int redos = 0;
  int caps = 0;
  bool matches_refresher = true;
};

/// Bootstrap a window on one cloud, then `slides` fixed steps, each
/// refreshing both layers under `policy`.
CloudRun run_cloud(double sigma, std::uint64_t seed, int slides,
                   WarmPolish policy) {
  cloud::SyntheticCloudConfig config;
  config.cluster_size = 32;
  config.band_sigma = sigma;
  config.seed = seed;
  cloud::SyntheticCloud cloud(config);
  const netmodel::PerformanceMatrix truth = cloud.ground_truth_constant();
  online::SlidingWindow window(kWindow);

  const online::RefresherOptions options;  // incremental path off
  online::WindowRefresher refresher(options);
  rpca::SolverWorkspace ws;
  LayerState lat, bw;
  CloudRun run;
  std::vector<double> errors;
  for (int step = 0; step < static_cast<int>(kWindow) + slides; ++step) {
    window.push(cloud.now(), cloud.oracle_snapshot());
    cloud.advance(kStepSeconds);
    if (!window.full()) continue;
    const Stopwatch clock;
    refresh_layer(window.latency_data(), policy, options, ws, lat, run.redos,
                  run.caps);
    refresh_layer(window.bandwidth_data(), policy, options, ws, bw,
                  run.redos, run.caps);
    const core::ConstantComponent component = core::assemble_component(
        window.latency_data(), lat.result, window.bandwidth_data(),
        bw.result, window.cluster_size(), options.finder.l0_rel_tolerance);
    const double ms = clock.milliseconds();
    const double err = const_error(component.constant, truth);
    if (step == static_cast<int>(kWindow) - 1) {
      run.boot_err = err;  // the bootstrap solve is not a slide
    } else {
      run.refresh_ms += ms / slides;
      errors.push_back(err);
    }
    if (policy == WarmPolish::SeedFit) {
      const online::RefreshReport report = refresher.refresh(window);
      run.matches_refresher =
          run.matches_refresher &&
          report.component.constant.bandwidth().max_abs_diff(
              component.constant.bandwidth()) == 0.0 &&
          report.component.constant.latency().max_abs_diff(
              component.constant.latency()) == 0.0;
    }
  }
  run.err_p50 = percentile(errors, 0.5);
  run.err_p90 = percentile(errors, 0.9);
  return run;
}

/// Prints the study's table and summary. Returns false if the seed_fit
/// replica differs from WindowRefresher or seed_fit capped anywhere.
bool full_path_study(const StudySize& size) {
  print_banner(std::cout,
               "Full path: plain alternation vs Huber fit after the "
               "seeded APG vs Huber fit from the last E (from zero at "
               "bootstrap), N=32 SyntheticClouds, " +
                   std::to_string(size.slides) + " fixed 300 s slides");
  ConsoleTable table({"sigma", "cloud", "policy", "const_err_p50",
                      "const_err_p90", "boot_err", "refresh_ms", "redos",
                      "caps"});
  constexpr WarmPolish kPolicies[] = {WarmPolish::Plain, WarmPolish::ApgFit,
                                      WarmPolish::SeedFit};
  bool replica_ok = true;
  int fit_caps = 0;
  int fit_no_worse = 0, boot_lower = 0, compared = 0;
  double max_seed_vs_apg = 0.0;
  for (const double sigma : {0.04, 0.01}) {
    for (std::uint64_t seed = 1; seed <= size.clouds; ++seed) {
      CloudRun runs[3];
      for (const WarmPolish policy : kPolicies) {
        const CloudRun run = run_cloud(sigma, seed, size.slides, policy);
        runs[static_cast<int>(policy)] = run;
        table.add_row({ConsoleTable::cell(sigma, 2), std::to_string(seed),
                       policy_name(policy), ConsoleTable::cell(run.err_p50, 4),
                       ConsoleTable::cell(run.err_p90, 4),
                       ConsoleTable::cell(run.boot_err, 4),
                       ConsoleTable::cell(run.refresh_ms, 2),
                       std::to_string(run.redos), std::to_string(run.caps)});
      }
      const CloudRun& plain = runs[static_cast<int>(WarmPolish::Plain)];
      const CloudRun& apg = runs[static_cast<int>(WarmPolish::ApgFit)];
      const CloudRun& fit = runs[static_cast<int>(WarmPolish::SeedFit)];
      replica_ok = replica_ok && fit.matches_refresher;
      fit_caps += fit.caps;
      ++compared;
      fit_no_worse += fit.err_p50 <= plain.err_p50 &&
                      fit.err_p90 <= plain.err_p90;
      boot_lower += fit.boot_err < plain.boot_err;
      max_seed_vs_apg = std::max(
          {max_seed_vs_apg, std::abs(fit.err_p50 - apg.err_p50) / apg.err_p50,
           std::abs(fit.err_p90 - apg.err_p90) / apg.err_p90});
    }
  }
  table.print(std::cout);
  std::cout << "\nseed_fit const_err p50 and p90 both no worse than plain "
               "on "
            << fit_no_worse << " of " << compared
            << " clouds; largest relative difference from apg_fit "
            << max_seed_vs_apg << "; boot_err below the cold bootstrap's on "
            << boot_lower << " of " << compared << " clouds; seed_fit caps "
            << fit_caps << "; seed_fit replica "
            << (replica_ok ? "matches" : "DIFFERS FROM")
            << " WindowRefresher bit for bit.\n";
  return replica_ok && fit_caps == 0;
}

}  // namespace

int main(int argc, char** argv) {
  StudySize size;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") {
      smoke = true;
      size = {1, 10};
    } else {
      std::cerr << "usage: ablation_solvers [--smoke]\n";
      return 2;
    }
  }
  std::vector<std::pair<int, int>> shapes = {{10, 256}};
  if (!smoke) shapes.insert(shapes.end(), {{10, 1024}, {20, 4096}});
  const bool grid_ok = solver_grid(shapes);
  std::cout << "\n";
  const bool study_ok = full_path_study(size);
  return grid_ok && study_ok ? 0 : 1;
}
