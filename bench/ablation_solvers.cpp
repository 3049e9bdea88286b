// Ablation: RPCA solver choice (APG — the paper's — vs stable PCP vs
// time-frequency stable PCP) on synthetic low-rank + sparse instances
// shaped like TP-matrices: recovery quality, support fidelity and
// runtime. The run exits 1 if a solver throws or returns a non-finite
// D.
//
// Second study: the online refresher's full path on N=32
// SyntheticClouds at fixed 300 s steps (8 clouds x 30 slides, band
// sigma 0.04 and 0.01). Every full window, the first (the bootstrap)
// included, is solved both ways under three policies:
//   "seed_fit" rpca::polish with the Huber fit started from the last
//              E, and from E = 0 at bootstrap, with no solver
//              (WindowRefresher's);
//   "cfit"     a cold APG with the polish off, then rpca::polish
//              opening with the Huber fit from its E;
//   "raw"      the same cold APG with no polish: what
//              core::find_constant publishes for the window.
// cfit and raw share one APG solve per layer; raw's constant is
// assembled before the polish runs.
// Reported per cloud: const_err p50/p90 over the slides and boot_err
// at bootstrap (relative error of the 8 MB transfer times against the
// cloud's ground-truth constant), mean refresh ms per slide (raw: the
// APG alone; cfit: APG and fit), and layer solves whose polish capped
// (bootstrap included). The seed_fit replica is checked bit for bit
// against a WindowRefresher driven in lockstep; the run exits 1 if they
// differ or if seed_fit caps on any layer.
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

/// Policies in table order.
enum class Policy { SeedFit, ColdFit, Raw };
constexpr const char* kPolicyNames[] = {"seed_fit", "cfit", "raw"};

/// seed_fit on one layer: WindowRefresher::solve_layer's fit from the
/// last E, or from E = 0 when there is none.
void seed_fit_layer(const linalg::Matrix& data, const rpca::Options& options,
                    rpca::SolverWorkspace& ws, rpca::Result& result) {
  if (result.sparse.empty()) {
    result.low_rank.resize(data.rows(), data.cols());
    result.sparse.resize(data.rows(), data.cols());
    result.sparse.fill(0.0);
  }
  rpca::polish(data, options, /*huber_start=*/true, ws, result);
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
  int caps = 0;
  bool matches_refresher = true;
  std::vector<double> errors;  // per slide
};

/// Bootstrap a window on one cloud, then `slides` fixed steps, each
/// refreshing both layers under every policy. Returns one run per
/// Policy.
std::vector<CloudRun> run_cloud(double sigma, std::uint64_t seed,
                                int slides) {
  cloud::SyntheticCloudConfig config;
  config.cluster_size = 32;
  config.band_sigma = sigma;
  config.seed = seed;
  cloud::SyntheticCloud cloud(config);
  const netmodel::PerformanceMatrix truth = cloud.ground_truth_constant();
  online::SlidingWindow window(kWindow);

  const online::RefresherOptions options;  // incremental path off
  online::WindowRefresher refresher(options);
  const rpca::Options& fit = options.rpca;
  rpca::Options apg = fit;
  apg.polish_iterations = 0;
  const double tol = options.l0_rel_tolerance;
  rpca::SolverWorkspace ws, cold_ws;
  rpca::Result seed_lat, seed_bw, cold_lat, cold_bw;
  std::vector<CloudRun> runs(3);
  for (int step = 0; step < static_cast<int>(kWindow) + slides; ++step) {
    window.push(cloud.now(), cloud.oracle_snapshot());
    cloud.advance(kStepSeconds);
    if (!window.full()) continue;
    const linalg::Matrix& lat = window.latency_data();
    const linalg::Matrix& bw = window.bandwidth_data();
    const bool bootstrap = step == static_cast<int>(kWindow) - 1;
    const auto record = [&](Policy policy, double ms,
                            const core::ConstantComponent& component) {
      CloudRun& run = runs[static_cast<int>(policy)];
      const double err = const_error(component.constant, truth);
      if (bootstrap) {
        run.boot_err = err;  // the bootstrap solve is not a slide
      } else {
        run.refresh_ms += ms / slides;
        run.errors.push_back(err);
      }
    };

    Stopwatch clock;
    seed_fit_layer(lat, fit, ws, seed_lat);
    seed_fit_layer(bw, fit, ws, seed_bw);
    const core::ConstantComponent seed_fit = core::assemble_component(
        lat, seed_lat, bw, seed_bw, window.cluster_size(), tol);
    record(Policy::SeedFit, clock.milliseconds(), seed_fit);
    runs[0].caps += !seed_lat.polish_converged + !seed_bw.polish_converged;
    const online::RefreshReport report = refresher.refresh(window);
    runs[0].matches_refresher =
        runs[0].matches_refresher &&
        report.component.constant.bandwidth().max_abs_diff(
            seed_fit.constant.bandwidth()) == 0.0 &&
        report.component.constant.latency().max_abs_diff(
            seed_fit.constant.latency()) == 0.0;

    clock.restart();
    rpca::solve(lat, rpca::Solver::Apg, apg, cold_ws, cold_lat);
    rpca::solve(bw, rpca::Solver::Apg, apg, cold_ws, cold_bw);
    const double apg_ms = clock.milliseconds();
    record(Policy::Raw, apg_ms,
           core::assemble_component(lat, cold_lat, bw, cold_bw,
                                    window.cluster_size(), tol));
    clock.restart();
    rpca::polish(lat, fit, /*huber_start=*/true, cold_ws, cold_lat);
    rpca::polish(bw, fit, /*huber_start=*/true, cold_ws, cold_bw);
    const double fit_ms = clock.milliseconds();
    record(Policy::ColdFit, apg_ms + fit_ms,
           core::assemble_component(lat, cold_lat, bw, cold_bw,
                                    window.cluster_size(), tol));
    runs[1].caps += !cold_lat.polish_converged + !cold_bw.polish_converged;
  }
  for (CloudRun& run : runs) {
    run.err_p50 = percentile(run.errors, 0.5);
    run.err_p90 = percentile(run.errors, 0.9);
  }
  return runs;
}

/// Prints the study's table and summary. Returns false if the seed_fit
/// replica differs from WindowRefresher or seed_fit capped anywhere.
bool full_path_study(const StudySize& size) {
  print_banner(std::cout,
               "Full path: Huber fit from the last E (from zero at "
               "bootstrap) vs cold APG then the fit vs raw cold APG, "
               "N=32 SyntheticClouds, " +
                   std::to_string(size.slides) + " fixed 300 s slides");
  ConsoleTable table({"sigma", "cloud", "policy", "const_err_p50",
                      "const_err_p90", "boot_err", "refresh_ms", "caps"});
  bool replica_ok = true;
  int fit_caps = 0;
  int equal_4 = 0, boot_equal = 0, boot_lower = 0, compared = 0;
  double max_seed_vs_cfit = 0.0;
  for (const double sigma : {0.04, 0.01}) {
    for (std::uint64_t seed = 1; seed <= size.clouds; ++seed) {
      const std::vector<CloudRun> runs = run_cloud(sigma, seed, size.slides);
      for (std::size_t p = 0; p < runs.size(); ++p) {
        const CloudRun& run = runs[p];
        table.add_row({ConsoleTable::cell(sigma, 2), std::to_string(seed),
                       kPolicyNames[p], ConsoleTable::cell(run.err_p50, 4),
                       ConsoleTable::cell(run.err_p90, 4),
                       ConsoleTable::cell(run.boot_err, 4),
                       ConsoleTable::cell(run.refresh_ms, 2),
                       p == static_cast<std::size_t>(Policy::Raw)
                           ? std::string("-")
                           : std::to_string(run.caps)});
      }
      const CloudRun& fit = runs[static_cast<int>(Policy::SeedFit)];
      const CloudRun& cfit = runs[static_cast<int>(Policy::ColdFit)];
      replica_ok = replica_ok && fit.matches_refresher;
      fit_caps += fit.caps;
      ++compared;
      // "Equal" means equal as printed, to 4 digits.
      const auto same = [](double x, double y) {
        return ConsoleTable::cell(x, 4) == ConsoleTable::cell(y, 4);
      };
      equal_4 += same(fit.err_p50, cfit.err_p50) &&
                 same(fit.err_p90, cfit.err_p90);
      const bool boot_same = same(fit.boot_err, cfit.boot_err);
      boot_equal += boot_same;
      boot_lower += !boot_same && fit.boot_err < cfit.boot_err;
      max_seed_vs_cfit = std::max(
          {max_seed_vs_cfit, std::abs(fit.err_p50 - cfit.err_p50) / cfit.err_p50,
           std::abs(fit.err_p90 - cfit.err_p90) / cfit.err_p90});
    }
  }
  table.print(std::cout);
  std::cout << "\nseed_fit const_err p50 and p90 equal cfit's to 4 digits "
               "on "
            << equal_4 << " of " << compared
            << " clouds; largest relative difference from cfit "
            << max_seed_vs_cfit << "; seed_fit boot_err equal to cfit's on "
            << boot_equal << " and lower on " << boot_lower << " of "
            << compared << " clouds; seed_fit caps "
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
