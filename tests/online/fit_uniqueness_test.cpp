// The full-path fit's uniqueness contract (docs/ALGORITHMS.md §7).
//
// The rank-1 Huber fit's fixed point depends on its start on a few
// percent of noisy windows: the last E, zero and a cold APG's E can
// settle on different near-degenerate minima. What holds on every
// window is that those minima agree in objective. So on each window the
// refresher publishes, the Huber objective sum h_tau(A - D) of its D is
// within kBound relative of the lowest objective over the three starts.
#include <algorithm>
#include <cmath>
#include <iostream>
#include <utility>

#include <gtest/gtest.h>

#include "../support/proptest.hpp"
#include "cloud/synthetic.hpp"
#include "linalg/norms.hpp"
#include "online/refresher.hpp"
#include "online/window.hpp"
#include "rpca/rpca.hpp"
#include "rpca/workspace.hpp"

namespace netconst::online {
namespace {

constexpr std::size_t kWindow = 10;
constexpr double kStepSeconds = 300.0;
constexpr int kSlides = 5;
// The objectives of different starts' minima differed by at most
// 2.5e-6 relative over 496 N=32 windows; the bound leaves headroom.
constexpr double kBound = 1e-5;

/// The fit's objective: sum_ij h_tau(A_ij - D_ij), with the polish's
/// threshold tau = lambda * mean|A|.
double huber_objective(const linalg::Matrix& a, const linalg::Matrix& d,
                       const rpca::Options& options) {
  const double lambda = options.lambda > 0.0
                            ? options.lambda
                            : rpca::default_lambda(a.rows(), a.cols());
  const double tau =
      lambda * linalg::l1_norm(a) / static_cast<double>(a.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double r = std::abs(a(i, j) - d(i, j));
      sum += r <= tau ? 0.5 * r * r : tau * r - 0.5 * tau * tau;
    }
  }
  return sum;
}

struct Objectives {
  double excess = 0.0;  // published over the lowest, relative
  double spread = 0.0;  // highest over the lowest, relative
};

/// The published D's objective against the three starts' (the
/// published fit is the last-E start).
Objectives compare_starts(const linalg::Matrix& a,
                          const rpca::Result& published,
                          const rpca::Options& fit) {
  rpca::SolverWorkspace ws;
  rpca::Result zero;
  zero.low_rank.resize(a.rows(), a.cols());
  zero.sparse.resize(a.rows(), a.cols());
  zero.sparse.fill(0.0);
  rpca::polish(a, fit, /*huber_start=*/true, ws, zero);

  rpca::Options apg = fit;
  apg.polish_iterations = 0;
  rpca::Result cold;
  rpca::solve(a, rpca::Solver::Apg, apg, ws, cold);
  rpca::polish(a, fit, /*huber_start=*/true, ws, cold);

  const double own = huber_objective(a, published.low_rank, fit);
  const double from_zero = huber_objective(a, zero.low_rank, fit);
  const double from_cold = huber_objective(a, cold.low_rank, fit);
  const double lowest = std::min({own, from_zero, from_cold});
  const double highest = std::max({own, from_zero, from_cold});
  return {(own - lowest) / lowest, (highest - lowest) / lowest};
}

TEST(FitUniqueness, PublishedObjectiveIsWithinBoundOfEveryStart) {
  double worst = 0.0;
  std::size_t checked = 0, split = 0;
  for (const double sigma : {0.04, 0.01}) {
    SCOPED_TRACE(::testing::Message() << "band sigma " << sigma);
    netconst::testing::run_property(0xF17, 4, [&](Rng& rng) {
      cloud::SyntheticCloudConfig config;
      config.cluster_size = 32;
      config.band_sigma = sigma;
      config.seed = static_cast<std::uint64_t>(rng.uniform_int(1, 1 << 20));
      cloud::SyntheticCloud cloud(config);
      SlidingWindow window(kWindow);
      WindowRefresher refresher;  // incremental path off: every layer fits
      const rpca::Options& fit = refresher.options().rpca;
      for (int step = 0; step < static_cast<int>(kWindow) + kSlides;
           ++step) {
        window.push(cloud.now(), cloud.oracle_snapshot());
        cloud.advance(kStepSeconds);
        if (!window.full()) continue;
        refresher.refresh(window);
        for (const auto& [a, result] :
             {std::pair{&window.latency_data(), &refresher.latency_result()},
              std::pair{&window.bandwidth_data(),
                        &refresher.bandwidth_result()}}) {
          const Objectives o = compare_starts(*a, *result, fit);
          EXPECT_LE(o.excess, kBound) << "step " << step;
          worst = std::max(worst, o.excess);
          split += o.spread > 1e-9;
          ++checked;
        }
      }
    });
  }
  std::cout << "worst relative objective excess " << worst << " over "
            << checked << " layer windows; the starts' objectives differ "
            << "by more than 1e-9 relative on " << split << "\n";
}

}  // namespace
}  // namespace netconst::online
