// Seeded property-based fuzzing of the masked decomposition path:
// random window shapes (N rows x n(n-1) columns), random sparse
// interference, and random fault masks, pushed through the RPCA
// solver. The invariants are the chaos contract, not exact values:
// the solve may not throw, D + E must reconstruct the observed entries,
// and the error component must stay as sparse as the injected
// interference says it should be.
#include <cmath>

#include <gtest/gtest.h>

#include "rpca/masked.hpp"
#include "rpca/rpca.hpp"
#include "../support/proptest.hpp"

namespace netconst::rpca {
namespace {

using netconst::testing::mask_entries;
using netconst::testing::random_rank1_sparse;
using netconst::testing::random_size;
using netconst::testing::run_property;

TEST(ChaosProperty, MaskedSolvesNeverThrowAndReconstructObserved) {
  run_property(0xFA575EED, 6, [](Rng& rng) {
    // Window shapes a tenant actually produces: N snapshots of an
    // n-VM cluster, one column per directed pair.
    const std::size_t rows = random_size(rng, 3, 10);
    const std::size_t n = random_size(rng, 4, 7);
    const std::size_t cols = n * (n - 1);
    const double outlier_fraction = rng.uniform(0.0, 0.10);
    const double mask_fraction = rng.uniform(0.0, 0.20);

    auto made = random_rank1_sparse(rng, rows, cols, outlier_fraction);
    linalg::Matrix masked = made.data;
    mask_entries(rng, masked, mask_fraction);

    linalg::Matrix repaired = masked;
    const ImputeStats stats = impute_missing(repaired);
    EXPECT_EQ(stats.missing, count_missing(masked));
    EXPECT_EQ(stats.missing,
              stats.from_constant + stats.from_column + stats.from_global);
    EXPECT_EQ(count_missing(repaired), 0u);

    Result result;
    ASSERT_NO_THROW(result = solve(repaired));
    // The decomposition must explain what was actually measured.
    EXPECT_LT(
        masked_relative_residual(masked, result.low_rank, result.sparse),
        0.1);
    // And must not hallucinate a dense error component: the injected
    // interference bounds Norm(N_E) (imputed entries carry ~zero sparse
    // error by construction).
    EXPECT_LE(relative_l0(result.sparse, repaired), outlier_fraction + 0.15);
  });
}

TEST(ChaosProperty, UnmaskedAndLightlyMaskedConstantsAgree) {
  run_property(0xBEEF, 4, [](Rng& rng) {
    const std::size_t rows = random_size(rng, 5, 9);
    const std::size_t n = random_size(rng, 4, 6);
    const std::size_t cols = n * (n - 1);
    auto made = random_rank1_sparse(rng, rows, cols, 0.05);

    linalg::Matrix masked = made.data;
    mask_entries(rng, masked, 0.15);
    linalg::Matrix repaired = masked;
    impute_missing(repaired);

    const Result clean = solve(made.data);
    const Result degraded = solve(repaired);
    // Column-mean imputation (no constant row supplied) already keeps
    // the recovered constant within a few percent of the clean solve.
    for (std::size_t j = 0; j < cols; ++j) {
      double clean_mean = 0.0;
      double degraded_mean = 0.0;
      for (std::size_t i = 0; i < rows; ++i) {
        clean_mean += clean.low_rank(i, j);
        degraded_mean += degraded.low_rank(i, j);
      }
      EXPECT_NEAR(degraded_mean / static_cast<double>(rows),
                  clean_mean / static_cast<double>(rows),
                  0.05 * std::abs(clean_mean / static_cast<double>(rows)) +
                      1e-9);
    }
  });
}

}  // namespace
}  // namespace netconst::rpca
