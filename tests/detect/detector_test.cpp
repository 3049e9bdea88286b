// Unit tests of the change-point detector: support geometry, CUSUM
// mechanics, verdict classification, cooldown, and determinism of the
// verdict stream.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "detect/detector.hpp"
#include "linalg/matrix.hpp"
#include "support/rng.hpp"

namespace netconst::detect {
namespace {

constexpr std::size_t kN = 6;  // cluster size

linalg::Matrix sparse_layer(std::size_t rows) {
  linalg::Matrix e(rows, kN * kN);
  e.fill(0.0);
  return e;
}

TEST(Detector, SupportStatsConcentratesOnOneVm) {
  // Every off-diagonal pair touching VM 2 carries support in one row.
  linalg::Matrix e = sparse_layer(3);
  for (std::size_t c = 0; c < kN * kN; ++c) {
    const std::size_t i = c / kN;
    const std::size_t j = c % kN;
    if (i == j) continue;
    if (i == 2 || j == 2) e(1, c) = 5.0;
  }
  const SupportStats stats = support_stats(e, kN, 1.0);
  EXPECT_EQ(stats.vm, 2u);
  EXPECT_DOUBLE_EQ(stats.concentration, 1.0);
  // 2 * (kN - 1) support entries out of 3 rows * kN * (kN - 1).
  EXPECT_DOUBLE_EQ(stats.fraction,
                   static_cast<double>(2 * (kN - 1)) /
                       static_cast<double>(3 * kN * (kN - 1)));
}

TEST(Detector, SupportStatsDiffuseScoresLow) {
  // Support on every off-diagonal pair: each VM touches 2 * (kN - 1) of
  // kN * (kN - 1) entries — concentration 2 / kN.
  linalg::Matrix e = sparse_layer(1);
  for (std::size_t c = 0; c < kN * kN; ++c) {
    if (c / kN != c % kN) e(0, c) = 3.0;
  }
  const SupportStats stats = support_stats(e, kN, 1.0);
  EXPECT_NEAR(stats.concentration, 2.0 / static_cast<double>(kN), 1e-12);
  EXPECT_DOUBLE_EQ(stats.fraction, 1.0);
}

TEST(Detector, SupportStatsEmptyBelowCutoff) {
  linalg::Matrix e = sparse_layer(2);
  e(0, 1) = 0.5;  // below cutoff
  const SupportStats stats = support_stats(e, kN, 1.0);
  EXPECT_DOUBLE_EQ(stats.fraction, 0.0);
  EXPECT_DOUBLE_EQ(stats.concentration, 0.0);
  EXPECT_EQ(stats.vm, 0u);
}

// The block walk against a brute-force count over flat column indices,
// on a random layer with a NaN entry (support: it is not <= the cutoff)
// and a non-zero diagonal entry (never support).
TEST(Detector, SupportStatsMatchBruteForceCount) {
  constexpr std::size_t kVms = 7;
  constexpr double kCutoff = 0.6;
  Rng rng(31);
  linalg::Matrix e(5, kVms * kVms);
  for (double& x : e.data()) x = rng.uniform(-1.0, 1.0);
  e(1, 3 * kVms + 4) = std::numeric_limits<double>::quiet_NaN();
  e(2, 5 * kVms + 5) = 9.0;

  std::uint64_t total = 0;
  std::vector<std::uint64_t> touches(kVms, 0);
  for (std::size_t r = 0; r < e.rows(); ++r) {
    for (std::size_t c = 0; c < e.cols(); ++c) {
      const std::size_t i = c / kVms;
      const std::size_t j = c % kVms;
      const double x = e(r, c);
      const bool support = std::isnan(x) || std::abs(x) > kCutoff;
      if (i == j || !support) continue;
      ++total;
      ++touches[i];
      ++touches[j];
    }
  }
  const std::size_t vm = static_cast<std::size_t>(
      std::max_element(touches.begin(), touches.end()) - touches.begin());

  const SupportStats stats = support_stats(e, kVms, kCutoff);
  ASSERT_GT(total, 0u);
  EXPECT_EQ(stats.fraction, static_cast<double>(total) /
                                static_cast<double>(5 * kVms * (kVms - 1)));
  EXPECT_EQ(stats.vm, vm);
  EXPECT_EQ(stats.concentration, static_cast<double>(touches[vm]) /
                                     static_cast<double>(total));
}

/// A quiet refresh signal stream around fixed baselines.
RefreshSignals quiet(std::uint64_t refresh, const std::vector<double>* c) {
  RefreshSignals s;
  s.time = 600.0 * static_cast<double>(refresh);
  s.refresh = refresh;
  s.sparsity = 0.05;
  s.residual = 1e-8;
  s.drift = 0.0;
  s.support_concentration = 0.3;
  s.support_vm = 0;
  s.constant = c;
  return s;
}

std::vector<double> flat_constant(double scale) {
  std::vector<double> c(kN * kN, 0.0);
  for (std::size_t k = 0; k < c.size(); ++k) {
    c[k] = scale * (1.0 + 0.1 * static_cast<double>(k % kN));
  }
  return c;
}

TEST(Detector, WarmupProducesNoVerdictsAndFreezesReference) {
  ChangePointDetector detector;
  const std::vector<double> c = flat_constant(1.0);
  for (std::uint64_t r = 1; r <= detector.options().warmup_slides; ++r) {
    EXPECT_FALSE(detector.observe(quiet(r, &c)).has_value());
  }
  EXPECT_TRUE(detector.warmed_up());
  EXPECT_TRUE(detector.has_reference());
}

TEST(Detector, ConcentratedSparsityJumpIsPlacementShift) {
  ChangePointDetector detector;
  const std::vector<double> c = flat_constant(1.0);
  std::uint64_t r = 1;
  for (; r <= 10; ++r) {
    ASSERT_FALSE(detector.observe(quiet(r, &c)).has_value());
  }
  RefreshSignals anomaly = quiet(r, &c);
  anomaly.sparsity = 0.30;  // sparse mass surged...
  anomaly.support_concentration = 0.85;  // ...onto one VM's links
  anomaly.support_vm = 3;
  const std::optional<Verdict> verdict = detector.observe(anomaly);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->kind, VerdictKind::PlacementShift);
  EXPECT_EQ(verdict->signal, Signal::Sparsity);
  EXPECT_EQ(verdict->vm, 3u);
  EXPECT_EQ(verdict->latency_slides, 1u);
  EXPECT_GE(verdict->score, detector.options().cusum_threshold);
  EXPECT_TRUE(detector.in_cooldown());
  // Cooldown: the continuing anomaly yields no duplicate verdicts while
  // the baselines re-learn the new regime.
  for (std::uint64_t k = 0; k < detector.options().cooldown_slides; ++k) {
    anomaly.refresh = ++r;
    EXPECT_FALSE(detector.observe(anomaly).has_value());
  }
  EXPECT_FALSE(detector.in_cooldown());
}

TEST(Detector, DiffuseSparsityJumpIsOutlierStorm) {
  ChangePointDetector detector;
  const std::vector<double> c = flat_constant(1.0);
  std::uint64_t r = 1;
  for (; r <= 10; ++r) {
    ASSERT_FALSE(detector.observe(quiet(r, &c)).has_value());
  }
  RefreshSignals anomaly = quiet(r, &c);
  anomaly.sparsity = 0.30;
  anomaly.support_concentration = 0.33;  // spread across the cluster
  const std::optional<Verdict> verdict = detector.observe(anomaly);
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->kind, VerdictKind::OutlierStorm);
}

TEST(Detector, UniformLevelShiftIsBaselineDrift) {
  ChangePointDetector detector;
  const std::vector<double> base = flat_constant(1.0);
  std::uint64_t r = 1;
  for (; r <= 10; ++r) {
    ASSERT_FALSE(detector.observe(quiet(r, &base)).has_value());
  }
  // The whole constant scales up 60% — direction identical, level off.
  // Direction breaches are held for confirmation, so the shift must
  // persist through the confirm window before the verdict lands.
  const std::vector<double> scaled = flat_constant(1.6);
  std::optional<Verdict> verdict;
  std::uint64_t held_slides = 0;
  for (std::uint64_t k = 0;
       !verdict && k <= detector.options().direction_confirm_slides; ++k) {
    verdict = detector.observe(quiet(r++, &scaled));
    if (!verdict) {
      EXPECT_TRUE(detector.confirming());
      ++held_slides;
    }
  }
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(held_slides, detector.options().direction_confirm_slides);
  EXPECT_EQ(verdict->kind, VerdictKind::BaselineDrift);
  EXPECT_EQ(verdict->signal, Signal::Level);
  EXPECT_EQ(verdict->latency_slides, held_slides + 1);
}

TEST(Detector, DirectionRotationIsBaselineDrift) {
  ChangePointDetector detector;
  const std::vector<double> base = flat_constant(1.0);
  std::uint64_t r = 1;
  for (; r <= 10; ++r) {
    ASSERT_FALSE(detector.observe(quiet(r, &base)).has_value());
  }
  // Rotate the direction without moving the sparsity track; the
  // rotation persists through the confirmation hold.
  std::vector<double> rotated = base;
  for (std::size_t k = 0; k < rotated.size(); k += 2) rotated[k] *= 3.0;
  std::optional<Verdict> verdict;
  for (std::uint64_t k = 0;
       !verdict && k <= detector.options().direction_confirm_slides; ++k) {
    verdict = detector.observe(quiet(r++, &rotated));
  }
  ASSERT_TRUE(verdict.has_value());
  EXPECT_EQ(verdict->kind, VerdictKind::BaselineDrift);
  EXPECT_EQ(verdict->signal, Signal::Angle);
}

TEST(Detector, TransientLevelExcursionIsCancelled) {
  // A one-slide level excursion — an outlier storm leaking a uniform
  // multiplier into the low-rank side — arms the confirmation hold,
  // then the constant reverts before the hold expires: no verdict, and
  // the stale direction evidence is dropped.
  ChangePointDetector detector;
  const std::vector<double> base = flat_constant(1.0);
  std::uint64_t r = 1;
  for (; r <= 10; ++r) {
    ASSERT_FALSE(detector.observe(quiet(r, &base)).has_value());
  }
  const std::vector<double> burst = flat_constant(1.6);
  ASSERT_FALSE(detector.observe(quiet(r++, &burst)).has_value());
  EXPECT_TRUE(detector.confirming());
  for (std::uint64_t k = 0; k < 10; ++k) {
    EXPECT_FALSE(detector.observe(quiet(r++, &base)).has_value());
  }
  EXPECT_FALSE(detector.confirming());
  EXPECT_DOUBLE_EQ(detector.track(Signal::Level).cusum, 0.0);
}

TEST(Detector, SlowOnsetAccountsLatencyInSlides) {
  DetectorOptions options;
  options.cusum_threshold = 8.0;
  ChangePointDetector detector(options);
  const std::vector<double> c = flat_constant(1.0);
  std::uint64_t r = 1;
  for (; r <= 10; ++r) {
    ASSERT_FALSE(detector.observe(quiet(r, &c)).has_value());
  }
  // A creeping sparsity rise: each slide adds ~3.4 deviations, so the
  // CUSUM needs several slides to reach h = 8.
  std::optional<Verdict> verdict;
  std::uint64_t slides_used = 0;
  for (std::uint64_t k = 1; k <= 6 && !verdict; ++k) {
    RefreshSignals creep = quiet(r++, &c);
    creep.sparsity = 0.05 + 0.012 * static_cast<double>(k);
    creep.support_concentration = 0.8;
    creep.support_vm = 1;
    verdict = detector.observe(creep);
    ++slides_used;
  }
  ASSERT_TRUE(verdict.has_value());
  EXPECT_GT(verdict->latency_slides, 1u);
  EXPECT_EQ(verdict->latency_slides, slides_used);
}

TEST(Detector, QuietStreamNeverFires) {
  ChangePointDetector detector;
  const std::vector<double> c = flat_constant(1.0);
  for (std::uint64_t r = 1; r <= 200; ++r) {
    EXPECT_FALSE(detector.observe(quiet(r, &c)).has_value());
  }
}

TEST(Detector, VerdictStreamIsDeterministic) {
  // Two detectors fed the identical signal stream produce bit-identical
  // verdict streams — the service's thread-count independence reduces
  // to exactly this property.
  ChangePointDetector a, b;
  const std::vector<double> base = flat_constant(1.0);
  const std::vector<double> scaled = flat_constant(1.4);
  for (std::uint64_t r = 1; r <= 40; ++r) {
    RefreshSignals s = quiet(r, r % 17 == 0 ? &scaled : &base);
    if (r % 13 == 0) {
      s.sparsity = 0.25;
      s.support_concentration = 0.9;
      s.support_vm = r % kN;
    }
    const std::optional<Verdict> va = a.observe(s);
    const std::optional<Verdict> vb = b.observe(s);
    ASSERT_EQ(va.has_value(), vb.has_value());
    if (!va) continue;
    EXPECT_EQ(va->kind, vb->kind);
    EXPECT_EQ(va->signal, vb->signal);
    EXPECT_EQ(va->refresh, vb->refresh);
    EXPECT_EQ(va->latency_slides, vb->latency_slides);
    EXPECT_EQ(va->vm, vb->vm);
    // Bit-level agreement of the floating-point fields.
    EXPECT_EQ(va->score, vb->score);
    EXPECT_EQ(va->concentration, vb->concentration);
  }
  EXPECT_EQ(a.slides(), b.slides());
}

TEST(Detector, ResetForgetsEverything) {
  ChangePointDetector detector;
  const std::vector<double> c = flat_constant(1.0);
  for (std::uint64_t r = 1; r <= 10; ++r) {
    detector.observe(quiet(r, &c));
  }
  EXPECT_TRUE(detector.warmed_up());
  detector.reset();
  EXPECT_EQ(detector.slides(), 0u);
  EXPECT_FALSE(detector.warmed_up());
  EXPECT_FALSE(detector.has_reference());
  EXPECT_DOUBLE_EQ(detector.track(Signal::Sparsity).mean, 0.0);
}

TEST(Detector, NamesAreStable) {
  EXPECT_STREQ(verdict_kind_name(VerdictKind::PlacementShift),
               "placement_shift");
  EXPECT_STREQ(verdict_kind_name(VerdictKind::OutlierStorm),
               "outlier_storm");
  EXPECT_STREQ(verdict_kind_name(VerdictKind::BaselineDrift),
               "baseline_drift");
  EXPECT_STREQ(signal_name(Signal::Sparsity), "sparsity");
  EXPECT_STREQ(signal_name(Signal::Drift), "drift");
  EXPECT_STREQ(signal_name(Signal::Angle), "angle");
  EXPECT_STREQ(signal_name(Signal::Level), "level");
}

}  // namespace
}  // namespace netconst::detect
