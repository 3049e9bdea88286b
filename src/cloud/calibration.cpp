#include "cloud/calibration.hpp"

#include <cmath>

#include "support/error.hpp"

namespace netconst::cloud {
namespace {

/// A usable probe value: finite and positive. Fault injection reports
/// lost values as NaN; a hostile provider could also return 0 or -inf.
bool usable(double elapsed) {
  return std::isfinite(elapsed) && elapsed > 0.0;
}

/// Fit one link from a (small, large) probe pair, retrying the pair
/// with linear backoff while either value is unusable. On success the
/// link is written into `result.matrix`; on exhaustion it is marked
/// missing. Fault accounting lands in `result`.
void fit_or_retry(NetworkProvider& provider, std::size_t i, std::size_t j,
                  double t_small, double t_large,
                  const CalibrationOptions& options,
                  CalibrationResult& result) {
  if (!usable(t_small)) ++result.failed_measurements;
  if (!usable(t_large)) ++result.failed_measurements;
  for (std::size_t attempt = 1;
       (!usable(t_small) || !usable(t_large)) &&
       attempt <= options.max_retries;
       ++attempt) {
    provider.advance(options.retry_backoff *
                     static_cast<double>(attempt));
    ++result.retries;
    t_small = provider.measure(i, j, options.pingpong.small_bytes);
    t_large = provider.measure(i, j, options.pingpong.large_bytes);
    if (!usable(t_small)) ++result.failed_measurements;
    if (!usable(t_large)) ++result.failed_measurements;
  }
  if (usable(t_small) && usable(t_large)) {
    result.matrix.set_link(i, j,
                           robust_fit(t_small, options.pingpong.small_bytes,
                                      t_large,
                                      options.pingpong.large_bytes));
  } else {
    result.matrix.mark_link_missing(i, j);
    ++result.missing_links;
  }
}

}  // namespace

std::vector<PairList> all_pairs_rounds(std::size_t n) {
  NETCONST_CHECK(n >= 2, "need at least two VMs");
  // Circle method on m participants (m = n rounded up to even; index m-1
  // is the bye when n is odd).
  const std::size_t m = n % 2 == 0 ? n : n + 1;
  std::vector<std::size_t> ring(m);
  for (std::size_t i = 0; i < m; ++i) ring[i] = i;

  std::vector<PairList> rounds;
  rounds.reserve(2 * (m - 1));
  for (std::size_t r = 0; r < m - 1; ++r) {
    PairList forward, backward;
    for (std::size_t k = 0; k < m / 2; ++k) {
      const std::size_t a = ring[k];
      const std::size_t b = ring[m - 1 - k];
      if (a >= n || b >= n) continue;  // bye slot
      forward.emplace_back(a, b);
      backward.emplace_back(b, a);
    }
    if (!forward.empty()) {
      rounds.push_back(std::move(forward));
      rounds.push_back(std::move(backward));
    }
    // Rotate all but the first element.
    std::size_t last = ring[m - 1];
    for (std::size_t i = m - 1; i > 1; --i) ring[i] = ring[i - 1];
    ring[1] = last;
  }
  return rounds;
}

CalibrationResult calibrate_snapshot(NetworkProvider& provider,
                                     const CalibrationOptions& options) {
  return calibrate_snapshot(
      provider,
      options.concurrent ? all_pairs_rounds(provider.cluster_size())
                         : std::vector<PairList>{},
      options);
}

CalibrationResult calibrate_snapshot(NetworkProvider& provider,
                                     const std::vector<PairList>& rounds,
                                     const CalibrationOptions& options) {
  const std::size_t n = provider.cluster_size();
  const double start = provider.now();
  CalibrationResult result;
  result.matrix = netmodel::PerformanceMatrix(n);

  if (options.concurrent) {
    std::size_t pairs = 0;
    for (const PairList& round : rounds) pairs += round.size();
    NETCONST_CHECK(pairs == n * (n - 1),
                   "round schedule does not cover the cluster");
    for (const PairList& round : rounds) {
      provider.advance(options.round_setup_overhead);
      const std::vector<double> small = provider.measure_concurrent(
          round, options.pingpong.small_bytes);
      const std::vector<double> large = provider.measure_concurrent(
          round, options.pingpong.large_bytes);
      for (std::size_t k = 0; k < round.size(); ++k) {
        fit_or_retry(provider, round[k].first, round[k].second, small[k],
                     large[k], options, result);
      }
      ++result.rounds;
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        provider.advance(options.round_setup_overhead);
        const double t_small =
            provider.measure(i, j, options.pingpong.small_bytes);
        const double t_large =
            provider.measure(i, j, options.pingpong.large_bytes);
        fit_or_retry(provider, i, j, t_small, t_large, options, result);
        ++result.rounds;
      }
    }
  }
  result.elapsed_seconds = provider.now() - start;
  return result;
}

SeriesResult calibrate_series(NetworkProvider& provider,
                              const SeriesOptions& options) {
  NETCONST_CHECK(options.time_step >= 1, "time step must be >= 1");
  const double start = provider.now();
  const std::vector<PairList> rounds =
      options.calibration.concurrent
          ? all_pairs_rounds(provider.cluster_size())
          : std::vector<PairList>{};
  SeriesResult result;
  for (std::size_t row = 0; row < options.time_step; ++row) {
    if (row != 0) provider.advance(options.interval);
    CalibrationResult snap =
        calibrate_snapshot(provider, rounds, options.calibration);
    result.series.append(provider.now(), std::move(snap.matrix));
  }
  result.elapsed_seconds = provider.now() - start;
  return result;
}

}  // namespace netconst::cloud
