// All-link calibration of a virtual cluster.
//
// The paper's recipe (Section IV-B): measuring every ordered pair one by
// one is prohibitively expensive, so each step picks N/2 disjoint
// sender/receiver pairs measured concurrently, taking 2*N steps overall.
// The schedule here is the round-robin tournament (circle method): N-1
// rounds of N/2 disjoint unordered pairs, run once per direction — every
// ordered pair measured exactly once, in 2*(N-1) concurrent rounds.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "cloud/pingpong.hpp"
#include "cloud/provider.hpp"
#include "netmodel/trace.hpp"

namespace netconst::cloud {

using PairList = std::vector<std::pair<std::size_t, std::size_t>>;

/// Round-robin tournament rounds covering every ordered pair of
/// {0..n-1} exactly once. Each round's pairs are vertex-disjoint, so they
/// can be measured concurrently. Handles odd n (one VM idles per round).
std::vector<PairList> all_pairs_rounds(std::size_t n);

struct CalibrationOptions {
  PingpongOptions pingpong;
  /// Coordination cost charged per concurrent round (barrier + process
  /// launch), in seconds. This is what makes total calibration overhead
  /// roughly linear in N (Figure 4); 0.05 s/round reproduces the paper's
  /// ~4 min at 64 instances and ~10 min at 196 for a 10-row TP-matrix.
  double round_setup_overhead = 0.05;
  /// false = measure pairs one by one (no interference but O(N^2) cost);
  /// the paper's default is concurrent.
  bool concurrent = true;
  /// Degraded-measurement policy: a probe whose elapsed time comes back
  /// non-finite or non-positive (a timeout or a measurement dropped in
  /// flight — see faults::FaultInjectionProvider) is retried pair-wise
  /// up to `max_retries` times, idling `retry_backoff * attempt`
  /// seconds before each attempt. A link still unmeasured after the
  /// retries is marked missing (netmodel::missing_link) for the masked
  /// decomposition path to repair — a hole, never garbage.
  std::size_t max_retries = 2;
  double retry_backoff = 1.0;  // seconds; grows linearly per attempt
};

struct CalibrationResult {
  netmodel::PerformanceMatrix matrix;
  double elapsed_seconds = 0.0;  // simulated time the calibration took
  std::size_t rounds = 0;
  /// Probe values lost to faults (non-finite measurements), including
  /// retries that failed again.
  std::size_t failed_measurements = 0;
  /// Pair re-calibrations performed after a lost probe.
  std::size_t retries = 0;
  /// Links left missing after the retry budget was exhausted.
  std::size_t missing_links = 0;

  bool degraded() const { return failed_measurements > 0; }
};

/// One full all-link calibration (one TP-matrix row).
CalibrationResult calibrate_snapshot(NetworkProvider& provider,
                                     const CalibrationOptions& options = {});

/// calibrate_snapshot on `rounds`, which must be
/// all_pairs_rounds(provider.cluster_size()): a caller that calibrates
/// one cluster repeatedly builds the schedule once. The sequential
/// recipe (options.concurrent false) does not read it.
CalibrationResult calibrate_snapshot(NetworkProvider& provider,
                                     const std::vector<PairList>& rounds,
                                     const CalibrationOptions& options = {});

struct SeriesOptions {
  /// Number of calibration rows (the paper's "time step" parameter).
  std::size_t time_step = 10;
  /// Idle time between consecutive calibrations, seconds. Rows must be
  /// spaced wider than typical interference bursts (minutes) so that a
  /// congested link shows up as a SPARSE set of corrupted cells rather
  /// than polluting the whole window — that temporal sparsity is what
  /// RPCA exploits.
  double interval = 600.0;
  CalibrationOptions calibration;
};

struct SeriesResult {
  netmodel::TemporalPerformance series;
  double elapsed_seconds = 0.0;
};

/// Calibrate `time_step` snapshots spaced by `interval` — the TP-matrix
/// N_A of Algorithm 1 line 1.
SeriesResult calibrate_series(NetworkProvider& provider,
                              const SeriesOptions& options = {});

}  // namespace netconst::cloud
