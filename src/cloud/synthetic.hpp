// SyntheticCloud — the EC2 substitute.
//
// Models a virtual cluster placed in a large data center with exactly the
// structure the paper measures on EC2 (and that makes RPCA applicable):
//
//  * a placement-dependent CONSTANT component: per-pair alpha/beta drawn
//    once from rack-locality bases plus persistent per-pair heterogeneity
//    (machine pairs differ, as [14], [2] observed);
//  * a multiplicative volatility BAND around the constant (consecutive
//    measurements form "a clear band, almost unpredictable at a single
//    point");
//  * SPARSE interference spikes: per-pair two-state renewal process
//    (quiet / congested) with exponential holding times — rare, heavy
//    and time-correlated, exactly the sparse error RPCA strips;
//  * rare SIGNIFICANT CHANGES: Poisson VM migrations that re-place one VM
//    and permanently change its row/column constants (what Algorithm 1's
//    update maintenance must detect).
//
// All randomness is deterministic given the seed; the sample path of each
// pair's interference process does not depend on when it is observed.
#pragma once

#include <cstdint>
#include <vector>

#include "cloud/provider.hpp"
#include "support/rng.hpp"

namespace netconst::cloud {

struct SyntheticCloudConfig {
  std::size_t cluster_size = 64;
  std::size_t datacenter_racks = 32;

  // Constant component bases (bytes/s and seconds).
  double same_rack_bandwidth = 120e6;
  double cross_rack_bandwidth = 60e6;
  double same_rack_latency = 150e-6;
  double cross_rack_latency = 450e-6;
  /// Log-space sigma of the persistent per-pair heterogeneity.
  double bandwidth_heterogeneity = 0.20;
  double latency_heterogeneity = 0.15;

  // Volatility band: each sample multiplies the constant by
  // exp(N(0, band_sigma)) on bandwidth and latency independently.
  double band_sigma = 0.04;

  // Sparse interference: two-state renewal per directed pair.
  double mean_quiet_duration = 9000.0;  // seconds without congestion
  double mean_spike_duration = 300.0;   // seconds of congestion
  double max_spike_bandwidth_factor = 4.0;  // bw divided by U(1.5, max)
  double max_spike_latency_factor = 3.0;    // alpha multiplied by U(1, max)

  // Correlated interference: per-rack uplink congestion events that
  // degrade EVERY cross-rack pair touching the rack at once (tenant
  // traffic on an oversubscribed uplink). This is the error structure
  // where RPCA's joint view of all links pays off over per-link
  // summaries.
  double mean_rack_quiet_duration = 7000.0;   // per rack
  double mean_rack_congestion_duration = 300.0;
  double max_rack_congestion_factor = 4.0;    // bw divided by U(1.5, max)

  // Diurnal load cycle: a slow cluster-wide multiplicative swing with
  // the data center's daily load. At factor f(t) = 1 + amplitude *
  // sin(2 pi t / period + phase) every latency is multiplied by f and
  // every bandwidth divided by f — the whole constant scales together,
  // so its DIRECTION is preserved while its level breathes (the
  // baseline-drift regime the change-point detector must separate from
  // placement shifts). 0 amplitude disables (the default).
  double diurnal_amplitude = 0.0;   // peak fractional swing, < 1
  double diurnal_period = 86400.0;  // seconds per cycle
  double diurnal_phase = 0.0;       // radians at t = 0

  // Significant changes: mean seconds between VM migrations; 0 disables.
  double mean_migration_interval = 0.0;

  // Concurrency model for measure_concurrent: per-rack uplink capacity
  // as a multiple of cross_rack_bandwidth. Concurrent cross-rack pairs
  // share their racks' uplinks fairly.
  double uplink_capacity_factor = 8.0;

  std::uint64_t seed = 12345;
};

class SyntheticCloud final : public NetworkProvider {
 public:
  explicit SyntheticCloud(const SyntheticCloudConfig& config);

  std::size_t cluster_size() const override { return config_.cluster_size; }
  double now() const override { return now_; }
  void advance(double seconds) override;
  double measure(std::size_t i, std::size_t j,
                 std::uint64_t bytes) override;
  std::vector<double> measure_concurrent(
      const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
      std::uint64_t bytes) override;
  netmodel::PerformanceMatrix oracle_snapshot() override;

  /// Ground-truth constant component (no band, no spikes) — what a
  /// perfect decomposition should recover. For tests and accuracy
  /// studies.
  netmodel::PerformanceMatrix ground_truth_constant() const;

  /// Rack of each VM under the current placement.
  const std::vector<std::size_t>& placement() const { return placement_; }

  /// Number of migrations that have occurred so far.
  std::size_t migration_count() const { return migration_count_; }

  /// The diurnal load factor at time `t` (1 when the cycle is off).
  double diurnal_factor(double t) const;

  /// Instantaneous link parameters for one pair (advances that pair's
  /// interference process to the current time). i != j.
  netmodel::LinkParams sample_link(std::size_t i, std::size_t j);

  /// Two-state renewal process state (used per pair and per rack).
  /// Public only so the implementation's helpers can operate on it.
  struct PairState {
    Rng rng;              // drives this process's renewal + band draws
    double state_until = 0.0;
    bool spiking = false;
    double bw_factor = 1.0;   // divide bandwidth while spiking
    double lat_factor = 1.0;  // multiply latency while spiking
  };

 private:

  std::size_t pair_index(std::size_t i, std::size_t j) const {
    return i * config_.cluster_size + j;
  }
  /// Congestion divisor of rack `rack` at the current time (1 = quiet).
  double rack_congestion_factor(std::size_t rack);
  void rebuild_constants_for(std::size_t vm);
  void rebuild_all_constants();
  void process_migrations_up_to(double t);
  void advance_pair_state(PairState& state, double t);
  netmodel::LinkParams sample_pair(std::size_t i, std::size_t j);

  SyntheticCloudConfig config_;
  Rng master_rng_;
  double now_ = 0.0;

  std::vector<std::size_t> placement_;  // rack per VM
  std::vector<std::size_t> epoch_;      // bumped on migration
  // Constant component caches (row-major cluster_size^2; diagonal unused).
  std::vector<double> const_alpha_;
  std::vector<double> const_beta_;
  std::vector<PairState> pair_states_;
  std::vector<PairState> rack_states_;  // per-rack congestion processes

  double next_migration_ = -1.0;  // < 0 when migrations are disabled
  Rng migration_rng_;
  std::size_t migration_count_ = 0;

  // measure_concurrent's scratch, kept so a call allocates only the
  // vector it returns: cross-rack transfers per rack (out and in) and
  // each pair's sampled link.
  std::vector<std::size_t> egress_, ingress_;
  std::vector<netmodel::LinkParams> sampled_;
};

}  // namespace netconst::cloud
