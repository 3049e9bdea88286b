#include "cloud/synthetic.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace netconst::cloud {
namespace {

// Deterministic per-pair stream: mix the seed with the pair identity and
// the placement epochs so constants change exactly when a VM migrates.
std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

SyntheticCloud::SyntheticCloud(const SyntheticCloudConfig& config)
    : config_(config),
      master_rng_(config.seed),
      migration_rng_(mix(config.seed, 0xabcdefULL)) {
  NETCONST_CHECK(config_.cluster_size >= 2, "cluster needs >= 2 VMs");
  NETCONST_CHECK(config_.datacenter_racks >= 1, "need at least one rack");
  NETCONST_CHECK(config_.same_rack_bandwidth > 0.0 &&
                     config_.cross_rack_bandwidth > 0.0,
                 "bandwidth bases must be positive");
  NETCONST_CHECK(config_.mean_quiet_duration > 0.0 &&
                     config_.mean_spike_duration > 0.0,
                 "interference durations must be positive");
  NETCONST_CHECK(config_.diurnal_amplitude >= 0.0 &&
                     config_.diurnal_amplitude < 1.0,
                 "diurnal amplitude must be in [0, 1)");
  NETCONST_CHECK(config_.diurnal_amplitude == 0.0 ||
                     config_.diurnal_period > 0.0,
                 "diurnal period must be positive when the cycle is on");

  const std::size_t n = config_.cluster_size;
  placement_.resize(n);
  epoch_.assign(n, 0);
  for (std::size_t vm = 0; vm < n; ++vm) {
    placement_[vm] = static_cast<std::size_t>(master_rng_.uniform_int(
        0, static_cast<std::int64_t>(config_.datacenter_racks) - 1));
  }
  const_alpha_.assign(n * n, 0.0);
  const_beta_.assign(n * n, 1.0);
  rebuild_all_constants();

  pair_states_.reserve(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      PairState state;
      state.rng = Rng(mix(mix(config_.seed, i * n + j), 0x5eedULL));
      // Random initial phase within a quiet period.
      state.state_until =
          state.rng.exponential(config_.mean_quiet_duration);
      pair_states_.push_back(std::move(state));
    }
  }

  rack_states_.reserve(config_.datacenter_racks);
  for (std::size_t r = 0; r < config_.datacenter_racks; ++r) {
    PairState state;
    state.rng = Rng(mix(mix(config_.seed, 0x7ac5ULL), r));
    state.state_until =
        state.rng.exponential(config_.mean_rack_quiet_duration);
    rack_states_.push_back(std::move(state));
  }

  if (config_.mean_migration_interval > 0.0) {
    next_migration_ =
        migration_rng_.exponential(config_.mean_migration_interval);
  }
}

void SyntheticCloud::rebuild_constants_for(std::size_t vm) {
  const std::size_t n = config_.cluster_size;
  for (std::size_t other = 0; other < n; ++other) {
    if (other == vm) continue;
    for (const auto& [i, j] : {std::pair{vm, other}, std::pair{other, vm}}) {
      const bool same_rack = placement_[i] == placement_[j];
      Rng pair_rng(mix(mix(mix(mix(config_.seed, i), j), epoch_[i] * 131),
                       epoch_[j] * 257));
      const double base_alpha = same_rack ? config_.same_rack_latency
                                          : config_.cross_rack_latency;
      const double base_beta = same_rack ? config_.same_rack_bandwidth
                                         : config_.cross_rack_bandwidth;
      const_alpha_[pair_index(i, j)] =
          base_alpha *
          std::exp(config_.latency_heterogeneity * pair_rng.normal());
      const_beta_[pair_index(i, j)] =
          base_beta *
          std::exp(config_.bandwidth_heterogeneity * pair_rng.normal());
    }
  }
}

void SyntheticCloud::rebuild_all_constants() {
  for (std::size_t vm = 0; vm < config_.cluster_size; ++vm) {
    rebuild_constants_for(vm);
  }
}

void SyntheticCloud::process_migrations_up_to(double t) {
  while (next_migration_ >= 0.0 && next_migration_ <= t) {
    const auto vm = static_cast<std::size_t>(migration_rng_.uniform_int(
        0, static_cast<std::int64_t>(config_.cluster_size) - 1));
    placement_[vm] = static_cast<std::size_t>(migration_rng_.uniform_int(
        0, static_cast<std::int64_t>(config_.datacenter_racks) - 1));
    ++epoch_[vm];
    ++migration_count_;
    rebuild_constants_for(vm);
    next_migration_ +=
        migration_rng_.exponential(config_.mean_migration_interval);
  }
}

void SyntheticCloud::advance(double seconds) {
  NETCONST_CHECK(seconds >= 0.0, "cannot advance backwards");
  now_ += seconds;
  process_migrations_up_to(now_);
}

namespace {

// Advance a two-state renewal process (quiet <-> congested) to time `t`.
void advance_renewal(SyntheticCloud::PairState& state, double t,
                     double mean_quiet, double mean_congested,
                     double max_bw_factor, double max_lat_factor) {
  while (state.state_until < t) {
    state.spiking = !state.spiking;
    if (state.spiking) {
      state.bw_factor = state.rng.uniform(1.5, max_bw_factor);
      state.lat_factor = state.rng.uniform(1.0, max_lat_factor);
      state.state_until += state.rng.exponential(mean_congested);
    } else {
      state.bw_factor = 1.0;
      state.lat_factor = 1.0;
      state.state_until += state.rng.exponential(mean_quiet);
    }
  }
}

}  // namespace

void SyntheticCloud::advance_pair_state(PairState& state, double t) {
  advance_renewal(state, t, config_.mean_quiet_duration,
                  config_.mean_spike_duration,
                  config_.max_spike_bandwidth_factor,
                  config_.max_spike_latency_factor);
}

double SyntheticCloud::rack_congestion_factor(std::size_t rack) {
  NETCONST_ASSERT(rack < rack_states_.size());
  PairState& state = rack_states_[rack];
  advance_renewal(state, now_, config_.mean_rack_quiet_duration,
                  config_.mean_rack_congestion_duration,
                  config_.max_rack_congestion_factor,
                  /*max_lat_factor=*/1.0);
  return state.spiking ? state.bw_factor : 1.0;
}

double SyntheticCloud::diurnal_factor(double t) const {
  if (config_.diurnal_amplitude == 0.0) return 1.0;
  return 1.0 + config_.diurnal_amplitude *
                   std::sin(2.0 * 3.14159265358979323846 * t /
                                config_.diurnal_period +
                            config_.diurnal_phase);
}

netmodel::LinkParams SyntheticCloud::sample_pair(std::size_t i,
                                                 std::size_t j) {
  PairState& state = pair_states_[pair_index(i, j)];
  advance_pair_state(state, now_);
  const double band_bw = std::exp(config_.band_sigma * state.rng.normal());
  const double band_lat = std::exp(config_.band_sigma * state.rng.normal());
  // The daily load swing scales the whole fabric together: latencies
  // stretch and bandwidths shrink by the same factor, so the constant's
  // direction survives while its level breathes.
  const double diurnal = diurnal_factor(now_);
  netmodel::LinkParams link;
  link.alpha = const_alpha_[pair_index(i, j)] * band_lat * state.lat_factor *
               diurnal;
  link.beta = const_beta_[pair_index(i, j)] * band_bw /
              (state.bw_factor * diurnal);
  // Cross-rack pairs additionally share their racks' uplinks; an ongoing
  // rack congestion event degrades every pair touching the rack.
  if (placement_[i] != placement_[j]) {
    link.beta /= std::max(rack_congestion_factor(placement_[i]),
                          rack_congestion_factor(placement_[j]));
  }
  return link;
}

netmodel::LinkParams SyntheticCloud::sample_link(std::size_t i,
                                                 std::size_t j) {
  NETCONST_CHECK(i < cluster_size() && j < cluster_size() && i != j,
                 "invalid pair");
  return sample_pair(i, j);
}

double SyntheticCloud::measure(std::size_t i, std::size_t j,
                               std::uint64_t bytes) {
  const netmodel::LinkParams link = sample_link(i, j);
  const double elapsed = link.transfer_time(bytes);
  advance(elapsed);
  return elapsed;
}

std::vector<double> SyntheticCloud::measure_concurrent(
    const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
    std::uint64_t bytes) {
  // Concurrent cross-rack transfers share their racks' uplinks fairly.
  const std::size_t racks = config_.datacenter_racks;
  egress_.assign(racks, 0);
  ingress_.assign(racks, 0);
  sampled_.clear();
  for (const auto& [i, j] : pairs) {
    NETCONST_CHECK(i < cluster_size() && j < cluster_size() && i != j,
                   "invalid pair");
    sampled_.push_back(sample_pair(i, j));
    if (placement_[i] != placement_[j]) {
      ++egress_[placement_[i]];
      ++ingress_[placement_[j]];
    }
  }
  const double uplink_capacity =
      config_.uplink_capacity_factor * config_.cross_rack_bandwidth;
  std::vector<double> elapsed;
  elapsed.reserve(pairs.size());
  double max_elapsed = 0.0;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto& [i, j] = pairs[k];
    double beta = sampled_[k].beta;
    if (placement_[i] != placement_[j]) {
      const auto users = static_cast<double>(
          std::max(egress_[placement_[i]], ingress_[placement_[j]]));
      beta = std::min(beta, uplink_capacity / std::max(users, 1.0));
    }
    const double t = sampled_[k].alpha +
                     static_cast<double>(bytes) / beta;
    elapsed.push_back(t);
    max_elapsed = std::max(max_elapsed, t);
  }
  advance(max_elapsed);
  return elapsed;
}

netmodel::PerformanceMatrix SyntheticCloud::oracle_snapshot() {
  const std::size_t n = cluster_size();
  netmodel::PerformanceMatrix snap(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      snap.set_link(i, j, sample_pair(i, j));
    }
  }
  return snap;
}

netmodel::PerformanceMatrix SyntheticCloud::ground_truth_constant() const {
  const std::size_t n = cluster_size();
  netmodel::PerformanceMatrix snap(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      snap.set_link(i, j, {const_alpha_[pair_index(i, j)],
                           const_beta_[pair_index(i, j)]});
    }
  }
  return snap;
}

}  // namespace netconst::cloud
