#include "detect/detector.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"

namespace netconst::detect {

const char* verdict_kind_name(VerdictKind kind) {
  switch (kind) {
    case VerdictKind::PlacementShift:
      return "placement_shift";
    case VerdictKind::OutlierStorm:
      return "outlier_storm";
    case VerdictKind::BaselineDrift:
      return "baseline_drift";
  }
  return "unknown";
}

const char* signal_name(Signal signal) {
  switch (signal) {
    case Signal::Sparsity:
      return "sparsity";
    case Signal::Drift:
      return "drift";
    case Signal::Angle:
      return "angle";
    case Signal::Level:
      return "level";
  }
  return "unknown";
}

SupportStats support_stats(const linalg::Matrix& sparse,
                           std::size_t cluster_size, double cutoff) {
  NETCONST_CHECK(cluster_size >= 2, "support_stats needs >= 2 VMs");
  NETCONST_CHECK(sparse.cols() == cluster_size * cluster_size,
                 "sparse layer columns must be cluster_size^2");
  NETCONST_CHECK(cutoff >= 0.0, "support cutoff must be >= 0");
  std::vector<std::uint64_t> touches(cluster_size, 0);
  // Column i * N + j is pair (i, j): walk each row as N blocks of N.
  // An entry is support unless |e| <= cutoff, so a NaN counts.
  for (std::size_t r = 0; r < sparse.rows(); ++r) {
    const double* row = sparse.row(r).data();
    for (std::size_t i = 0; i < cluster_size; ++i) {
      const double* block = row + i * cluster_size;
      std::uint64_t from_i = 0;
      for (std::size_t j = 0; j < cluster_size; ++j) {
        // The diagonal is identically zero by layout.
        if (j == i || std::abs(block[j]) <= cutoff) continue;
        ++from_i;
        ++touches[j];
      }
      touches[i] += from_i;
    }
  }
  return support_geometry(touches, sparse.rows());
}

SupportStats support_geometry(std::span<const std::uint64_t> touches,
                              std::size_t rows) {
  const std::size_t cluster_size = touches.size();
  NETCONST_CHECK(cluster_size >= 2, "support_geometry needs >= 2 VMs");
  SupportStats stats;
  std::uint64_t ends = 0;
  for (const std::uint64_t t : touches) ends += t;
  const std::uint64_t total = ends / 2;
  if (total == 0) return stats;
  const std::size_t off_diag = rows * cluster_size * (cluster_size - 1);
  stats.fraction =
      static_cast<double>(total) / static_cast<double>(off_diag);
  std::size_t best = 0;
  for (std::size_t v = 1; v < cluster_size; ++v) {
    if (touches[v] > touches[best]) best = v;
  }
  stats.vm = best;
  stats.concentration =
      static_cast<double>(touches[best]) / static_cast<double>(total);
  return stats;
}

ChangePointDetector::ChangePointDetector(const DetectorOptions& options)
    : options_(options) {
  NETCONST_CHECK(options_.ewma_alpha > 0.0 && options_.ewma_alpha <= 1.0,
                 "ewma_alpha must be in (0, 1]");
  NETCONST_CHECK(options_.cusum_slack >= 0.0, "cusum_slack must be >= 0");
  NETCONST_CHECK(options_.cusum_threshold > 0.0,
                 "cusum_threshold must be > 0");
  NETCONST_CHECK(options_.deviation_floor > 0.0,
                 "deviation_floor must be > 0");
  NETCONST_CHECK(options_.concentration_split >= 0.0 &&
                     options_.concentration_split <= 1.0,
                 "concentration_split must be in [0, 1]");
  NETCONST_CHECK(options_.direction_settle_ratio > 0.0 &&
                     options_.direction_settle_ratio <= 1.0,
                 "direction_settle_ratio must be in (0, 1]");
}

void ChangePointDetector::reset() {
  tracks_ = {};
  reference_.clear();
  reference_norm_ = 0.0;
  delta_concentration_ = 0.0;
  delta_vm_ = 0;
  slides_ = 0;
  cooldown_ = 0;
  sparse_cooldown_ = 0;
  pending_ = 0;
  pending_signal_ = Signal::Angle;
  pending_onset_ = 0;
  pending_peak_ = 0.0;
}

void ChangePointDetector::freeze_reference(
    const std::vector<double>& constant) {
  reference_ = constant;
  double sum = 0.0;
  for (const double v : reference_) sum += v * v;
  reference_norm_ = std::sqrt(sum);
}

void ChangePointDetector::direction_signals(
    const std::vector<double>* constant, double& angle, double& level) {
  angle = 0.0;
  level = 0.0;
  delta_concentration_ = 0.0;
  delta_vm_ = 0;
  if (constant == nullptr || reference_.empty() ||
      constant->size() != reference_.size() || reference_norm_ <= 0.0) {
    return;
  }
  double dot = 0.0;
  double norm_sq = 0.0;
  for (std::size_t k = 0; k < reference_.size(); ++k) {
    dot += (*constant)[k] * reference_[k];
    norm_sq += (*constant)[k] * (*constant)[k];
  }
  const double norm = std::sqrt(norm_sq);
  if (norm <= 0.0) return;
  const double cosine =
      std::clamp(dot / (norm * reference_norm_), -1.0, 1.0);
  angle = std::acos(cosine);
  level = std::abs(std::log(norm / reference_norm_));

  // Attribute the direction change per VM: centered log-ratios
  // d_k = log(c_k / ref_k) - mean(d) are zero for a uniform swing and
  // concentrate their energy on one VM's pairs after a placement shift
  // (the mean removal strips the global level change first).
  const auto n = static_cast<std::size_t>(
      std::lround(std::sqrt(static_cast<double>(reference_.size()))));
  if (n < 2 || n * n != reference_.size()) return;
  std::vector<double> ratios(reference_.size(), 0.0);
  double ratio_sum = 0.0;
  std::size_t valid = 0;
  for (std::size_t k = 0; k < reference_.size(); ++k) {
    if ((*constant)[k] <= 0.0 || reference_[k] <= 0.0) continue;
    ratios[k] = std::log((*constant)[k] / reference_[k]);
    ratio_sum += ratios[k];
    ++valid;
  }
  if (valid == 0) return;
  const double ratio_mean = ratio_sum / static_cast<double>(valid);
  std::vector<double> vm_energy(n, 0.0);
  double total_energy = 0.0;
  for (std::size_t k = 0; k < reference_.size(); ++k) {
    if ((*constant)[k] <= 0.0 || reference_[k] <= 0.0) continue;
    const double centered = ratios[k] - ratio_mean;
    const double energy = centered * centered;
    total_energy += energy;
    vm_energy[k / n] += energy;
    vm_energy[k % n] += energy;
  }
  if (total_energy <= 1e-12) return;  // pure level move: no direction
  std::size_t best = 0;
  for (std::size_t v = 1; v < n; ++v) {
    if (vm_energy[v] > vm_energy[best]) best = v;
  }
  delta_vm_ = best;
  delta_concentration_ = vm_energy[best] / total_energy;
}

void ChangePointDetector::advance_track(SignalTrack& track, double value,
                                        bool learn_only) {
  track.last_value = value;
  if (!track.primed) {
    track.mean = value;
    track.dev = 0.0;
    track.primed = true;
    track.last_z = 0.0;
    return;
  }
  const double innovation = value - track.mean;
  const double denom =
      std::max(track.dev, options_.deviation_floor +
                              options_.deviation_rel_floor *
                                  std::abs(track.mean));
  const double z = innovation / denom;
  track.last_z = z;
  if (!learn_only) {
    const double next =
        std::max(0.0, track.cusum + z - options_.cusum_slack);
    if (track.cusum == 0.0 && next > 0.0) track.onset = slides_;
    track.cusum = next;
    if (track.cusum == 0.0) track.onset = 0;
  }
  // An anomaly in progress must not teach the baseline that it is
  // normal; during warmup/cooldown (learn_only) everything teaches.
  // The gate is one-sided like the CUSUM: downward innovations always
  // teach, so a baseline stranded above the signal re-learns instead
  // of staying desensitized. While the CUSUM is accumulating the
  // baseline freezes entirely — a persistent step must not be chased
  // by the mean while the evidence builds toward the threshold.
  if (learn_only ||
      (track.cusum == 0.0 && z <= options_.baseline_gate_z)) {
    track.mean += options_.ewma_alpha * innovation;
    track.dev = (1.0 - options_.ewma_alpha) * track.dev +
                options_.ewma_alpha * std::abs(innovation);
  }
}

Verdict ChangePointDetector::classify(Signal breached,
                                      const RefreshSignals& signals,
                                      double angle, double level) const {
  Verdict verdict;
  verdict.signal = breached;
  verdict.time = signals.time;
  verdict.refresh = signals.refresh;
  verdict.concentration = signals.support_concentration;
  // While a direction excursion is held for confirmation the low-rank
  // estimate itself is suspect, and sparse support measured against it
  // attributes storm mass to arbitrary VMs — sparse-side breaches may
  // not claim a placement shift until the hold settles the question.
  const bool concentrated =
      pending_ == 0 &&
      signals.support_concentration >= options_.concentration_split;
  const bool sparsity_elevated =
      track(Signal::Sparsity).cusum > 0.0;
  // A placement shift, unlike the estimator's own wander, moves the
  // constant by a macroscopic amount: direction-based placement calls
  // additionally need the raw angle/level past the magnitude floor.
  const bool direction_moved =
      std::max(angle, level) >= options_.min_direction_shift &&
      delta_concentration_ >= options_.concentration_split;
  switch (breached) {
    case Signal::Sparsity:
      verdict.kind = concentrated ? VerdictKind::PlacementShift
                                  : VerdictKind::OutlierStorm;
      break;
    case Signal::Drift:
      // The tracker's subspace stopped explaining new rows. Concentrated
      // support names a VM; otherwise an elevated sparsity track says
      // transient outliers, and a quiet one says the baseline moved.
      verdict.kind = concentrated          ? VerdictKind::PlacementShift
                     : sparsity_elevated   ? VerdictKind::OutlierStorm
                                           : VerdictKind::BaselineDrift;
      break;
    case Signal::Angle:
    case Signal::Level:
      // Direction breaches carry their own attribution: the per-VM
      // share of the centered log-ratio energy against the reference.
      // A one-VM shift concentrates it; a uniform (diurnal) swing has
      // no centered residual at all.
      verdict.concentration = delta_concentration_;
      if (direction_moved) {
        verdict.kind = VerdictKind::PlacementShift;
        verdict.vm = delta_vm_;
        return verdict;
      }
      verdict.kind = VerdictKind::BaselineDrift;
      break;
  }
  if (verdict.kind == VerdictKind::PlacementShift) {
    verdict.vm = signals.support_vm;
  }
  return verdict;
}

std::optional<Verdict> ChangePointDetector::observe(
    const RefreshSignals& signals) {
  ++slides_;
  double angle = 0.0;
  double level = 0.0;
  direction_signals(signals.constant, angle, level);
  const double values[kSignalCount] = {signals.sparsity, signals.drift,
                                       angle, level};

  const bool warming = slides_ <= options_.warmup_slides;
  const bool learn_only = warming || cooldown_ > 0;
  const bool sparse_learn_only = learn_only || sparse_cooldown_ > 0;
  for (std::size_t k = 0; k < kSignalCount; ++k) {
    const auto signal = static_cast<Signal>(k);
    const bool sparse_side =
        signal == Signal::Sparsity || signal == Signal::Drift;
    advance_track(tracks_[k], values[k],
                  sparse_side ? sparse_learn_only : learn_only);
  }
  if (sparse_cooldown_ > 0) --sparse_cooldown_;
  if (warming) {
    // Freeze the reference on the FIRST constant so the angle/level
    // tracks spend the rest of warmup learning the estimator's own
    // convergence noise, then re-freeze on the settled estimate at
    // warmup's end — the learned deviations stay (conservatively
    // large), the elevated means decay.
    if (signals.constant != nullptr &&
        (reference_.empty() || slides_ == options_.warmup_slides)) {
      freeze_reference(*signals.constant);
    }
    return std::nullopt;
  }
  // A tenant whose warmup ended on a refresh without a constant picks
  // the reference up on the first one that has it.
  if (reference_.empty() && signals.constant != nullptr) {
    freeze_reference(*signals.constant);
  }
  if (cooldown_ > 0) {
    if (--cooldown_ == 0 && signals.constant != nullptr) {
      // The post-change regime is the new normal from here on.
      freeze_reference(*signals.constant);
    }
    return std::nullopt;
  }

  // A held direction breach re-evaluates once its confirmation window
  // ends. A placement shift keeps the constant displaced past the
  // magnitude floor and is classified on the settled attribution; a
  // transient excursion (an interference storm leaking a uniform
  // multiplier into the low-rank side) has already slid out of the
  // window, so the hold is cancelled and the stale direction evidence
  // dropped.
  if (pending_ > 0) {
    const double magnitude = std::max(angle, level);
    if (--pending_ > 0) {
      pending_peak_ = std::max(pending_peak_, magnitude);
    } else if (magnitude < options_.min_direction_shift) {
      // The excursion left the window before confirmation: transient.
      // Drop the stale direction evidence with it.
      pending_onset_ = 0;
      pending_peak_ = 0.0;
      for (const Signal s : {Signal::Angle, Signal::Level}) {
        SignalTrack& t = tracks_[static_cast<std::size_t>(s)];
        t.cusum = 0.0;
        t.onset = 0;
      }
    } else if (magnitude < options_.direction_settle_ratio * pending_peak_) {
      // Above the floor but well off its peak: a multi-snapshot storm
      // still draining out of the window. Watch another confirm window
      // before deciding.
      pending_ = options_.direction_confirm_slides;
      pending_peak_ = magnitude;
    } else {
      SignalTrack& held = tracks_[static_cast<std::size_t>(pending_signal_)];
      Verdict verdict = classify(pending_signal_, signals, angle, level);
      verdict.score = held.cusum;
      verdict.latency_slides =
          pending_onset_ > 0 ? slides_ - pending_onset_ + 1 : 1;
      pending_onset_ = 0;
      pending_peak_ = 0.0;
      for (SignalTrack& t : tracks_) {
        t.cusum = 0.0;
        t.onset = 0;
      }
      if (signals.constant != nullptr) freeze_reference(*signals.constant);
      cooldown_ = options_.cooldown_slides;
      return verdict;
    }
  }

  for (std::size_t k = 0; k < kSignalCount; ++k) {
    SignalTrack& breached = tracks_[k];
    if (breached.cusum < options_.cusum_threshold) continue;
    const auto breached_signal = static_cast<Signal>(k);
    if (breached_signal == Signal::Angle ||
        breached_signal == Signal::Level) {
      if (pending_ > 0) continue;  // a breach is already held
      if (std::max(angle, level) < options_.min_direction_shift) {
        // The direction evidence is statistically loud but physically
        // tiny — estimator wander, not a regime change. Suppress the
        // verdict but keep (halved) evidence: a real shift still
        // growing through the window crosses the floor within a slide
        // or two.
        breached.cusum *= 0.5;
        continue;
      }
      if (options_.direction_confirm_slides > 0) {
        pending_ = options_.direction_confirm_slides;
        pending_signal_ = breached_signal;
        pending_onset_ = breached.onset > 0 ? breached.onset : slides_;
        pending_peak_ = std::max(angle, level);
        continue;
      }
    }
    Verdict verdict = classify(breached_signal, signals, angle, level);
    verdict.score = breached.cusum;
    verdict.latency_slides =
        breached.onset > 0 ? slides_ - breached.onset + 1 : 1;
    if (verdict.kind == VerdictKind::OutlierStorm) {
      // Storms are transient: quiet the sparse-side tracks and let the
      // direction tracks keep their evidence — a placement shift whose
      // mixed-window phase first showed up as a sparsity surge must
      // still be callable once the constant settles on its new
      // direction.
      for (const Signal s : {Signal::Sparsity, Signal::Drift}) {
        SignalTrack& t = tracks_[static_cast<std::size_t>(s)];
        t.cusum = 0.0;
        t.onset = 0;
      }
      sparse_cooldown_ = options_.cooldown_slides;
      return verdict;
    }
    for (SignalTrack& t : tracks_) {
      t.cusum = 0.0;
      t.onset = 0;
    }
    pending_ = 0;
    pending_onset_ = 0;
    pending_peak_ = 0.0;
    if (signals.constant != nullptr) freeze_reference(*signals.constant);
    cooldown_ = options_.cooldown_slides;
    return verdict;
  }
  return std::nullopt;
}

}  // namespace netconst::detect
