// Online change-point detection over the maintenance loop's refresh
// telemetry — finding *change* in the constant, the dual of the paper's
// constant finder.
//
// Every maintenance refresh emits a handful of cheap scalar signals:
// the sparse share Norm(N_E), the incremental tracker's drift
// statistic, and the constant component expressed as per-pair transfer
// times (direction + level). A ChangePointDetector keeps an EWMA
// baseline (mean plus mean absolute deviation) per signal and feeds
// each standardized innovation into a one-sided CUSUM; when a CUSUM
// crosses its threshold the breach is classified into a typed verdict:
//
//   * placement_shift — the change concentrates on the links of one VM
//     (the paper's "constant changed around one instance" event that
//     maintenance must recalibrate away). Sparsity/drift breaches
//     read concentration off the sparse support; direction breaches
//     read it off the per-VM energy of the centered log-ratio
//     log(c_k / ref_k) between the current and reference constant — a
//     uniform (diurnal) swing has zero centered residual, a one-VM
//     shift concentrates it on that VM's pairs;
//   * outlier_storm   — sparsity mass surged but spread across pairs
//     (interference bursts the dynamic component should absorb — NOT a
//     reason to recalibrate);
//   * baseline_drift  — the constant's direction or level moved without
//     concentrating anywhere (slow regime change, e.g. a diurnal load
//     cycle).
//
// Detection latency is accounted in window slides: each CUSUM records
// the slide its score left zero, and a verdict reports how many slides
// elapsed from that onset to the breach (1 = detected on the first
// slide that showed evidence).
//
// Everything here is sequential scalar arithmetic on a few doubles, so
// a detector's verdict stream is a pure function of its input stream —
// per-tenant determinism (byte-identical verdicts regardless of the
// service's thread count) holds by construction, with no SIMD or
// reduction-order caveats to manage.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"

namespace netconst::detect {

enum class VerdictKind {
  PlacementShift,  // persistent constant change around one VM
  OutlierStorm,    // diffuse sparsity surge (transient interference)
  BaselineDrift,   // constant direction/level moved without sparsity
};
inline constexpr std::size_t kVerdictKindCount = 3;

const char* verdict_kind_name(VerdictKind kind);

/// The monitored signal tracks, in breach-scan priority order.
enum class Signal {
  Sparsity,  // Norm(N_E), worst layer
  Drift,     // incremental tracker drift statistic, worst layer
  Angle,     // angle between current and reference constant direction
  Level,     // |log| magnitude ratio of current vs reference constant
};
inline constexpr std::size_t kSignalCount = 4;

const char* signal_name(Signal signal);

/// Sparse-support geometry of one layer's E matrix in the flattened
/// window layout (each row one snapshot, column c = directed pair
/// (c / N, c % N) of an N-VM cluster — see netmodel/tp_matrix.hpp).
struct SupportStats {
  /// Share of off-diagonal entries with |e| > cutoff, in [0, 1].
  double fraction = 0.0;
  /// Share of support entries whose pair touches the most-implicated
  /// VM, in [0, 1]. Diffuse support scores about 2/N; support confined
  /// to one VM's links scores 1.
  double concentration = 0.0;
  /// The most-implicated VM (smallest index on ties; 0 if no support).
  std::size_t vm = 0;
};

/// Scan a flattened sparse component (rows = snapshots, N^2 columns)
/// at the given absolute cutoff. Callers derive the cutoff from the
/// data scale exactly like rpca::relative_l0 does
/// (rel_tol * max_abs(data)).
SupportStats support_stats(const linalg::Matrix& sparse,
                           std::size_t cluster_size, double cutoff);

/// support_stats from its counts: `touches[v]` support entries on the
/// links of VM v (each entry counted at both of its ends, so the support
/// holds sum(touches) / 2 entries) over `rows` snapshots of an N-VM
/// cluster, N = touches.size(). rpca::IncrementalTracker::anchor counts
/// them in its pass over the accepted factors.
SupportStats support_geometry(std::span<const std::uint64_t> touches,
                              std::size_t rows);

/// One refresh's worth of signals, assembled by the caller (the online
/// service) from the refresh report and the accepted component.
struct RefreshSignals {
  double time = 0.0;          // provider time of the refresh
  std::uint64_t refresh = 0;  // tenant refresh ordinal
  double sparsity = 0.0;      // Norm(N_E), worst layer
  double residual = 0.0;      // read by nothing; bench/e2e writes it
  double drift = 0.0;         // incremental drift statistic (0 if n/a)
  double support_concentration = 0.0;
  std::size_t support_vm = 0;
  /// Flattened constant direction (e.g. per-pair transfer times);
  /// nullptr when unavailable. The detector freezes a reference copy at
  /// the end of warmup and after each verdict.
  const std::vector<double>* constant = nullptr;
};

struct Verdict {
  VerdictKind kind = VerdictKind::BaselineDrift;
  Signal signal = Signal::Sparsity;  // the track that breached
  double time = 0.0;
  std::uint64_t refresh = 0;
  /// Slides from the breached CUSUM's onset to the breach, >= 1.
  std::uint64_t latency_slides = 0;
  double score = 0.0;  // CUSUM value at the breach
  /// PlacementShift only: the implicated VM and how concentrated the
  /// sparse support was on it.
  std::size_t vm = 0;
  double concentration = 0.0;
};

struct DetectorOptions {
  /// Slides spent learning baselines before any verdict can fire. The
  /// constant reference is frozen when warmup completes.
  std::size_t warmup_slides = 6;
  /// EWMA weight of the newest observation in the mean/deviation
  /// baselines.
  double ewma_alpha = 0.2;
  /// CUSUM slack k, in deviation units: innovations below k standard
  /// deviations decay the score instead of growing it.
  double cusum_slack = 1.0;
  /// CUSUM threshold h, in accumulated deviation units.
  double cusum_threshold = 6.0;
  /// Standardization floor: z = (x - mean) / max(dev, floor + rel*|mean|).
  double deviation_floor = 1e-3;
  double deviation_rel_floor = 0.05;
  /// Baselines freeze while z exceeds this (one-sided, like the CUSUM;
  /// downward innovations always teach), so an anomaly in progress
  /// cannot teach the detector that it is normal. Baselines also freeze
  /// whenever the track's CUSUM is accumulating — a persistent step
  /// must not be chased by the mean while the evidence builds.
  double baseline_gate_z = 4.0;
  /// Support concentration at or above this reads as "one VM's links":
  /// placement shift rather than diffuse storm. 0.6 clears the 0.5 a
  /// two-VM rack event scores by construction.
  double concentration_split = 0.6;
  /// Minimum raw magnitude (radians for Angle, |log| units for Level)
  /// of max(angle, level) a direction breach needs to emit a verdict.
  /// The CUSUM standardizes magnitudes away and the attribution is
  /// scale-invariant, so without a floor the estimator's own wander
  /// (concentrated by chance) could name a VM. A sub-floor breach is
  /// suppressed — its CUSUM is halved and keeps accumulating, so a
  /// still-growing real shift fires a slide later instead of being
  /// misclassified, while bounded wander never fires at all.
  double min_direction_shift = 0.15;
  /// A direction breach that clears the magnitude floor is held this
  /// many further slides before it may emit a verdict. A transient
  /// level/direction excursion (an outlier storm leaking into the
  /// low-rank side — a uniform multiplier on a snapshot is perfectly
  /// rank-compatible) reverts once the contaminated snapshot slides out
  /// of the window and the held call is cancelled; a placement shift
  /// persists and is classified on the settled attribution. Set this to
  /// the tenant's window depth: one contaminated snapshot stays in a
  /// capacity-W window for W slides. 0 = classify immediately.
  std::size_t direction_confirm_slides = 2;
  /// At the end of a hold the excursion must have settled: if the
  /// magnitude is below this fraction of its peak during the hold it is
  /// still draining out of the window (a multi-snapshot storm), and the
  /// hold re-arms for another confirm window instead of classifying. A
  /// real shift plateaus — its resolve-time magnitude IS the peak.
  double direction_settle_ratio = 0.7;
  /// Slides after a placement/drift verdict during which no new verdict
  /// fires while the baselines re-learn the post-change regime. A storm
  /// verdict instead quiets only the sparse-side tracks (sparsity and
  /// drift) and leaves the direction tracks accumulating —
  /// storms are transient and must not erase placement evidence.
  std::size_t cooldown_slides = 4;
};

/// One EWMA baseline + one-sided CUSUM (inspectable for tests).
struct SignalTrack {
  double mean = 0.0;
  double dev = 0.0;    // EWMA of |innovation|
  double cusum = 0.0;  // g_t = max(0, g_{t-1} + z_t - k)
  double last_value = 0.0;
  double last_z = 0.0;
  /// Slide ordinal when cusum last left zero; 0 = currently at zero.
  std::uint64_t onset = 0;
  bool primed = false;  // first observation seen
};

class ChangePointDetector {
 public:
  explicit ChangePointDetector(const DetectorOptions& options = {});

  /// Feed one refresh; returns a verdict when a CUSUM breaches (at most
  /// one per call — tracks are scanned in Signal declaration order and
  /// the first breach wins). Firing resets every CUSUM, re-freezes the
  /// constant reference at the current constant, and starts the
  /// cooldown.
  std::optional<Verdict> observe(const RefreshSignals& signals);

  /// Forget baselines, CUSUMs, reference and slide count.
  void reset();

  std::uint64_t slides() const { return slides_; }
  bool warmed_up() const { return slides_ >= options_.warmup_slides; }
  bool in_cooldown() const { return cooldown_ > 0; }
  /// True while a direction breach is held awaiting confirmation.
  bool confirming() const { return pending_ > 0; }
  bool has_reference() const { return !reference_.empty(); }
  const SignalTrack& track(Signal signal) const {
    return tracks_[static_cast<std::size_t>(signal)];
  }
  /// Per-VM share of the centered log-ratio energy between the latest
  /// constant and the reference (0 when no direction change), and the
  /// VM that carries it — the attribution behind direction-breach
  /// classification, exposed for diagnostics.
  double delta_concentration() const { return delta_concentration_; }
  std::size_t delta_vm() const { return delta_vm_; }
  const DetectorOptions& options() const { return options_; }

 private:
  void freeze_reference(const std::vector<double>& constant);
  /// Angle (radians) and |log| level shift of `constant` against the
  /// frozen reference; both 0 until a reference exists. Also refreshes
  /// delta_concentration_ / delta_vm_: the per-VM share of the centered
  /// log-ratio energy between `constant` and the reference (the
  /// direction-change attribution used to classify Angle/Level
  /// breaches).
  void direction_signals(const std::vector<double>* constant, double& angle,
                         double& level);
  void advance_track(SignalTrack& track, double value, bool learn_only);
  Verdict classify(Signal breached, const RefreshSignals& signals,
                   double angle, double level) const;

  DetectorOptions options_;
  std::array<SignalTrack, kSignalCount> tracks_;
  std::vector<double> reference_;
  double reference_norm_ = 0.0;
  double delta_concentration_ = 0.0;
  std::size_t delta_vm_ = 0;
  std::uint64_t slides_ = 0;
  std::uint64_t cooldown_ = 0;
  /// Storm-verdict cooldown: quiets only the sparse-side tracks.
  std::uint64_t sparse_cooldown_ = 0;
  /// Direction-breach confirmation hold: slides left before the held
  /// breach is re-evaluated (0 = no breach held).
  std::uint64_t pending_ = 0;
  Signal pending_signal_ = Signal::Angle;
  std::uint64_t pending_onset_ = 0;
  double pending_peak_ = 0.0;
};

}  // namespace netconst::detect
