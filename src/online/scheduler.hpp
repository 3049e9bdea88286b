// Adaptive recalibration scheduler — Algorithm 1 lines 4-9 as an
// event-driven policy object.
//
// Two triggers:
//  * REACTIVE (the paper's maintenance rule): an operation's measured
//    time t deviates from the expectation t' (alpha-beta on the constant
//    component) by |t - t'| / t' >= threshold;
//  * PROACTIVE: a routine probe interval, scaled by the effectiveness
//    advisor's recalibration_interval_factor() — a Stable tenant is
//    probed 4x less often than the base policy, a Dynamic one 4x more.
//    A base-interval probe skipped because the advisor stretched the
//    deadline is reported as "suppressed" (and counted), so the saving
//    of the adaptive policy is observable, not silent.
#pragma once

#include <cstddef>

#include "core/advisor.hpp"

namespace netconst::online {

enum class TriggerReason {
  None,
  ThresholdBreach,
  IntervalElapsed,
  /// Maintenance forced by the service after a run of consecutive lost
  /// operation probes: deviations are unobservable while probes fail,
  /// so the model is refreshed defensively (see
  /// TenantConfig::forced_recalibration_after).
  ForcedDegraded,
  /// Pre-emptive maintenance requested by the change-point detector
  /// (src/detect): a verdict said the constant's regime moved before
  /// the threshold/interval policies noticed.
  DetectorSignal,
};
inline constexpr std::size_t kTriggerReasonCount = 5;

const char* trigger_reason_name(TriggerReason reason);

struct SchedulerDecision {
  bool recalibrate = false;
  TriggerReason reason = TriggerReason::None;
  /// |t - t'| / t' of the observation that produced this decision
  /// (0 for pure time polls).
  double relative_error = 0.0;
  /// Number of base-interval probes that came due with this check but
  /// were skipped because the advisor stretched the deadline.
  std::size_t suppressed_probes = 0;
};

struct SchedulerOptions {
  /// Maintenance threshold on |t - t'| / t'; the paper's default is 100%.
  double threshold = 1.0;
  /// Base seconds between routine probes (before advisor scaling).
  double base_interval = 1800.0;
  /// When false the advisor still classifies (and its level is still
  /// reported), but the probe interval stays pinned at base_interval —
  /// no Stable stretching, no Dynamic tightening. Measurement campaigns
  /// that score detection latency against wall-clock ground truth need
  /// the fixed cadence; production tenants keep the adaptive default.
  bool adaptive_interval = true;
  core::AdvisorOptions advisor;
};

class RecalibrationScheduler {
 public:
  explicit RecalibrationScheduler(const SchedulerOptions& options = {});

  /// Record a completed (re)calibration + refresh at `now` with its
  /// Norm(N_E): feeds the advisor and restarts the probe interval.
  /// Returns true when the advisor's level changed.
  bool record_refresh(double now, double error_norm);

  /// One operation observation (expected t' > 0, observed t >= 0).
  /// Requires a prior record_refresh (there is no model to deviate from
  /// otherwise).
  SchedulerDecision observe_operation(double now, double expected,
                                      double observed);

  /// Pure time-driven check with no operation attached.
  SchedulerDecision poll(double now);

  /// Probe interval currently in force: base * advisor factor.
  double effective_interval() const;
  const core::EffectivenessAdvisor& advisor() const { return advisor_; }
  core::Effectiveness level() const { return advisor_.level(); }

  // Lifetime tallies.
  std::size_t breaches() const { return breaches_; }
  std::size_t interval_triggers() const { return interval_triggers_; }
  std::size_t suppressed() const { return suppressed_; }

 private:
  /// Folds the proactive-interval state into `decision`.
  void check_interval(double now, SchedulerDecision& decision);

  SchedulerOptions options_;
  core::EffectivenessAdvisor advisor_;
  bool calibrated_ = false;
  double last_refresh_time_ = 0.0;
  double next_base_probe_ = 0.0;  // tracks skipped base-policy probes
  std::size_t breaches_ = 0;
  std::size_t interval_triggers_ = 0;
  std::size_t suppressed_ = 0;
};

}  // namespace netconst::online
