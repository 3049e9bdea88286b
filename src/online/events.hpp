// Structured event log for the online service: level changes, threshold
// breaches, cold-solve fallbacks, recalibrations (triggered and
// suppressed) — the audit trail a deployment replays when a tenant's
// model went stale. Thread-safe, optionally bounded (oldest dropped),
// exportable to CSV and JSON.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "support/csv.hpp"

namespace netconst::online {

enum class EventKind {
  SnapshotIngested,         // one calibration row entered the window
  Refresh,                  // RPCA refresh completed (value = Norm(N_E))
  PolishCapped,             // an accepted fit's polish hit its cap
  ThresholdBreach,          // |t - t'| / t' crossed the threshold
  Recalibration,            // maintenance actually ran
  RecalibrationSuppressed,  // base-interval probe skipped by the advisor
  LevelChange,              // advisor effectiveness level moved
  ProbeDropped,             // an operation probe's value was lost (NaN)
  StaleRowReused,           // degraded calibration replaced by last good row
  ForcedRecalibration,      // consecutive probe losses forced maintenance
  ChangeDetected,           // change-point detector issued a verdict
};
inline constexpr std::size_t kEventKindCount = 11;

const char* event_kind_name(EventKind kind);

struct Event {
  double time = 0.0;  // tenant's provider time (simulated seconds)
  std::string tenant;
  EventKind kind = EventKind::Refresh;
  std::string detail;  // free-form, kind-specific
  double value = 0.0;  // kind-specific (norm, relative error, ...)
};

class EventLog {
 public:
  /// `capacity` == 0 keeps everything; otherwise the oldest events are
  /// dropped once `capacity` is exceeded (per-kind counts keep counting).
  explicit EventLog(std::size_t capacity = 0);

  void record(Event event);

  /// Retained events (<= capacity when bounded).
  std::size_t size() const;
  /// Total recorded, including dropped ones.
  std::uint64_t recorded() const;
  /// Per-kind total over all recorded events (dropped ones included).
  std::uint64_t count(EventKind kind) const;

  /// Copy of the retained events, oldest first.
  std::vector<Event> snapshot() const;

  /// CSV columns: time,tenant,kind,value,detail.
  CsvTable to_csv() const;
  /// {"events": [{"time": ..., "tenant": ..., ...}, ...]}
  void write_json(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::deque<Event> events_;
  std::uint64_t recorded_ = 0;
  std::array<std::uint64_t, kEventKindCount> counts_{};
};

}  // namespace netconst::online
