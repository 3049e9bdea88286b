#include "online/events.hpp"

#include <ostream>
#include <utility>

#include "obs/export.hpp"
#include "support/error.hpp"

namespace netconst::online {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::SnapshotIngested:
      return "snapshot_ingested";
    case EventKind::Refresh:
      return "refresh";
    case EventKind::PolishCapped:
      return "polish_capped";
    case EventKind::ThresholdBreach:
      return "threshold_breach";
    case EventKind::Recalibration:
      return "recalibration";
    case EventKind::RecalibrationSuppressed:
      return "recalibration_suppressed";
    case EventKind::LevelChange:
      return "level_change";
    case EventKind::ProbeDropped:
      return "probe_dropped";
    case EventKind::StaleRowReused:
      return "stale_row_reused";
    case EventKind::ForcedRecalibration:
      return "forced_recalibration";
    case EventKind::ChangeDetected:
      return "change_detected";
  }
  return "unknown";
}

EventLog::EventLog(std::size_t capacity) : capacity_(capacity) {}

void EventLog::record(Event event) {
  const auto kind_index = static_cast<std::size_t>(event.kind);
  NETCONST_CHECK(kind_index < kEventKindCount, "unknown event kind");
  std::lock_guard<std::mutex> lock(mutex_);
  ++recorded_;
  ++counts_[kind_index];
  events_.push_back(std::move(event));
  if (capacity_ > 0 && events_.size() > capacity_) events_.pop_front();
}

std::size_t EventLog::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::uint64_t EventLog::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t EventLog::count(EventKind kind) const {
  const auto kind_index = static_cast<std::size_t>(kind);
  NETCONST_CHECK(kind_index < kEventKindCount, "unknown event kind");
  std::lock_guard<std::mutex> lock(mutex_);
  return counts_[kind_index];
}

std::vector<Event> EventLog::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {events_.begin(), events_.end()};
}

CsvTable EventLog::to_csv() const {
  CsvTable table;
  table.header = {"time", "tenant", "kind", "value", "detail"};
  for (const Event& event : snapshot()) {
    table.rows.push_back({format_double(event.time), event.tenant,
                          event_kind_name(event.kind),
                          format_double(event.value), event.detail});
  }
  return table;
}

void EventLog::write_json(std::ostream& out) const {
  out << "{\"events\":[";
  bool first = true;
  for (const Event& event : snapshot()) {
    if (!first) out << ',';
    first = false;
    out << "{\"time\":" << format_double(event.time) << ",\"tenant\":\""
        << obs::json_escape(event.tenant) << "\",\"kind\":\""
        << event_kind_name(event.kind)
        << "\",\"value\":" << format_double(event.value) << ",\"detail\":\""
        << obs::json_escape(event.detail) << "\"}";
  }
  out << "]}";
}

}  // namespace netconst::online
