// Bench-side tracing for the traced pass: spans recorded around each
// call into a layer, kept in memory and written out when the run ends.
//
// A Tracer belongs to one thread. Spans nest through an explicit stack;
// when a span closes, its duration is charged to its parent's child
// time, so every span's self time (duration minus the part its children
// cover) is known on the spot and aggregated per layer. Raw records are
// kept up to a cap for the trace file; the per-layer aggregates cover
// every span.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "common.hpp"

namespace netconst::e2e {

enum class Layer : std::uint8_t {
  Step,      // one replica step: the loop's own bookkeeping is its self time
  Cloud,     // NetworkProvider calls (simulated cloud), via the decorator
  Ingest,    // SnapshotIngestor::ingest_calibrated
  Refresh,   // WindowRefresher::refresh
  Detect,    // ChangePointDetector::observe
  Publish,   // SnapshotStore::publish, plan-cache invalidation included
  PlanHit,   // PlanCache::lookup_or_compute classified a hit by find()
  PlanMiss,  // PlanCache::lookup_or_compute classified a miss by find()
};
inline constexpr std::size_t kLayerCount = 8;

const char* layer_name(Layer layer);

struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  // 0 = root
  Layer layer = Layer::Step;
  std::uint32_t tenant = 0;
  /// Spans of one step (or one request) share this identifier.
  std::uint64_t trace = 0;
  std::int64_t start_ns = 0;  // since the tracer's epoch
  std::int64_t end_ns = 0;
};

struct LayerStats {
  std::uint64_t count = 0;
  double self_seconds = 0.0;
  std::vector<double> self_us;  // one sample per span
};

class Tracer {
 public:
  Tracer(Clock::time_point epoch, std::uint32_t thread_id,
         std::size_t record_cap);

  /// While disabled, scopes record nothing.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  /// Identifier stamped on the spans opened from now on.
  void set_trace(std::uint32_t tenant, std::uint64_t trace) {
    tenant_ = tenant;
    trace_ = trace;
  }

  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
  };

  const LayerStats& stats(Layer layer) const {
    return stats_[static_cast<std::size_t>(layer)];
  }
  /// Total duration of root spans (spans opened with no span open).
  double root_seconds() const { return root_seconds_; }
  const std::vector<SpanRecord>& records() const { return records_; }
  std::uint32_t thread_id() const { return thread_id_; }

 private:
  struct Open {
    std::uint32_t id;
    Layer layer;
    Clock::time_point start;
    std::int64_t child_ns;
  };

  void open(Layer layer);
  void close();

  Clock::time_point epoch_;
  std::uint32_t thread_id_;
  std::size_t record_cap_;
  bool enabled_ = true;
  std::uint32_t tenant_ = 0;
  std::uint64_t trace_ = 0;
  std::uint32_t next_id_ = 1;
  std::vector<Open> stack_;
  std::array<LayerStats, kLayerCount> stats_;
  double root_seconds_ = 0.0;
  std::vector<SpanRecord> records_;
};

/// Chrome trace_event JSON (loads in Perfetto / chrome://tracing) of the
/// records of every tracer.
void write_trace_json(std::ostream& out,
                      const std::vector<const Tracer*>& tracers);

}  // namespace netconst::e2e
