// Lightweight metrics for the online service: named counters, gauges
// and summary histograms behind one thread-safe registry, exportable to
// CSV (support/csv) and the console (support/table), and through
// samples() to the Prometheus and JSON exporters (obs/export.hpp).
//
// Design points:
//  * metrics are cheap to update from tenant worker threads (atomics for
//    counters/gauges, one small mutex per histogram);
//  * metric objects live as long as the registry, so hot paths can hold
//    references instead of re-resolving names;
//  * a name is bound to exactly one metric type — reusing it with a
//    different type is a contract violation, not a silent alias.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/export.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

namespace netconst::online {

/// Monotonically increasing value (events, totals).
class Counter {
 public:
  void increment(double amount = 1.0);
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Streaming summary of an observed distribution: count/sum/min/max
/// plus exact sample-based p50/p99 (tail latency is what the
/// concurrent refresh path is judged on, and means hide it). Samples
/// are retained up to kMaxSamples; beyond that the percentiles reflect
/// the FIRST kMaxSamples observations and stop moving, while
/// count/sum/min/max stay exact. Refresh-rate series stay far below the
/// cap, but per-request series do not: at 10k requests/s,
/// serving.http.plan_seconds reaches it in about 7 s, after which its
/// p50/p99 describe only the start of the process.
class Histogram {
 public:
  static constexpr std::size_t kMaxSamples = 65536;

  struct Summary {
    std::uint64_t count = 0;
    std::uint64_t rejected = 0;  // non-finite observations dropped
    double sum = 0.0;
    double min = 0.0;  // 0 when count == 0
    double max = 0.0;
    double p50 = 0.0;  // nearest-rank percentiles; 0 when count == 0
    double p99 = 0.0;
    double mean() const {
      return count == 0 ? 0.0 : sum / static_cast<double>(count);
    }
  };

  /// Non-finite values are rejected (counted in Summary::rejected, never
  /// folded into the statistics): one stray NaN would otherwise poison
  /// min/max/sum/mean forever, and degraded measurement paths report
  /// losses as NaN by design.
  void observe(double value);
  Summary summary() const;

 private:
  mutable std::mutex mutex_;
  Summary summary_;
  std::vector<double> samples_;
};

/// Create-or-get registry of named metrics. Returned references stay
/// valid for the registry's lifetime.
class MetricsRegistry {
 public:
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Read accessors that do NOT create: value of an absent metric is 0
  /// (an empty Summary for histograms).
  double counter_value(const std::string& name) const;
  double gauge_value(const std::string& name) const;
  Histogram::Summary histogram_summary(const std::string& name) const;

  std::size_t metric_count() const;

  /// Neutral snapshot rows, sorted by metric name — the single source
  /// every exporter (CSV/console here, Prometheus and the JSON snapshot
  /// in obs/export.hpp) renders from, so type names, units and label
  /// spellings cannot drift between formats (see obs/naming.hpp).
  std::vector<obs::MetricSample> samples() const;

  /// Snapshot exports; rows sorted by metric name. For JSON, pass
  /// samples() to obs::write_json_snapshot.
  /// CSV columns: metric,type,count,value,sum,min,max,mean.
  CsvTable to_csv() const;
  ConsoleTable to_table() const;

 private:
  mutable std::mutex mutex_;
  // node-based maps + unique_ptr: stable addresses across inserts.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace netconst::online
