// Telemetry exporters: Prometheus text exposition and a JSON snapshot,
// both stream-based (write to a file, a socket, a test buffer — the
// caller owns the sink).
//
// The exporters operate on neutral MetricSample rows so the obs layer
// stays dependency-free; online::MetricsRegistry::samples() produces
// the rows for the service (see online/metrics.hpp). Series naming is
// delegated to obs/naming.hpp, the same helper the registry's own
// CSV/JSON exports use — one spelling per metric, everywhere.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/naming.hpp"

namespace netconst::obs {

/// Distribution summary of a histogram metric (mirrors the statistics
/// online::Histogram tracks; exporters only need the numbers).
struct HistogramStats {
  std::uint64_t count = 0;
  std::uint64_t rejected = 0;  // non-finite observations dropped
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;

  double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// One metric in a snapshot, keyed by its internal dotted name.
struct MetricSample {
  std::string name;
  MetricType type = MetricType::Counter;
  double value = 0.0;        // counters / gauges
  HistogramStats histogram;  // histograms
};

/// Escape a string for embedding in a JSON string literal.
std::string json_escape(const std::string& text);

/// The Content-Type an HTTP endpoint must send with write_prometheus()
/// output — the text exposition format's standard media type. Scrapers
/// key the parser off the version parameter, so serve it verbatim.
inline constexpr const char* kPrometheusContentType =
    "text/plain; version=0.0.4";

/// Prometheus text exposition (version 0.0.4). Counters and gauges
/// export as single samples; histograms export as summaries
/// (quantile="0.5"/"0.99" series plus _sum and _count). Series sharing
/// an exposition name (e.g. one per-tenant metric across tenants) are
/// grouped under one # TYPE header, as the format requires.
void write_prometheus(std::ostream& out,
                      const std::vector<MetricSample>& samples);

/// Everything the service knows, as one JSON document:
///   {"metrics":[...],"trace":{...}}
struct TelemetrySnapshot {
  std::vector<MetricSample> metrics;
};

void write_json_snapshot(std::ostream& out,
                         const TelemetrySnapshot& snapshot);

}  // namespace netconst::obs
