#include "online/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "support/error.hpp"

namespace netconst::online {

void Counter::increment(double amount) {
  NETCONST_CHECK(amount >= 0.0, "counters only move forward");
  value_.fetch_add(amount, std::memory_order_relaxed);
}

void Histogram::observe(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!std::isfinite(value)) {
    ++summary_.rejected;
    return;
  }
  if (summary_.count == 0) {
    summary_.min = value;
    summary_.max = value;
  } else {
    summary_.min = std::min(summary_.min, value);
    summary_.max = std::max(summary_.max, value);
  }
  ++summary_.count;
  summary_.sum += value;
  if (samples_.size() < kMaxSamples) samples_.push_back(value);
}

namespace {

/// Nearest-rank percentile of an unsorted sample buffer (q in (0, 1]).
double percentile(std::vector<double>& scratch, double q) {
  const auto n = scratch.size();
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  std::nth_element(scratch.begin(),
                   scratch.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   scratch.end());
  return scratch[rank - 1];
}

}  // namespace

Histogram::Summary Histogram::summary() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Summary s = summary_;
  if (!samples_.empty()) {
    std::vector<double> scratch = samples_;
    s.p50 = percentile(scratch, 0.50);
    s.p99 = percentile(scratch, 0.99);
  }
  return s;
}

namespace {

template <typename Map>
bool contains(const Map& map, const std::string& name) {
  return map.find(name) != map.end();
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  NETCONST_CHECK(!name.empty(), "metric name must not be empty");
  std::lock_guard<std::mutex> lock(mutex_);
  NETCONST_CHECK(!contains(gauges_, name) && !contains(histograms_, name),
                 "metric name already bound to another type");
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  NETCONST_CHECK(!name.empty(), "metric name must not be empty");
  std::lock_guard<std::mutex> lock(mutex_);
  NETCONST_CHECK(!contains(counters_, name) && !contains(histograms_, name),
                 "metric name already bound to another type");
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  NETCONST_CHECK(!name.empty(), "metric name must not be empty");
  std::lock_guard<std::mutex> lock(mutex_);
  NETCONST_CHECK(!contains(counters_, name) && !contains(gauges_, name),
                 "metric name already bound to another type");
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

double MetricsRegistry::counter_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second->value();
}

double MetricsRegistry::gauge_value(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second->value();
}

Histogram::Summary MetricsRegistry::histogram_summary(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? Histogram::Summary{}
                                 : it->second->summary();
}

std::size_t MetricsRegistry::metric_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

std::vector<obs::MetricSample> MetricsRegistry::samples() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<obs::MetricSample> rows;
  rows.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, metric] : counters_) {
    obs::MetricSample sample;
    sample.name = name;
    sample.type = obs::MetricType::Counter;
    sample.value = metric->value();
    rows.push_back(std::move(sample));
  }
  for (const auto& [name, metric] : gauges_) {
    obs::MetricSample sample;
    sample.name = name;
    sample.type = obs::MetricType::Gauge;
    sample.value = metric->value();
    rows.push_back(std::move(sample));
  }
  for (const auto& [name, metric] : histograms_) {
    const Histogram::Summary summary = metric->summary();
    obs::MetricSample sample;
    sample.name = name;
    sample.type = obs::MetricType::Histogram;
    sample.histogram.count = summary.count;
    sample.histogram.rejected = summary.rejected;
    sample.histogram.sum = summary.sum;
    sample.histogram.min = summary.min;
    sample.histogram.max = summary.max;
    sample.histogram.p50 = summary.p50;
    sample.histogram.p99 = summary.p99;
    rows.push_back(std::move(sample));
  }
  // std::map iteration is already name-sorted per type; the three sorted
  // ranges merge into one sorted output.
  std::sort(rows.begin(), rows.end(),
            [](const obs::MetricSample& a, const obs::MetricSample& b) {
              return a.name < b.name;
            });
  return rows;
}

CsvTable MetricsRegistry::to_csv() const {
  CsvTable table;
  table.header = {"metric", "type", "count", "value", "sum",
                  "min",    "max",  "mean",  "p50",   "p99"};
  for (const obs::MetricSample& sample : samples()) {
    if (sample.type == obs::MetricType::Histogram) {
      const obs::HistogramStats& h = sample.histogram;
      table.rows.push_back({sample.name, obs::metric_type_name(sample.type),
                            std::to_string(h.count), "",
                            format_double(h.sum), format_double(h.min),
                            format_double(h.max), format_double(h.mean()),
                            format_double(h.p50), format_double(h.p99)});
    } else {
      table.rows.push_back({sample.name, obs::metric_type_name(sample.type),
                            "", format_double(sample.value), "", "", "", "",
                            "", ""});
    }
  }
  return table;
}

ConsoleTable MetricsRegistry::to_table() const {
  const CsvTable csv = to_csv();
  ConsoleTable table({"metric", "type", "value / mean", "count", "min",
                      "max", "p50", "p99"});
  for (const auto& row : csv.rows) {
    if (row[1] == "histogram") {
      table.add_row({row[0], row[1], row[7], row[2], row[5], row[6], row[8],
                     row[9]});
    } else {
      table.add_row({row[0], row[1], row[3], "", "", "", "", ""});
    }
  }
  return table;
}

}  // namespace netconst::online
