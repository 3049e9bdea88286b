#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "obs/trace.hpp"

namespace netconst::obs {

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

namespace {

/// Exposition/JSON value formatting: integers print exactly (counter
/// totals must not turn into 1e+06), everything else with enough digits
/// to round-trip.
std::string format_value(double value) {
  if (std::isfinite(value) && value == std::floor(value) &&
      std::fabs(value) < 1e15) {
    std::ostringstream os;
    os << static_cast<long long>(value);
    return os.str();
  }
  std::ostringstream os;
  os.precision(17);
  os << value;
  return os.str();
}

/// "name" or "name{labels}" / "name{labels,extra}".
std::string series_ref(const PrometheusSeries& series, const char* suffix,
                       const std::string& extra_label = {}) {
  std::string out = series.name + suffix;
  if (!series.labels.empty() || !extra_label.empty()) {
    out += '{';
    out += series.labels;
    if (!series.labels.empty() && !extra_label.empty()) out += ',';
    out += extra_label;
    out += '}';
  }
  return out;
}

struct PromRow {
  PrometheusSeries series;
  const MetricSample* sample;
};

}  // namespace

void write_prometheus(std::ostream& out,
                      const std::vector<MetricSample>& samples) {
  // Group by exposition name: all series of one metric (e.g. the same
  // per-tenant histogram across tenants) must sit under one # TYPE
  // header, whatever order the dotted names sorted into.
  std::vector<PromRow> rows;
  rows.reserve(samples.size());
  for (const MetricSample& sample : samples) {
    rows.push_back({prometheus_series(sample.name), &sample});
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const PromRow& a, const PromRow& b) {
                     return a.series.name != b.series.name
                                ? a.series.name < b.series.name
                                : a.series.labels < b.series.labels;
                   });

  const std::string* open_type_for = nullptr;
  for (const PromRow& row : rows) {
    const MetricSample& sample = *row.sample;
    if (open_type_for == nullptr || *open_type_for != row.series.name) {
      // Histograms export as Prometheus summaries (exact quantiles).
      const char* type = sample.type == MetricType::Histogram
                             ? "summary"
                             : metric_type_name(sample.type);
      out << "# TYPE " << row.series.name << ' ' << type << '\n';
      open_type_for = &row.series.name;
    }
    if (sample.type == MetricType::Histogram) {
      const HistogramStats& h = sample.histogram;
      out << series_ref(row.series, "", "quantile=\"0.5\"") << ' '
          << format_value(h.p50) << '\n'
          << series_ref(row.series, "", "quantile=\"0.99\"") << ' '
          << format_value(h.p99) << '\n'
          << series_ref(row.series, "_sum") << ' ' << format_value(h.sum)
          << '\n'
          << series_ref(row.series, "_count") << ' '
          << format_value(static_cast<double>(h.count)) << '\n';
    } else {
      out << series_ref(row.series, "") << ' ' << format_value(sample.value)
          << '\n';
    }
  }
}

void write_json_snapshot(std::ostream& out,
                         const TelemetrySnapshot& snapshot) {
  out << "{\"metrics\":[";
  for (std::size_t k = 0; k < snapshot.metrics.size(); ++k) {
    const MetricSample& sample = snapshot.metrics[k];
    if (k > 0) out << ',';
    out << "{\"name\":\"" << json_escape(sample.name) << "\",\"type\":\""
        << metric_type_name(sample.type) << "\",\"unit\":\""
        << metric_unit(sample.name) << '"';
    if (sample.type == MetricType::Histogram) {
      const HistogramStats& h = sample.histogram;
      out << ",\"count\":" << h.count << ",\"rejected\":" << h.rejected
          << ",\"sum\":" << format_value(h.sum)
          << ",\"min\":" << format_value(h.min)
          << ",\"max\":" << format_value(h.max)
          << ",\"mean\":" << format_value(h.mean())
          << ",\"p50\":" << format_value(h.p50)
          << ",\"p99\":" << format_value(h.p99);
    } else {
      out << ",\"value\":" << format_value(sample.value);
    }
    out << '}';
  }
  const FlightRecorder& recorder = FlightRecorder::instance();
  out << "],\"trace\":{\"enabled\":"
      << (trace_enabled() ? "true" : "false")
      << ",\"recorded\":" << recorder.total_recorded()
      << ",\"retained\":" << recorder.snapshot().size()
      << ",\"auto_dumps\":" << recorder.auto_dumps_written() << "}}";
}

}  // namespace netconst::obs
