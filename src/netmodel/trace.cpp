#include "netmodel/trace.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "support/csv.hpp"
#include "support/error.hpp"

namespace netconst::netmodel {
namespace {

/// Parse a VM index cell defensively: a fractional, negative, non-finite
/// or absurdly large value means a corrupt file, not a big cluster — a
/// raw static_cast would silently truncate (or wrap a negative into a
/// huge index and allocate gigabytes for the matrices). A trace with R
/// data rows can mention at most 2R distinct VMs, which bounds any
/// legitimate index without a magic constant.
std::size_t parse_vm_index(const CsvTable& table, std::size_t row,
                           std::size_t col, double limit) {
  const double v = table.number(row, col);
  if (!(v >= 0.0) || v != std::floor(v) || v > limit) {
    throw Error("trace row " + std::to_string(row) +
                ": invalid VM index '" + format_double(v) + "'");
  }
  return static_cast<std::size_t>(v);
}

/// The most matrix cells a trace may ask for per data row. A snapshot
/// of an N-VM cluster is N^2 cells and a complete one is N(N - 1) rows,
/// so a recorded trace holds at most 2 cells per row (N = 2); the
/// partial hand-written traces in the tests reach 4. Without a bound, R
/// rows with R distinct timestamps and one index near 2R would ask for
/// about 4 R^3 cells (R = 2000, a ~60 KB file: ~0.5 TB).
constexpr double kMaxCellsPerRow = 16.0;

}  // namespace

double Trace::duration() const {
  if (series_.row_count() < 2) return 0.0;
  return series_.time_at(series_.row_count() - 1) - series_.time_at(0);
}

void Trace::save_csv(const std::string& path) const {
  CsvTable table;
  table.header = {"time", "i", "j", "alpha", "beta"};
  const std::size_t n = cluster_size();
  for (std::size_t r = 0; r < series_.row_count(); ++r) {
    const auto& snap = series_.snapshot(r);
    const std::string time = format_double(series_.time_at(r));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        const LinkParams link = snap.link(i, j);
        // Missing links serialize as the literal "nan" pair and load back
        // as missing — the round trip preserves degraded snapshots.
        table.rows.push_back({time, std::to_string(i), std::to_string(j),
                              is_missing(link) ? "nan"
                                               : format_double(link.alpha),
                              is_missing(link) ? "nan"
                                               : format_double(link.beta)});
      }
    }
  }
  write_csv_file(path, table);
}

Trace Trace::load_csv(const std::string& path) {
  const CsvTable table = read_csv_file(path);
  const std::size_t ct = table.column_index("time");
  const std::size_t ci = table.column_index("i");
  const std::size_t cj = table.column_index("j");
  const std::size_t ca = table.column_index("alpha");
  const std::size_t cb = table.column_index("beta");

  if (table.row_count() == 0) {
    throw Error("trace CSV has a header but no data rows: " + path);
  }

  // Group rows by timestamp, preserving order, and find the cluster size.
  const double index_limit = 2.0 * static_cast<double>(table.row_count());
  std::size_t max_index = 0;
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    max_index = std::max({max_index, parse_vm_index(table, r, ci, index_limit),
                          parse_vm_index(table, r, cj, index_limit)});
  }
  const std::size_t n = max_index + 1;
  // Each run of equal timestamps is one n x n snapshot; count them
  // before allocating any.
  std::size_t snapshots = 0;
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    if (r == 0 || !(table.number(r, ct) == table.number(r - 1, ct))) {
      ++snapshots;
    }
  }
  const double cells = static_cast<double>(snapshots) *
                       static_cast<double>(n) * static_cast<double>(n);
  if (cells > kMaxCellsPerRow * static_cast<double>(table.row_count())) {
    throw Error("trace CSV: " + std::to_string(snapshots) +
                " snapshots of " + std::to_string(n) + " VMs from " +
                std::to_string(table.row_count()) +
                " rows (more than " + format_double(kMaxCellsPerRow) +
                " matrix cells per row): " + path);
  }

  TemporalPerformance series;
  std::size_t r = 0;
  while (r < table.row_count()) {
    const double time = table.number(r, ct);
    if (!std::isfinite(time)) {
      throw Error("trace row " + std::to_string(r) +
                  ": non-finite timestamp");
    }
    PerformanceMatrix snap(n);
    while (r < table.row_count() && table.number(r, ct) == time) {
      const auto i = parse_vm_index(table, r, ci, index_limit);
      const auto j = parse_vm_index(table, r, cj, index_limit);
      NETCONST_CHECK(i != j, "trace contains a self-link row");
      const double alpha = table.number(r, ca);
      const double beta = table.number(r, cb);
      if (!std::isfinite(alpha) || !std::isfinite(beta)) {
        // Both non-finite = the serialized missing-link sentinel; only
        // one non-finite is corruption, not a degraded measurement.
        if (std::isfinite(alpha) || std::isfinite(beta)) {
          throw Error("trace row " + std::to_string(r) +
                      ": half-missing link parameters");
        }
        snap.mark_link_missing(i, j);
      } else if (!(alpha >= 0.0) || !(beta > 0.0)) {
        throw Error("trace row " + std::to_string(r) +
                    ": invalid link parameters (alpha " +
                    format_double(alpha) + ", beta " + format_double(beta) +
                    ")");
      } else {
        snap.set_link(i, j, {alpha, beta});
      }
      ++r;
    }
    series.append(time, std::move(snap));
  }
  return Trace(std::move(series));
}

Trace Trace::window(double t0, double t1) const {
  NETCONST_CHECK(t0 <= t1, "window bounds reversed");
  TemporalPerformance out;
  for (std::size_t r = 0; r < series_.row_count(); ++r) {
    const double t = series_.time_at(r);
    if (t >= t0 && t <= t1) out.append(t, series_.snapshot(r));
  }
  return Trace(std::move(out));
}

Trace Trace::prefix(std::size_t rows) const {
  TemporalPerformance out;
  const std::size_t limit = std::min(rows, series_.row_count());
  for (std::size_t r = 0; r < limit; ++r) {
    out.append(series_.time_at(r), series_.snapshot(r));
  }
  return Trace(std::move(out));
}

ReplayCursor::ReplayCursor(const Trace& trace) : trace_(&trace) {
  NETCONST_CHECK(trace.snapshot_count() > 0, "replay of an empty trace");
  start_ = trace.series().time_at(0);
  end_ = trace.series().time_at(trace.snapshot_count() - 1);
}

const PerformanceMatrix& ReplayCursor::at(double t) const {
  return trace_->series().at_time(t);
}

}  // namespace netconst::netmodel
