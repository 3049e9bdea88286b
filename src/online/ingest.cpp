#include "online/ingest.hpp"

#include <utility>

#include "support/error.hpp"

namespace netconst::online {

SnapshotIngestor::SnapshotIngestor(cloud::NetworkProvider& provider,
                                   SlidingWindow& window,
                                   const IngestOptions& options)
    : provider_(provider), window_(window), options_(options) {
  NETCONST_CHECK(window.empty() ||
                     window.cluster_size() == provider.cluster_size(),
                 "window cluster size does not match the provider");
  NETCONST_CHECK(options_.max_missing_fraction >= 0.0,
                 "missing fraction must be >= 0");
}

IngestReport SnapshotIngestor::ingest_calibrated() {
  if (rounds_.empty() && options_.calibration.concurrent) {
    rounds_ = cloud::all_pairs_rounds(provider_.cluster_size());
  }
  cloud::CalibrationResult result =
      cloud::calibrate_snapshot(provider_, rounds_, options_.calibration);

  IngestReport report;
  report.elapsed_seconds = result.elapsed_seconds;
  report.missing_links = result.missing_links;
  report.failed_measurements = result.failed_measurements;
  report.retries = result.retries;
  failed_measurements_ += result.failed_measurements;
  retries_ += result.retries;
  missing_links_ += result.missing_links;

  const std::size_t n = provider_.cluster_size();
  const auto links = static_cast<double>(n * (n - 1));
  const double missing_fraction =
      static_cast<double>(result.missing_links) / links;
  if (missing_fraction > options_.max_missing_fraction && has_last_good_) {
    report.stale_reused = true;
    ++stale_rows_reused_;
    window_.push(provider_.now(), last_good_);
  } else {
    window_.push(provider_.now(), result.matrix);
    // Any accepted snapshot is "good enough" to stand in for a later
    // degraded one — it passed the same threshold.
    last_good_ = std::move(result.matrix);
    has_last_good_ = true;
  }
  return report;
}

void SnapshotIngestor::ingest_external(
    double time, const netmodel::PerformanceMatrix& snapshot) {
  NETCONST_CHECK(snapshot.size() == provider_.cluster_size(),
                 "external snapshot cluster size mismatch");
  window_.push(time, snapshot);
}

double SnapshotIngestor::fill(double interval) {
  NETCONST_CHECK(interval >= 0.0, "fill interval must be >= 0");
  const double start = provider_.now();
  bool first = window_.empty();
  while (!window_.full()) {
    if (!first) provider_.advance(interval);
    first = false;
    ingest_calibrated();
  }
  return provider_.now() - start;
}

}  // namespace netconst::online
