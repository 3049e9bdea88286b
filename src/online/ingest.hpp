// Streaming snapshot ingestion: one all-link calibration at a time from
// a NetworkProvider into a SlidingWindow — the online replacement for
// cloud::calibrate_series' batch loop. Snapshots may also be pushed from
// outside (a remote measurement agent, a replayed trace), which is the
// seam future sharded/remote deployments plug into.
//
// Degraded-measurement policy: calibration already retries lost probes
// with backoff (cloud::CalibrationOptions); a snapshot that is STILL
// mostly holes after the retries is not worth a window row — pushing it
// would hand the decomposition a row that is mostly imputation. Such a
// snapshot is discarded and the last good snapshot is re-pushed in its
// place (stale-row reuse): slightly stale truth beats fresh garbage,
// and the window keeps its cadence so the scheduler's accounting stays
// simple. Every reuse is counted and surfaced by the service.
#pragma once

#include <cstdint>

#include "cloud/calibration.hpp"
#include "cloud/provider.hpp"
#include "online/window.hpp"

namespace netconst::online {

struct IngestOptions {
  cloud::CalibrationOptions calibration;
  /// A calibrated snapshot whose missing-link fraction exceeds this is
  /// replaced by the last good snapshot (stale-row reuse) when one
  /// exists. >= 1.0 disables the policy.
  double max_missing_fraction = 0.5;
};

/// What one calibrated ingest did (see SnapshotIngestor's cumulative
/// accessors for lifetime totals).
struct IngestReport {
  double elapsed_seconds = 0.0;  // provider time the calibration took
  /// Missing links of the calibrated snapshot (before any reuse).
  std::size_t missing_links = 0;
  /// Probe values lost during the calibration, retries included.
  std::size_t failed_measurements = 0;
  /// Pair re-calibrations performed.
  std::size_t retries = 0;
  /// True when the calibrated snapshot was discarded and the last good
  /// snapshot pushed in its place.
  bool stale_reused = false;
};

class SnapshotIngestor {
 public:
  /// Both references must outlive the ingestor. The provider's cluster
  /// size must match the window's (once the window is non-empty).
  SnapshotIngestor(cloud::NetworkProvider& provider, SlidingWindow& window,
                   const IngestOptions& options = {});

  /// Run one all-link calibration on the provider (consuming provider
  /// time, the paper's calibration-overhead accounting) and push the
  /// snapshot — or, when it is too degraded, re-push the last good one.
  IngestReport ingest_calibrated();

  /// Push an externally measured snapshot; consumes no provider time.
  void ingest_external(double time,
                       const netmodel::PerformanceMatrix& snapshot);

  /// Calibrate until the window is full, idling `interval` provider
  /// seconds between consecutive snapshots (spacing rows wider than
  /// typical interference bursts keeps the error component sparse —
  /// see cloud::SeriesOptions). Returns total provider seconds consumed,
  /// 0 when the window was already full.
  double fill(double interval);

  std::uint64_t ingested() const { return ingested_; }
  double calibration_seconds() const { return calibration_seconds_; }

  // Lifetime degradation totals across all calibrated ingests.
  std::uint64_t failed_measurements() const { return failed_measurements_; }
  std::uint64_t retries() const { return retries_; }
  std::uint64_t missing_links() const { return missing_links_; }
  std::uint64_t stale_rows_reused() const { return stale_rows_reused_; }

 private:
  cloud::NetworkProvider& provider_;
  SlidingWindow& window_;
  IngestOptions options_;
  // The calibration's round schedule, built by the first calibrated
  // ingest: it depends only on the provider's cluster size.
  std::vector<cloud::PairList> rounds_;
  std::uint64_t ingested_ = 0;
  double calibration_seconds_ = 0.0;  // cumulative provider time
  std::uint64_t failed_measurements_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t missing_links_ = 0;
  std::uint64_t stale_rows_reused_ = 0;
  bool has_last_good_ = false;
  netmodel::PerformanceMatrix last_good_;
};

}  // namespace netconst::online
