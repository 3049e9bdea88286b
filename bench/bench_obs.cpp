// Observability overhead bench: the cost of the flight recorder, on and
// off, measured where it matters — the warm refresh path.
//
// Three measurements, emitted as machine-readable JSON (BENCH_obs.json
// by default):
//  * disabled span cost — ns per Span construct/destruct with the
//    recorder off (one relaxed load + branch each way);
//  * enabled span cost — ns per recorded span (seqlock ring push);
//  * warm refresh cost — median wall time of a steady-state
//    WindowRefresher::refresh with tracing off vs on, plus the span
//    count one refresh records.
//
// The regression gate: spans_per_refresh x disabled_span_ns must stay
// under 1% of the refresh itself — i.e. instrumenting the pipeline and
// leaving tracing OFF is free at the advertised < 1% level. CI runs
// this with --smoke. The JSON opens with the host header of
// bench_util.hpp.
//
// Usage: bench_obs [--smoke] [--out <path>]
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cloud/synthetic.hpp"
#include "obs/trace.hpp"
#include "online/ingest.hpp"
#include "online/refresher.hpp"
#include "online/window.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace netconst;

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// ns per Span open+close at the current recorder state.
double span_cost_ns(std::size_t iterations) {
  const Stopwatch clock;
  for (std::size_t k = 0; k < iterations; ++k) {
    obs::Span span("bench.span");
    span.set_value(static_cast<double>(k));
  }
  return clock.seconds() * 1e9 / static_cast<double>(iterations);
}

struct RefreshBench {
  double disabled_ms = 0.0;
  double enabled_ms = 0.0;
  double spans_per_refresh = 0.0;
};

/// Median warm-refresh wall time over `reps` maintenance cycles, with
/// tracing off and on, against one steadily sliding window.
///
/// Paired design: TWO independent refreshers consume the same window
/// sequence, one timed with tracing off and one with tracing on. The
/// solver is deterministic, so at every rep both do byte-identical
/// work (same warm seed lineage, same iteration counts) — the only
/// difference is the instrumentation. Timing the same refresher twice
/// would not work (the second solve warm-starts off the first), and
/// splitting reps between phases would not either (refresh cost swings
/// ~10x with window position whenever a warm attempt falls back cold).
/// Within a rep the off/on order alternates to cancel cache effects.
RefreshBench warm_refresh_cost(int reps) {
  cloud::SyntheticCloudConfig config;
  config.cluster_size = 16;
  config.datacenter_racks = 4;
  config.seed = 42;
  cloud::SyntheticCloud cloud(config);

  online::SlidingWindow window(8);
  online::SnapshotIngestor ingestor(cloud, window, {});
  online::WindowRefresher quiet;
  online::WindowRefresher traced;
  ingestor.fill(600.0);
  quiet.refresh(window);  // cold bootstraps; not timed
  traced.refresh(window);

  auto& recorder = obs::FlightRecorder::instance();
  RefreshBench bench;
  std::vector<double> quiet_times;
  std::vector<double> traced_times;
  for (int r = 0; r < reps; ++r) {
    cloud.advance(600.0);
    ingestor.ingest_calibrated();
    for (int leg = 0; leg < 2; ++leg) {
      const bool tracing_on = (leg == r % 2);  // alternate order per rep
      recorder.set_enabled(tracing_on);
      online::WindowRefresher& refresher = tracing_on ? traced : quiet;
      const std::uint64_t spans_before = recorder.total_recorded();
      const Stopwatch clock;
      refresher.refresh(window);
      (tracing_on ? traced_times : quiet_times)
          .push_back(clock.seconds() * 1e3);
      if (tracing_on) {
        bench.spans_per_refresh +=
            static_cast<double>(recorder.total_recorded() - spans_before) /
            static_cast<double>(reps);
      }
    }
  }
  bench.disabled_ms = median(quiet_times);
  bench.enabled_ms = median(traced_times);
  recorder.set_enabled(false);
  recorder.clear();
  return bench;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_obs.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_obs [--smoke] [--out <path>]\n";
      return 2;
    }
  }

  auto& recorder = obs::FlightRecorder::instance();
  const std::size_t disabled_iters = smoke ? 2'000'000 : 20'000'000;
  const std::size_t enabled_iters = smoke ? 200'000 : 2'000'000;
  const int refresh_reps = smoke ? 9 : 31;

  recorder.set_enabled(false);
  const double disabled_ns = span_cost_ns(disabled_iters);
  recorder.set_enabled(true);
  const double enabled_ns = span_cost_ns(enabled_iters);
  recorder.set_enabled(false);
  recorder.clear();

  const RefreshBench refresh = warm_refresh_cost(refresh_reps);

  // Derived gate: the cost of every disabled instrumentation point one
  // refresh passes through, relative to the refresh itself.
  const double disabled_overhead_pct =
      refresh.disabled_ms <= 0.0
          ? 0.0
          : refresh.spans_per_refresh * disabled_ns /
                (refresh.disabled_ms * 1e6) * 100.0;
  const double enabled_overhead_pct =
      refresh.disabled_ms <= 0.0
          ? 0.0
          : (refresh.enabled_ms / refresh.disabled_ms - 1.0) * 100.0;
  const bool disabled_gate = disabled_overhead_pct < 1.0;

  std::cout << "disabled span          : " << disabled_ns << " ns\n"
            << "enabled span           : " << enabled_ns << " ns\n"
            << "warm refresh (off)     : " << refresh.disabled_ms << " ms\n"
            << "warm refresh (on)      : " << refresh.enabled_ms << " ms\n"
            << "spans per refresh      : " << refresh.spans_per_refresh
            << "\n"
            << "disabled overhead      : " << disabled_overhead_pct
            << " % (gate < 1%)\n"
            << "enabled overhead       : " << enabled_overhead_pct
            << " %\n";

  std::ofstream out(out_path);
  out.precision(6);
  out << "{\n"
      << "  \"schema\": \"netconst-bench-obs-v1\",\n"
      << "  \"host\": " << bench::host_json() << ",\n"
      << "  \"config\": {\"smoke\": " << (smoke ? "true" : "false")
      << ", \"disabled_iters\": " << disabled_iters
      << ", \"enabled_iters\": " << enabled_iters
      << ", \"refresh_reps\": " << refresh_reps << "},\n"
      << "  \"disabled_span_ns\": " << disabled_ns << ",\n"
      << "  \"enabled_span_ns\": " << enabled_ns << ",\n"
      << "  \"warm_refresh_disabled_ms\": " << refresh.disabled_ms << ",\n"
      << "  \"warm_refresh_enabled_ms\": " << refresh.enabled_ms << ",\n"
      << "  \"spans_per_refresh\": " << refresh.spans_per_refresh << ",\n"
      << "  \"disabled_overhead_pct\": " << disabled_overhead_pct << ",\n"
      << "  \"enabled_overhead_pct\": " << enabled_overhead_pct << ",\n"
      << "  \"disabled_overhead_gate_ok\": "
      << (disabled_gate ? "true" : "false") << "\n"
      << "}\n";
  std::cout << "wrote " << out_path << "\n";

  if (!disabled_gate) {
    std::cerr << "GATE FAILED: disabled-tracing overhead "
              << disabled_overhead_pct << "% >= 1%\n";
    return 1;
  }
  return 0;
}
