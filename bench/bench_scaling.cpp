// Scale-out study for the parallel runtime (see docs/PERFORMANCE.md):
//
//  1. threads x tenants — drive a ConstantFinderService campaign at
//     every (driver threads, tenant count) grid point and report wall
//     time, aggregate refresh throughput, and per-tenant refresh
//     latency p50/p99. The threads=1 column is the serialized
//     baseline the concurrent scheduler is judged against. A point with
//     more threads than hardware_concurrency is marked oversubscribed
//     and kept out of the aggregate speedup: its threads time-share
//     cores, so any gain there is overlap, not scaling.
//  2. SIMD single-solve — the warm workspace APG solve at N=64 with
//     the vector kernels forced off vs the detected level, plus the
//     bit-identity check of the scalar path against rpca::reference.
//
// Emits machine-readable JSON (BENCH_scaling.json by default), opening
// with the host header of bench_util.hpp. The host's core count and
// detected SIMD level are recorded alongside the numbers (and kept in
// `config` for readers of the older schema): on a 1-core or
// scalar-only machine the ratios legitimately approach 1x, and the
// JSON says so instead of hiding it.
//
// Usage: bench_scaling [--smoke] [--out <path>]
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "cloud/synthetic.hpp"
#include "linalg/simd.hpp"
#include "online/service.hpp"
#include "rpca/reference.hpp"
#include "rpca/rpca.hpp"
#include "rpca/validation.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace netconst;

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// ---------------------------------------------------------------------------
// Part 1: threads x tenants service campaign.
// ---------------------------------------------------------------------------

struct ScalePoint {
  std::size_t threads = 0;
  std::size_t tenants = 0;
  std::size_t steps = 0;
  bool oversubscribed = false;  // threads > hardware_concurrency
  double wall_seconds = 0.0;
  std::uint64_t total_refreshes = 0;
  double refreshes_per_second = 0.0;
  double refresh_p50_ms = 0.0;  // pooled across tenants
  double refresh_p99_ms = 0.0;
};

cloud::SyntheticCloudConfig scale_cloud(std::uint64_t seed) {
  cloud::SyntheticCloudConfig config;
  config.cluster_size = 8;
  config.datacenter_racks = 4;
  config.seed = seed;
  return config;
}

online::TenantConfig scale_tenant(const std::string& name,
                                  cloud::NetworkProvider& provider,
                                  std::uint64_t seed) {
  online::TenantConfig config;
  config.name = name;
  config.provider = &provider;
  config.window_capacity = 4;
  config.snapshot_interval = 600.0;
  config.operation_gap = 300.0;
  config.scheduler.base_interval = 1500.0;
  config.seed = seed;
  return config;
}

ScalePoint run_campaign(std::size_t threads, std::size_t tenants,
                        std::size_t steps, std::size_t hw) {
  online::ServiceOptions options;
  options.threads = threads;  // dedicated pool: pins driver parallelism
  online::ConstantFinderService service(options);
  std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
  clouds.reserve(tenants);
  for (std::uint64_t t = 0; t < tenants; ++t) {
    clouds.push_back(
        std::make_unique<cloud::SyntheticCloud>(scale_cloud(60 + t)));
    service.add_tenant(scale_tenant("tenant" + std::to_string(t),
                                    *clouds.back(), 300 + t));
  }

  const Stopwatch clock;
  service.run(steps);
  ScalePoint point;
  point.threads = threads;
  point.tenants = tenants;
  point.steps = steps;
  point.oversubscribed = threads > hw;
  point.wall_seconds = clock.seconds();
  for (std::size_t t = 0; t < tenants; ++t) {
    point.total_refreshes += service.status(t).refreshes;
  }
  point.refreshes_per_second =
      point.wall_seconds > 0.0
          ? static_cast<double>(point.total_refreshes) / point.wall_seconds
          : 0.0;
  const online::Histogram::Summary latency =
      service.metrics().histogram_summary("online.refresh_seconds");
  point.refresh_p50_ms = latency.p50 * 1e3;
  point.refresh_p99_ms = latency.p99 * 1e3;
  return point;
}

// ---------------------------------------------------------------------------
// Part 2: SIMD single-solve study at the paper's N=64 shape.
// ---------------------------------------------------------------------------

struct SimdStudy {
  std::size_t cluster = 64;
  std::string scalar_level = "scalar";
  std::string vector_level;
  double scalar_median_ms = 0.0;
  double vector_median_ms = 0.0;
  double speedup = 0.0;
  bool scalar_matches_reference = false;
};

SimdStudy simd_study(int reps) {
  namespace simd = linalg::simd;
  SimdStudy study;
  study.vector_level = simd::level_name(simd::best_available_level());

  rpca::SyntheticSpec spec;
  spec.rows = 10;  // the paper's calibration time steps
  spec.cols = study.cluster * study.cluster;
  spec.rank = 1;
  spec.sparsity = 0.05;
  Rng rng(71);
  const auto problem = rpca::make_synthetic(spec, rng);
  const rpca::Options options;

  rpca::SolverWorkspace ws;
  rpca::Result result;
  rpca::solve(problem.data, options, ws, result);

  // Bit-identity of the scalar workspace path against the frozen
  // allocating reference — the contract the vector kernels are allowed
  // to relax only in documented reduction order.
  {
    const simd::ScopedLevel scalar(simd::Level::Scalar);
    rpca::solve(problem.data, options, ws, result);
    const rpca::Result ref = rpca::reference::solve(problem.data, options);
    study.scalar_matches_reference =
        result.low_rank.max_abs_diff(ref.low_rank) == 0.0 &&
        result.sparse.max_abs_diff(ref.sparse) == 0.0 &&
        result.iterations == ref.iterations;
  }

  std::vector<double> scalar_times, vector_times;
  scalar_times.reserve(static_cast<std::size_t>(reps));
  vector_times.reserve(static_cast<std::size_t>(reps));
  // Alternate the two levels so ambient load perturbs both samples.
  for (int r = 0; r < reps; ++r) {
    {
      const simd::ScopedLevel scalar(simd::Level::Scalar);
      const Stopwatch clock;
      rpca::solve(problem.data, options, ws, result);
      scalar_times.push_back(clock.milliseconds());
    }
    {
      const Stopwatch clock;
      rpca::solve(problem.data, options, ws, result);
      vector_times.push_back(clock.milliseconds());
    }
  }
  study.scalar_median_ms = median(std::move(scalar_times));
  study.vector_median_ms = median(std::move(vector_times));
  study.speedup = study.vector_median_ms > 0.0
                      ? study.scalar_median_ms / study.vector_median_ms
                      : 0.0;
  return study;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_scaling.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_scaling [--smoke] [--out <path>]\n";
      return 2;
    }
  }

  namespace simd = netconst::linalg::simd;
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "hardware_concurrency=" << hw << ", simd="
            << simd::level_name(simd::best_available_level()) << "\n";

  const std::vector<std::size_t> thread_grid =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  const std::vector<std::size_t> tenant_grid =
      smoke ? std::vector<std::size_t>{1, 2}
            : std::vector<std::size_t>{1, 2, 4, 8};
  // A full run's campaigns are long enough (>= 1 s of wall time at 8
  // tenants on 4 vCPUs) that the steady state, not the bootstrap's cold
  // solves or one scheduler hiccup, sets the aggregate.
  const std::size_t steps = smoke ? 6 : 32000;
  const int simd_reps = smoke ? 3 : 11;

  std::vector<ScalePoint> points;
  for (const std::size_t tenants : tenant_grid) {
    for (const std::size_t threads : thread_grid) {
      points.push_back(run_campaign(threads, tenants, steps, hw));
      const ScalePoint& p = points.back();
      std::cout << "tenants=" << p.tenants << " threads=" << p.threads
                << (p.oversubscribed ? " (oversubscribed)" : "") << ": "
                << p.wall_seconds << " s, " << p.total_refreshes
                << " refreshes (" << p.refreshes_per_second
                << "/s), refresh p50/p99 " << p.refresh_p50_ms << "/"
                << p.refresh_p99_ms << " ms\n";
    }
  }

  // Aggregate speedup at the widest tenant count: best concurrent
  // throughput over the serialized (threads=1) baseline, counting only
  // points that fit the hardware. Without one (a 1-core host) there is
  // no scaling result, and the JSON says why instead of a number.
  const std::size_t wide = tenant_grid.back();
  double serialized = 0.0, best_concurrent = 0.0;
  std::size_t best_threads = 0;
  for (const ScalePoint& p : points) {
    if (p.tenants != wide) continue;
    if (p.threads == 1) serialized = p.refreshes_per_second;
    if (p.threads == 1 || p.oversubscribed) continue;
    if (p.refreshes_per_second > best_concurrent) {
      best_concurrent = p.refreshes_per_second;
      best_threads = p.threads;
    }
  }
  const bool has_speedup = best_threads > 0 && serialized > 0.0;
  const double aggregate_speedup =
      has_speedup ? best_concurrent / serialized : 0.0;
  const std::string speedup_reason =
      has_speedup ? ""
                  : "no grid point with 1 < threads <= hardware_concurrency "
                    "(" + std::to_string(hw) + ")";
  std::cout << "aggregate refresh throughput at " << wide << " tenants: ";
  if (has_speedup) {
    std::cout << aggregate_speedup << "x over serialized baseline (best at "
              << best_threads
              << " threads; oversubscribed points excluded)\n";
  } else {
    std::cout << "n/a, " << speedup_reason << "\n";
  }

  const SimdStudy simd_result = simd_study(simd_reps);
  std::cout << "simd N=" << simd_result.cluster << " warm APG solve: "
            << simd_result.scalar_median_ms << " ms scalar, "
            << simd_result.vector_median_ms << " ms "
            << simd_result.vector_level << " (speedup "
            << simd_result.speedup << "x), scalar==reference: "
            << (simd_result.scalar_matches_reference ? "yes" : "NO")
            << "\n";

  std::ostringstream json;
  json.precision(6);
  json << "{\n"
       << "  \"schema\": \"netconst-scaling-v1\",\n"
       << "  \"host\": " << bench::host_json() << ",\n"
       << "  \"config\": {\"steps\": " << steps
       << ", \"smoke\": " << (smoke ? "true" : "false")
       << ", \"hardware_concurrency\": " << hw << ", \"simd_level\": \""
       << simd_result.vector_level << "\"},\n"
       << "  \"aggregate\": {\"tenants\": " << wide
       << ", \"serialized_refreshes_per_second\": " << serialized;
  if (has_speedup) {
    json << ", \"best_refreshes_per_second\": " << best_concurrent
         << ", \"best_threads\": " << best_threads
         << ", \"speedup\": " << aggregate_speedup;
  } else {
    json << ", \"speedup\": null, \"speedup_reason\": \"" << speedup_reason
         << '"';
  }
  json << "},\n"
       << "  \"simd_study\": {\"cluster\": " << simd_result.cluster
       << ", \"scalar_median_ms\": " << simd_result.scalar_median_ms
       << ", \"vector_median_ms\": " << simd_result.vector_median_ms
       << ", \"vector_level\": \"" << simd_result.vector_level
       << "\", \"speedup\": " << simd_result.speedup
       << ", \"scalar_matches_reference\": "
       << (simd_result.scalar_matches_reference ? "true" : "false")
       << "},\n"
       << "  \"scaling\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    json << "    {\"threads\": " << p.threads << ", \"tenants\": "
         << p.tenants << ", \"steps\": " << p.steps << ", \"oversubscribed\": "
         << (p.oversubscribed ? "true" : "false")
         << ", \"wall_seconds\": " << p.wall_seconds
         << ", \"total_refreshes\": " << p.total_refreshes
         << ", \"refreshes_per_second\": " << p.refreshes_per_second
         << ", \"refresh_p50_ms\": " << p.refresh_p50_ms
         << ", \"refresh_p99_ms\": " << p.refresh_p99_ms << "}"
         << (i + 1 < points.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.close();
  std::cout << "wrote " << out_path << " (" << points.size()
            << " grid points)\n";

  // The only hard gate that is meaningful on any machine: the scalar
  // workspace path must stay bit-identical to the frozen reference.
  return simd_result.scalar_matches_reference ? 0 : 1;
}
