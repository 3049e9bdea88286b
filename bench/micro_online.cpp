// Microbenchmarks for the online subsystem: warm-started window refresh
// vs cold find_constant at the paper's evaluation scale (N = 32
// instances, n = 50 calibration rows), plus the O(1) steady-state window
// push. The equivalence report printed before the benchmark run checks
// the two acceptance targets directly: warm >= 3x faster than cold and
// the warm constant matching the cold one within 1e-6 relative
// Frobenius error (off-diagonal entries; the diagonal self-links are
// definitionally identical and would mask a real difference).
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cloud/synthetic.hpp"
#include "core/constant_finder.hpp"
#include "online/refresher.hpp"
#include "online/service.hpp"
#include "online/window.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace netconst;

constexpr std::size_t kCluster = 32;
constexpr std::size_t kRows = 50;

cloud::SyntheticCloudConfig cloud_config(std::size_t cluster) {
  cloud::SyntheticCloudConfig config;
  config.cluster_size = cluster;
  config.datacenter_racks = cluster / 2;
  config.seed = 7;
  return config;
}

online::SlidingWindow filled_window(cloud::SyntheticCloud& cloud,
                                    std::size_t capacity) {
  online::SlidingWindow window(capacity);
  while (!window.full()) {
    window.push(cloud.now(), cloud.oracle_snapshot());
    cloud.advance(600.0);
  }
  return window;
}

double offdiag_relative_frobenius(const linalg::Matrix& a,
                                  const linalg::Matrix& b) {
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      if (i == j) continue;
      const double diff = a(i, j) - b(i, j);
      num += diff * diff;
      den += b(i, j) * b(i, j);
    }
  }
  return den == 0.0 ? std::sqrt(num) : std::sqrt(num / den);
}

/// The representative online cycle: a refresher holding the fit of
/// window W1 refreshes after the window slid by one snapshot to W2.
struct SlideFixture {
  online::SlidingWindow window;        // W2 contents
  online::WindowRefresher seeded;      // holds W1's factors
  core::ConstantFinderOptions finder;  // same options for the cold path

  SlideFixture() : window(2) {
    cloud::SyntheticCloud cloud(cloud_config(kCluster));
    window = filled_window(cloud, kRows);
    online::WindowRefresher refresher;
    refresher.refresh(window);  // W1 fit from zero; its E starts W2
    cloud.advance(600.0);
    window.push(cloud.now(), cloud.oracle_snapshot());
    seeded = refresher;
    finder.rpca = refresher.options().rpca;
    finder.l0_rel_tolerance = refresher.options().l0_rel_tolerance;
  }
};

SlideFixture& fixture() {
  static SlideFixture f;
  return f;
}

/// Acceptance check, printed before the benchmark tables.
int equivalence_report() {
  SlideFixture& f = fixture();

  Stopwatch warm_clock;
  online::WindowRefresher warm_refresher = f.seeded;  // keep W1 reusable
  const online::RefreshReport warm = warm_refresher.refresh(f.window);
  const double warm_seconds = warm_clock.seconds();

  Stopwatch cold_clock;
  const core::ConstantComponent cold =
      core::find_constant(f.window.to_series(), f.finder);
  const double cold_seconds = cold_clock.seconds();

  const double lat_rel = offdiag_relative_frobenius(
      warm.component.constant.latency(), cold.constant.latency());
  const double bw_rel = offdiag_relative_frobenius(
      warm.component.constant.bandwidth(), cold.constant.bandwidth());
  const double speedup = cold_seconds / warm_seconds;

  std::printf("== warm refresh vs cold find_constant (N=%zu, n=%zu) ==\n",
              kCluster, kRows);
  std::printf("cold find_constant : %8.3f s\n", cold_seconds);
  std::printf("warm refresh       : %8.3f s  (fully warm: %s, "
              "APG iters lat/bw: %d/%d)\n",
              warm_seconds, warm.fully_warm() ? "yes" : "NO",
              warm.latency.iterations, warm.bandwidth.iterations);
  std::printf("speedup            : %8.1fx  (target >= 3x)  [%s]\n",
              speedup, speedup >= 3.0 ? "PASS" : "FAIL");
  std::printf("constant agreement : latency %.3e, bandwidth %.3e "
              "rel. Frobenius (target <= 1e-6)  [%s]\n\n",
              lat_rel, bw_rel,
              (lat_rel <= 1e-6 && bw_rel <= 1e-6) ? "PASS" : "FAIL");
  return (speedup >= 3.0 && warm.fully_warm() && lat_rel <= 1e-6 &&
          bw_rel <= 1e-6)
             ? 0
             : 1;
}

/// Per-tenant refresh-latency distribution of a short multi-tenant
/// service campaign on the concurrent batch scheduler: the tail (p99),
/// not the mean, is what co-tenant interference would show up in.
void service_latency_report() {
  online::ConstantFinderService service;  // shares the global pool
  constexpr std::size_t kTenants = 4;
  std::vector<std::unique_ptr<cloud::SyntheticCloud>> clouds;
  for (std::uint64_t t = 0; t < kTenants; ++t) {
    cloud::SyntheticCloudConfig config = cloud_config(8);
    config.datacenter_racks = 4;
    config.seed = 20 + t;
    clouds.push_back(std::make_unique<cloud::SyntheticCloud>(config));
    online::TenantConfig tenant;
    tenant.name = "tenant" + std::to_string(t);
    tenant.provider = clouds.back().get();
    tenant.window_capacity = 4;
    tenant.scheduler.base_interval = 1500.0;
    tenant.operation_gap = 300.0;
    tenant.seed = 400 + t;
    service.add_tenant(tenant);
  }
  service.run(24);

  std::printf("== per-tenant refresh latency (%zu tenants, 24 steps) ==\n",
              kTenants);
  for (std::size_t t = 0; t < kTenants; ++t) {
    const std::string name = "tenant" + std::to_string(t);
    const online::Histogram::Summary s = service.metrics().histogram_summary(
        "tenant." + name + ".refresh_seconds");
    std::printf("%-8s: %3llu refreshes, p50 %8.3f ms, p99 %8.3f ms\n",
                name.c_str(), static_cast<unsigned long long>(s.count),
                s.p50 * 1e3, s.p99 * 1e3);
  }
  const online::Histogram::Summary pooled =
      service.metrics().histogram_summary("online.refresh_seconds");
  std::printf("%-8s: %3llu refreshes, p50 %8.3f ms, p99 %8.3f ms\n\n",
              "pooled", static_cast<unsigned long long>(pooled.count),
              pooled.p50 * 1e3, pooled.p99 * 1e3);
}

void BM_ColdFindConstant(benchmark::State& state) {
  SlideFixture& f = fixture();
  const netmodel::TemporalPerformance series = f.window.to_series();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::find_constant(series, f.finder));
  }
  state.SetLabel("N=32 n=50");
}
BENCHMARK(BM_ColdFindConstant)->Unit(benchmark::kMillisecond);

void BM_WarmRefresh(benchmark::State& state) {
  SlideFixture& f = fixture();
  for (auto _ : state) {
    // Copy the refresher so every iteration performs the same fit from
    // W1's E on W2's data (a refresh overwrites the factors).
    online::WindowRefresher refresher = f.seeded;
    benchmark::DoNotOptimize(refresher.refresh(f.window));
  }
  state.SetLabel("N=32 n=50");
}
BENCHMARK(BM_WarmRefresh)->Unit(benchmark::kMillisecond);

void BM_WindowPush(benchmark::State& state) {
  const auto cluster = static_cast<std::size_t>(state.range(0));
  cloud::SyntheticCloud cloud(cloud_config(cluster));
  online::SlidingWindow window = filled_window(cloud, 10);
  const netmodel::PerformanceMatrix snapshot = cloud.oracle_snapshot();
  double time = cloud.now();
  for (auto _ : state) {
    // Steady-state push: overwrites one ring row in place.
    window.push(time, snapshot);
    time += 1.0;
  }
  state.SetLabel(std::to_string(cluster) + " instances");
}
BENCHMARK(BM_WindowPush)->Arg(32)->Arg(64)->Arg(128);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  const int acceptance = equivalence_report();
  service_latency_report();
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return acceptance;
}
