// bench_serving — performance gates for the constant-serving front end.
//
// Three gates, all hard (nonzero exit on violation), emitted as
// machine-readable JSON (BENCH_serving.json by default):
//
//  1. identity  — every cached plan's bytes equal a direct
//                 compute_plan() invocation at the same snapshot
//                 version (the cache can never serve stale or divergent
//                 results);
//  2. zero-alloc — the cache-hit path (pin snapshot, probe, serve the
//                 pre-serialized plan) performs zero heap allocations
//                 in steady state, measured by the instrumented global
//                 allocator below;
//  3. throughput — >= 1M cached plan queries/sec sustained while a
//                 writer thread keeps publishing new snapshot versions
//                 (the ISSUE's headline serving number).
//
// The JSON opens with the host header of bench_util.hpp.
//
// Usage: bench_serving [--smoke] [--out <path>]
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <malloc.h>  // malloc_usable_size (glibc)

#include "bench_util.hpp"
#include "serving/epoch.hpp"
#include "serving/plan.hpp"
#include "serving/plan_cache.hpp"
#include "serving/snapshot_store.hpp"
#include "support/stopwatch.hpp"

// ---------------------------------------------------------------------------
// Instrumented global allocator (same idiom as perf_regression.cpp):
// counts every operator-new allocation in the process, query threads
// included — relaxed atomics, cheap enough to stay enabled through the
// timed sections.
// ---------------------------------------------------------------------------
namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_total_bytes{0};

void note_alloc(void* p) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_total_bytes.fetch_add(malloc_usable_size(p), std::memory_order_relaxed);
}

}  // namespace

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size ? size : 1);
  if (p != nullptr) note_alloc(p);
  return p;
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

#pragma GCC diagnostic pop

namespace netconst::serving {
namespace {

constexpr std::size_t kClusterSize = 16;

/// Deterministic asymmetric component: link quality varies by pair and
/// by version, so plans have structure and change across publishes.
core::ConstantComponent bench_component(std::uint64_t version) {
  core::ConstantComponent component;
  component.constant = netmodel::PerformanceMatrix(kClusterSize);
  for (std::size_t i = 0; i < kClusterSize; ++i) {
    for (std::size_t j = 0; j < kClusterSize; ++j) {
      if (i == j) continue;
      const double alpha =
          1e-4 * (1.0 + 0.05 * static_cast<double>((i * 13 + j * 5) % 17));
      const double beta =
          1e8 / (1.0 + 0.1 * static_cast<double>((3 * i + j) % 9) +
                 1e-3 * static_cast<double>(version % 32));
      component.constant.set_link(i, j, {alpha, beta});
    }
  }
  component.error_norm = 0.02;
  component.latency_error_norm = 0.03;
  return component;
}

/// The query working set: a mix of broadcast-tree and topology-mapping
/// shapes over different sub-clusters, pre-canonicalized (the HTTP
/// layer canonicalizes before the cache sees a request).
std::vector<PlanRequest> build_requests() {
  std::vector<PlanRequest> requests;
  for (std::size_t width : {4, 6, 8, 12}) {
    for (std::size_t offset : {0, 2, 4}) {
      std::vector<std::size_t> nodes;
      for (std::size_t k = 0; k < width; ++k) {
        nodes.push_back((offset + k) % kClusterSize);
      }
      requests.push_back(canonical_plan_request(
          PlanKind::BroadcastTree, nodes, nodes.front(), 8u << 20));
      requests.push_back(canonical_plan_request(
          PlanKind::TopologyMapping, nodes, 0, 1u << 20));
    }
  }
  return requests;
}

struct GateResults {
  std::uint64_t identity_mismatches = 0;
  std::uint64_t hit_loop_queries = 0;
  std::uint64_t hit_loop_allocs = 0;
  double hit_loop_seconds = 0.0;
  std::uint64_t concurrent_queries = 0;
  double concurrent_seconds = 0.0;
  double queries_per_second = 0.0;
  std::uint64_t publishes = 0;
  std::size_t query_threads = 0;
  PlanCache::Stats cache;
  std::uint64_t epoch_reclaimed = 0;
};

}  // namespace
}  // namespace netconst::serving

int main(int argc, char** argv) {
  using namespace netconst;
  using namespace netconst::serving;

  bool smoke = false;
  std::string out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_serving [--smoke] [--out <path>]\n";
      return 2;
    }
  }

  const std::uint64_t hit_iterations = smoke ? 2'000'000 : 20'000'000;
  const double concurrent_window = smoke ? 0.5 : 3.0;
  const std::size_t query_threads = 2;

  EpochDomain epoch;
  SnapshotStore store(epoch);
  PlanCache cache(store);

  store.publish("bench", bench_component(1), 0.0, 1);
  const std::size_t tenant = store.find("bench");
  const std::vector<PlanRequest> requests = build_requests();

  GateResults results;
  results.query_threads = query_threads;

  // ---- Gate 1: cached bytes == direct planner invocation.
  {
    EpochDomain::Reader reader(epoch);
    const SnapshotStore::Ref ref = store.acquire(tenant, reader);
    for (const PlanRequest& request : requests) {
      cache.lookup_or_compute(tenant, *ref, request);  // fill
      const Plan* cached = cache.lookup_or_compute(tenant, *ref, request);
      const Plan direct = compute_plan(*ref, request);
      if (cached == nullptr || cached->json != direct.json) {
        ++results.identity_mismatches;
      }
    }
  }

  // ---- Gate 2: the warmed hit path never touches the heap.
  {
    EpochDomain::Reader reader(epoch);
    std::uint64_t checksum = 0;
    const std::uint64_t allocs0 = g_allocs.load();
    const Stopwatch clock;
    for (std::uint64_t i = 0; i < hit_iterations; ++i) {
      const SnapshotStore::Ref ref = store.acquire(tenant, reader);
      const Plan* plan = cache.lookup_or_compute(
          tenant, *ref, requests[i % requests.size()]);
      checksum += plan->json.size();
    }
    results.hit_loop_seconds = clock.seconds();
    results.hit_loop_allocs = g_allocs.load() - allocs0;
    results.hit_loop_queries = hit_iterations;
    if (checksum == 0) std::cerr << "impossible checksum\n";
  }

  // ---- Gate 3: sustained cached throughput while a writer publishes.
  {
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> queries{0};
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < query_threads; ++t) {
      workers.emplace_back([&, t] {
        EpochDomain::Reader reader(epoch);
        std::uint64_t local = 0;
        std::size_t i = t;  // desynchronize the request streams
        while (!stop.load(std::memory_order_acquire)) {
          const SnapshotStore::Ref ref = store.acquire(tenant, reader);
          const Plan* plan = cache.lookup_or_compute(
              tenant, *ref, requests[i++ % requests.size()]);
          if (plan->json.empty()) break;  // unreachable
          ++local;
        }
        queries.fetch_add(local, std::memory_order_relaxed);
      });
    }

    // The refresher stand-in: publish a new version every few
    // milliseconds, exactly what the online service does under a
    // (pathologically fast) recalibration storm.
    std::uint64_t version = 1;
    const Stopwatch clock;
    while (clock.seconds() < concurrent_window) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      ++version;
      store.publish("bench", bench_component(version),
                    static_cast<double>(version), version);
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& worker : workers) worker.join();
    results.concurrent_seconds = clock.seconds();
    results.concurrent_queries = queries.load();
    results.queries_per_second =
        static_cast<double>(results.concurrent_queries) /
        results.concurrent_seconds;
    results.publishes = version;
  }

  results.cache = cache.stats();
  results.epoch_reclaimed = epoch.reclaimed_total();

  // ---- Verdicts.
  int violations = 0;
  if (results.identity_mismatches > 0) {
    ++violations;
    std::cerr << "IDENTITY VIOLATION: " << results.identity_mismatches
              << " cached plans diverged from direct planner output\n";
  }
  if (results.hit_loop_allocs > 0) {
    ++violations;
    std::cerr << "ALLOC VIOLATION: " << results.hit_loop_allocs
              << " heap allocations on the cache-hit path\n";
  }
  if (results.queries_per_second < 1e6) {
    ++violations;
    std::cerr << "THROUGHPUT VIOLATION: " << results.queries_per_second
              << " cached queries/sec (gate: 1e6)\n";
  }

  const double hit_qps = results.hit_loop_seconds > 0.0
                             ? static_cast<double>(results.hit_loop_queries) /
                                   results.hit_loop_seconds
                             : 0.0;
  std::cout << "identity: " << requests.size() << " shapes, "
            << results.identity_mismatches << " mismatches\n"
            << "hit path: " << results.hit_loop_queries << " queries in "
            << results.hit_loop_seconds << " s (" << hit_qps
            << " q/s), " << results.hit_loop_allocs << " allocs\n"
            << "concurrent: " << results.concurrent_queries
            << " queries across " << query_threads << " threads in "
            << results.concurrent_seconds << " s ("
            << results.queries_per_second << " q/s) with "
            << results.publishes << " publishes\n"
            << "cache: " << results.cache.hits << " hits, "
            << results.cache.misses << " misses, "
            << results.cache.invalidated << " invalidated\n";

  std::ostringstream json;
  json.precision(6);
  json << "{\n"
       << "  \"schema\": \"netconst-bench-serving-v1\",\n"
       << "  \"host\": " << bench::host_json() << ",\n"
       << "  \"config\": {\"smoke\": " << (smoke ? "true" : "false")
       << ", \"cluster_size\": " << kClusterSize
       << ", \"request_shapes\": " << requests.size()
       << ", \"query_threads\": " << query_threads << "},\n"
       << "  \"identity\": {\"mismatches\": " << results.identity_mismatches
       << "},\n"
       << "  \"hit_path\": {\"queries\": " << results.hit_loop_queries
       << ", \"seconds\": " << results.hit_loop_seconds
       << ", \"queries_per_second\": " << hit_qps
       << ", \"steady_state_allocs\": " << results.hit_loop_allocs
       << "},\n"
       << "  \"concurrent\": {\"queries\": " << results.concurrent_queries
       << ", \"seconds\": " << results.concurrent_seconds
       << ", \"queries_per_second\": " << results.queries_per_second
       << ", \"publishes\": " << results.publishes << "},\n"
       << "  \"cache\": {\"hits\": " << results.cache.hits
       << ", \"misses\": " << results.cache.misses
       << ", \"uncached\": " << results.cache.uncached
       << ", \"insert_races\": " << results.cache.insert_races
       << ", \"invalidated\": " << results.cache.invalidated << "},\n"
       << "  \"epoch\": {\"reclaimed\": " << results.epoch_reclaimed
       << "},\n"
       << "  \"violations\": " << violations << "\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.close();
  std::cout << "wrote " << out_path << " (" << violations
            << " gate violations)\n";
  return violations == 0 ? 0 : 1;
}
