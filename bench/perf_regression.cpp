// Perf-regression harness for the allocation-free RPCA hot path.
//
// Runs cold batch solve suites at the paper's TP-matrix shapes
// (time-step rows x N^2 columns, N in {16, 32, 64}), timing the frozen
// allocating baselines (rpca::reference) against the workspace solvers,
// then the online refresher's full-path fit and the subspace tracker's
// row update along sliding-window trajectories, and emits machine-readable JSON (BENCH_rpca.json by default) with
// median wall times, iteration counts, and heap-allocation counters from
// the instrumented global allocator below. The allocation counters
// double as a peak-RSS proxy: peak live bytes during a solve bound the
// solver's transient memory footprint.
//
// Exit status is nonzero when any steady-state workspace solve performs
// a heap allocation (the warm_fit suite — the refresher's full-path fit,
// the Huber-fit polish from the last E — included), when a warm_fit
// slide's polish differs by a bit from reference::polish from the same
// start (at the active SIMD level or replayed at Scalar), when the
// tracker's row update is not faster than the full-path fit at some
// grid N (64, 128, 256, 512), or when the online suite (APG + the plain
// rank-1 polish, rpca::solve on a noisy N=32 window) is slower than its
// reference twin — CI runs this with --smoke as a regression gate. The JSON opens with the host
// header of bench_util.hpp: git sha, build type, compiler,
// hardware_concurrency, pool threads and SIMD level.
//
// Usage: perf_regression [--smoke] [--out <path>]
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <malloc.h>  // malloc_usable_size (glibc)

#include "bench_util.hpp"
#include "linalg/simd.hpp"
#include "rpca/incremental.hpp"
#include "rpca/reference.hpp"
#include "rpca/rpca.hpp"
#include "rpca/validation.hpp"
#include "rpca/workspace.hpp"
#include "support/rng.hpp"
#include "support/stopwatch.hpp"

// ---------------------------------------------------------------------------
// Instrumented global allocator: counts every operator-new allocation in
// the process, solver threads included. The counters are relaxed atomics,
// cheap enough to stay enabled through the timed sections — and both
// sides of every comparison pay the same cost.
// ---------------------------------------------------------------------------
namespace {

std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_total_bytes{0};
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_live_bytes{0};

void note_alloc(void* p) {
  const std::uint64_t size = malloc_usable_size(p);
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_total_bytes.fetch_add(size, std::memory_order_relaxed);
  const std::uint64_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void note_free(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
}

}  // namespace

// A malloc-backed operator new is the standard way to instrument the
// global allocator, but GCC flags the new/free pairing once it inlines
// the callers; the mismatch is deliberate and consistent here.
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

void operator delete(void* p) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  ::operator delete(p);
}

#pragma GCC diagnostic pop

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------
namespace {

using namespace netconst;

constexpr std::size_t kRows = 10;  // paper's calibration time steps

struct SectionStats {
  double median_ms = 0.0;
  int iterations = 0;
  // Allocator traffic of the last (steady-state) repetition.
  std::uint64_t allocs = 0;
  std::uint64_t alloc_bytes = 0;
  std::uint64_t peak_live_bytes = 0;  // RSS proxy
  double allocs_per_iteration = 0.0;
};

struct SuiteRow {
  std::string suite;  // "batch" | "incremental" | "online" | "warm_fit"
  std::string solver;
  std::size_t cluster = 0;
  std::size_t rows = 0;
  std::size_t cols = 0;
  SectionStats reference;
  SectionStats workspace;
  double speedup = 0.0;
  // The workspace side replayed at the Scalar SIMD level (warm_fit
  // only), and whether the polish matched its reference twin bit for bit
  // on every slide at both levels.
  std::optional<SectionStats> scalar;
  bool polish_matches_reference = true;
};

bool same_bits(const linalg::Matrix& x, const linalg::Matrix& y) {
  return x.same_shape(y) &&
         std::memcmp(x.data().data(), y.data().data(),
                     x.size() * sizeof(double)) == 0;
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

rpca::SyntheticProblem tp_problem(std::size_t cluster, std::uint64_t seed) {
  rpca::SyntheticSpec spec;
  spec.rows = kRows;
  spec.cols = cluster * cluster;
  spec.rank = 1;
  spec.sparsity = 0.05;
  Rng rng(seed);
  return rpca::make_synthetic(spec, rng);
}

/// Replace one ring row with a perturbed copy — the sliding-window shape
/// of change the online refresher sees between consecutive solves.
void slide_row(linalg::Matrix& data, std::size_t step, Rng& rng) {
  const std::size_t row = step % data.rows();
  for (std::size_t j = 0; j < data.cols(); ++j) {
    data(row, j) *= 1.0 + 0.01 * rng.normal();
  }
}

/// One timed repetition of `solve` (which returns the iteration count);
/// the allocator delta of every repetition overwrites `stats`, so after a
/// loop the counters describe the last (steady-state) repetition.
template <typename Solve>
void timed_rep(SectionStats& stats, std::vector<double>& times,
               Solve&& solve) {
  g_peak_live_bytes.store(g_live_bytes.load());
  const std::uint64_t allocs0 = g_allocs.load();
  const std::uint64_t bytes0 = g_total_bytes.load();
  const Stopwatch clock;
  stats.iterations = solve();
  times.push_back(clock.milliseconds());
  stats.allocs = g_allocs.load() - allocs0;
  stats.alloc_bytes = g_total_bytes.load() - bytes0;
  stats.peak_live_bytes = g_peak_live_bytes.load();
}

void finish_section(SectionStats& stats, std::vector<double>& times) {
  stats.median_ms = median(std::move(times));
  stats.allocs_per_iteration =
      stats.iterations > 0
          ? static_cast<double>(stats.allocs) / stats.iterations
          : static_cast<double>(stats.allocs);
}

/// One solve of `data` timed on both sides: rpca::reference::solve
/// against the workspace rpca::solve, same solver and options.
SuiteRow solve_suite(const char* suite, const std::string& solver_label,
                     rpca::Solver solver, std::size_t cluster,
                     const linalg::Matrix& data, const rpca::Options& options,
                     int reps) {
  SuiteRow row;
  row.suite = suite;
  row.solver = solver_label;
  row.cluster = cluster;
  row.rows = data.rows();
  row.cols = data.cols();

  rpca::SolverWorkspace ws;
  rpca::Result result;
  // Warm-up both paths: page the data in and let the workspace / result
  // buffers reach capacity.
  rpca::reference::solve(data, solver, options);
  rpca::solve(data, solver, options, ws, result);

  // Reference and workspace repetitions alternate so ambient load
  // perturbs both samples' distributions equally; timing the sections
  // back-to-back let a load spike land entirely inside one of them and
  // dominate the reported ratio.
  std::vector<double> ref_times, ws_times;
  ref_times.reserve(static_cast<std::size_t>(reps));
  ws_times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    timed_rep(row.reference, ref_times, [&] {
      return rpca::reference::solve(data, solver, options).iterations;
    });
    timed_rep(row.workspace, ws_times, [&] {
      rpca::solve(data, solver, options, ws, result);
      return result.iterations;
    });
  }
  finish_section(row.reference, ref_times);
  finish_section(row.workspace, ws_times);
  row.speedup = row.workspace.median_ms > 0.0
                    ? row.reference.median_ms / row.workspace.median_ms
                    : 0.0;
  return row;
}

SuiteRow batch_suite(rpca::Solver solver, std::size_t cluster, int reps) {
  const auto problem = tp_problem(cluster, 7 + cluster);
  const rpca::Options options;  // defaults: auto lambda, tol 1e-7
  return solve_suite("batch", rpca::solver_name(solver), solver, cluster,
                     problem.data, options, reps);
}

/// Online suite: rpca::solve with APG, then the 300-iteration plain
/// rank-1 polish (the refresher's cold solve until its bootstrap became
/// the fit from zero), on an N=32 window with dense noise on top of the
/// rank-1 + sparse structure, the EC2-like case where the polish runs
/// to its cap. Paired with its reference twin; the gate below fails
/// the run when the workspace side is the slower one.
SuiteRow online_suite(int reps) {
  const std::size_t cluster = 32;
  auto problem = tp_problem(cluster, 401);
  Rng noise(402);
  for (double& x : problem.data.data()) x += 0.1 * noise.normal();
  rpca::Options options;
  options.polish_iterations = 300;  // the online refresher default
  return solve_suite("online", "APG+polish", rpca::Solver::Apg, cluster,
                     problem.data, options, reps);
}

/// Fit suite: the online refresher's steady-state full-path layer along
/// a noisy N=32 slide trajectory — rpca::polish opening the 300-step
/// budget with the rank-1 Huber fit, started from the previous slide's
/// E with no solver in front — against its reference twin,
/// reference::polish from the same start. Both sides start from a
/// cold polished solve and polish each slide's window in place, so each
/// slide's result is the next start; the workspace side falls under the
/// steady-state allocation gate. The workspace side runs twice, at the
/// active SIMD level and at Scalar; the row records both medians and
/// whether every slide's polish matched reference::polish bit for bit
/// at both levels.
SuiteRow warm_fit_suite(int steps) {
  SuiteRow row;
  row.suite = "warm_fit";
  row.solver = "fit+polish";
  row.cluster = 32;
  auto problem = tp_problem(row.cluster, 501);
  Rng noise(502);
  for (double& x : problem.data.data()) x += 0.03 * noise.normal();
  row.rows = problem.data.rows();
  row.cols = problem.data.cols();

  rpca::Options options;
  options.polish_iterations = 300;  // the online refresher default

  {
    linalg::Matrix data = problem.data;
    Rng rng(11);
    rpca::Result prev =
        rpca::reference::solve(data, rpca::Solver::Apg, options);
    std::vector<double> times;
    for (int s = 0; s < steps; ++s) {
      slide_row(data, static_cast<std::size_t>(s), rng);
      timed_rep(row.reference, times, [&] {
        rpca::reference::polish(data, options, /*huber_start=*/true, prev);
        return prev.polish_iterations;
      });
    }
    finish_section(row.reference, times);
  }
  // The workspace trajectory at the active SIMD level, then replayed at
  // Scalar. On every slide of both, the polish (the Huber fit and the
  // closing alternation) must match reference::polish run from the same
  // start at the same level bit for bit. The two levels' trajectories
  // are not compared with each other: the power iteration's
  // matrix-vector products and norms split their sums across lanes, so
  // they differ in the last bits.
  const auto replay = [&](SectionStats& stats) {
    linalg::Matrix data = problem.data;
    Rng rng(11);
    rpca::SolverWorkspace ws;
    rpca::Result result, twin;
    rpca::solve(data, rpca::Solver::Apg, options, ws, result);
    std::vector<double> times;
    bool same = true;
    for (int s = 0; s < steps; ++s) {
      slide_row(data, static_cast<std::size_t>(s), rng);
      twin.low_rank = result.low_rank;
      twin.sparse = result.sparse;
      timed_rep(stats, times, [&] {
        rpca::polish(data, options, /*huber_start=*/true, ws, result);
        return result.polish_iterations;
      });
      rpca::reference::polish(data, options, /*huber_start=*/true, twin);
      same = same && twin.polish_iterations == result.polish_iterations &&
             same_bits(twin.low_rank, result.low_rank) &&
             same_bits(twin.sparse, result.sparse);
    }
    finish_section(stats, times);
    return same;
  };
  row.polish_matches_reference = replay(row.workspace);
  {
    const linalg::simd::ScopedLevel scalar(linalg::simd::Level::Scalar);
    row.scalar = SectionStats{};
    row.polish_matches_reference =
        replay(*row.scalar) && row.polish_matches_reference;
  }
  row.speedup = row.workspace.median_ms > 0.0
                    ? row.reference.median_ms / row.workspace.median_ms
                    : 0.0;
  return row;
}

/// Incremental suite: a sliding-window trajectory at scale. The
/// `reference` section is the refresher's full path on every slide:
/// rpca::polish opening with the Huber fit from the last E, after a
/// bootstrap fit from E = 0. The `workspace` section is the subspace
/// tracker's row update on the identical trajectory, anchored on that
/// same bootstrap. This is the grid behind the N-scaling claim: the
/// update's per-slide cost is O(sweeps * N^2) against the fit's
/// O(sweeps * rows * N^2).
SuiteRow incremental_suite(std::size_t cluster, int slides) {
  SuiteRow row;
  row.suite = "incremental";
  row.solver = "Tracker";
  row.cluster = cluster;

  rpca::Options options;
  options.polish_iterations = 300;  // the online refresher default

  const auto problem = tp_problem(cluster, 201 + cluster);
  row.rows = problem.data.rows();
  row.cols = problem.data.cols();

  rpca::SolverWorkspace ws;
  rpca::Result bootstrap;
  bootstrap.low_rank.resize(row.rows, row.cols);
  bootstrap.sparse.resize(row.rows, row.cols);
  bootstrap.sparse.fill(0.0);
  rpca::polish(problem.data, options, /*huber_start=*/true, ws, bootstrap);

  // Full-path side: the fit from the last E on every slide.
  {
    linalg::Matrix data = problem.data;
    Rng rng(11);
    rpca::Result result = bootstrap;
    std::vector<double> times;
    for (int s = 0; s < slides; ++s) {
      slide_row(data, static_cast<std::size_t>(s), rng);
      timed_rep(row.reference, times, [&] {
        rpca::polish(data, options, /*huber_start=*/true, ws, result);
        return result.polish_iterations;
      });
    }
    finish_section(row.reference, times);
  }

  // Tracker side: identical trajectory (same slide Rng), served by the
  // row update. Anchoring is the one-off the online path pays at
  // bootstrap; the steady state is the timed update.
  {
    linalg::Matrix data = problem.data;
    Rng rng(11);
    rpca::IncrementalTracker tracker;
    tracker.anchor(data, bootstrap, 1e-3);
    std::vector<double> times;
    for (int s = 0; s < slides; ++s) {
      const std::size_t slot = static_cast<std::size_t>(s) % data.rows();
      slide_row(data, static_cast<std::size_t>(s), rng);
      timed_rep(row.workspace, times, [&] {
        tracker.update(data, slot);
        return static_cast<int>(tracker.options().update_sweeps);
      });
    }
    finish_section(row.workspace, times);
  }

  row.speedup = row.workspace.median_ms > 0.0
                    ? row.reference.median_ms / row.workspace.median_ms
                    : 0.0;
  return row;
}

void emit_section(std::ostream& out, const char* name,
                  const SectionStats& s) {
  out << "      \"" << name << "\": {\n"
      << "        \"median_ms\": " << s.median_ms << ",\n"
      << "        \"iterations\": " << s.iterations << ",\n"
      << "        \"steady_state_allocs\": " << s.allocs << ",\n"
      << "        \"allocs_per_iteration\": " << s.allocs_per_iteration
      << ",\n"
      << "        \"alloc_bytes\": " << s.alloc_bytes << ",\n"
      << "        \"peak_live_bytes\": " << s.peak_live_bytes << "\n"
      << "      }";
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_rpca.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: perf_regression [--smoke] [--out <path>]\n";
      return 2;
    }
  }
  const int reps = smoke ? 3 : 11;
  const int warm_steps = smoke ? 6 : 20;

  const std::vector<std::size_t> clusters = {16, 32, 64};
  const std::vector<rpca::Solver> solvers = {
      rpca::Solver::Apg, rpca::Solver::StablePcp, rpca::Solver::StablePcpTf};

  std::vector<SuiteRow> rows;
  for (std::size_t cluster : clusters) {
    for (rpca::Solver solver : solvers) {
      rows.push_back(batch_suite(solver, cluster, reps));
      const SuiteRow& r = rows.back();
      std::cout << "batch " << r.solver << " N=" << cluster << ": ref "
                << r.reference.median_ms << " ms, ws "
                << r.workspace.median_ms << " ms, speedup " << r.speedup
                << "x, steady-state allocs " << r.workspace.allocs << "\n";
    }
  }

  // The N-scaling grid: tracker row update vs the full-path fit.
  const std::vector<std::size_t> grid = {64, 128, 256, 512};
  const int slides = smoke ? 4 : 8;
  for (std::size_t cluster : grid) {
    rows.push_back(incremental_suite(cluster, slides));
    const SuiteRow& r = rows.back();
    std::cout << "incremental N=" << cluster << ": full "
              << r.reference.median_ms << " ms (fit), update "
              << r.workspace.median_ms << " ms, speedup " << r.speedup
              << "x, steady-state allocs " << r.workspace.allocs << "\n";
  }

  rows.push_back(online_suite(reps));
  const SuiteRow online = rows.back();
  std::cout << "online APG+polish N=32: ref " << online.reference.median_ms
            << " ms, ws " << online.workspace.median_ms << " ms, speedup "
            << online.speedup << "x, steady-state allocs "
            << online.workspace.allocs << "\n";

  rows.push_back(warm_fit_suite(warm_steps));
  {
    const SuiteRow& r = rows.back();
    std::cout << "warm_fit fit+polish N=32: ref "
              << r.reference.median_ms << " ms, ws "
              << r.workspace.median_ms << " ms ("
              << linalg::simd::active_level_name() << "), "
              << r.scalar->median_ms << " ms (scalar); speedup " << r.speedup
              << "x, steady-state allocs "
              << r.workspace.allocs << ", polish vs reference twin "
              << (r.polish_matches_reference ? "bit-identical" : "DIFFERS")
              << "\n";
  }

  // The regression gate: a warm workspace solve must not touch the heap.
  int violations = 0;
  for (const SuiteRow& r : rows) {
    const std::uint64_t allocs =
        r.workspace.allocs + (r.scalar ? r.scalar->allocs : 0);
    if (allocs > 0) {
      ++violations;
      std::cerr << "ALLOC VIOLATION: " << r.suite << " " << r.solver
                << " N=" << r.cluster << " performed " << allocs
                << " steady-state allocations\n";
    }
  }

  // Bit-identity gate: the refresher's fit and polish against its twin.
  for (const SuiteRow& r : rows) {
    if (!r.polish_matches_reference) {
      ++violations;
      std::cerr << "BIT-IDENTITY VIOLATION: " << r.suite << " " << r.solver
                << " N=" << r.cluster << " polish differs from "
                << "reference::polish at the "
                << linalg::simd::active_level_name() << " or scalar level\n";
    }
  }

  // Scaling gate: at every grid N the tracker's row update must beat the
  // full-path fit it replaces on the same trajectory.
  for (const SuiteRow& r : rows) {
    if (r.suite == "incremental" && r.speedup <= 1.0) {
      ++violations;
      std::cerr << "SCALING VIOLATION: incremental N=" << r.cluster
                << " update " << r.workspace.median_ms
                << " ms does not beat the fit's " << r.reference.median_ms
                << " ms\n";
    }
  }

  // Speed gate: the online solve must not be slower than its reference.
  if (online.speedup < 1.0) {
    ++violations;
    std::cerr << "SPEED VIOLATION: online APG+polish N=32 workspace "
              << online.workspace.median_ms << " ms is slower than the "
              << "reference " << online.reference.median_ms << " ms\n";
  }

  std::ostringstream json;
  json.precision(6);
  json << "{\n"
       << "  \"schema\": \"netconst-perf-regression-v1\",\n"
       << "  \"host\": " << bench::host_json() << ",\n"
       << "  \"config\": {\"rows\": " << kRows << ", \"reps\": " << reps
       << ", \"warm_steps\": " << warm_steps
       << ", \"smoke\": " << (smoke ? "true" : "false") << "},\n"
       << "  \"alloc_violations\": " << violations << ",\n"
       << "  \"suites\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SuiteRow& r = rows[i];
    json << "    {\n"
         << "      \"suite\": \"" << r.suite << "\",\n"
         << "      \"solver\": \"" << r.solver << "\",\n"
         << "      \"cluster\": " << r.cluster << ",\n"
         << "      \"rows\": " << r.rows << ",\n"
         << "      \"cols\": " << r.cols << ",\n";
    emit_section(json, "reference", r.reference);
    json << ",\n";
    emit_section(json, "workspace", r.workspace);
    if (r.scalar) {
      json << ",\n";
      emit_section(json, "workspace_scalar", *r.scalar);
      json << ",\n      \"polish_matches_reference\": "
           << (r.polish_matches_reference ? "true" : "false");
    }
    json << ",\n      \"speedup\": " << r.speedup << "\n    }"
         << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";

  std::ofstream out(out_path);
  out << json.str();
  out.close();
  std::cout << "wrote " << out_path << " (" << rows.size() << " suites, "
            << violations << " alloc violations)\n";
  return violations == 0 ? 0 : 1;
}
