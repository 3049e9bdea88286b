// Solver convergence telemetry: per-iteration traces of an RPCA solve
// (objective, residual, rank, sparsity, step size, continuation mu) and
// a bounded per-tenant ring of per-refresh records.
//
// The solver exposes a SolverProbe hook (rpca::Options::probe): when
// null — the default — the solver pays one branch per iteration and
// computes nothing extra; when set, each iteration's diagnostics are
// computed read-only from the live iterates and handed to the probe.
// Observation never changes any iterate, so solver outputs are
// byte-identical with and without a probe attached (pinned by
// tests/obs/convergence_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

namespace netconst::obs {

/// Diagnostics of one solver iteration, computed from the live iterates.
struct IterationStats {
  int iteration = 0;       // 1-based, matches rpca::Result::iterations
  double objective = 0.0;  // penalized objective at the current mu:
                           // ||A-D-E||_F^2 / (2 mu) + lambda ||E||_1
  double residual = 0.0;   // ||A - D - E||_F / ||A||_F
  std::size_t rank = 0;    // rank of D after this iteration's SVT
  double sparsity = 0.0;   // nnz(E) / size(E) in [0, 1]
  double mu = 0.0;         // continuation value after this iteration
  double step = 0.0;       // relative iterate change (the solver's own
                           // convergence metric)
};

/// Per-iteration observer of a solve. Implementations must be cheap and
/// must not throw; they run inside the solver loop.
class SolverProbe {
 public:
  virtual ~SolverProbe() = default;
  virtual void on_iteration(const IterationStats& stats) = 0;
};

/// Probe that buffers the iteration trace, capped at `capacity`
/// samples (later iterations are dropped, the count keeps counting).
class TraceProbe final : public SolverProbe {
 public:
  explicit TraceProbe(std::size_t capacity = 512) : capacity_(capacity) {}

  void on_iteration(const IterationStats& stats) override {
    ++observed_;
    if (trace_.size() < capacity_) trace_.push_back(stats);
  }

  void reset() {
    trace_.clear();
    observed_ = 0;
  }

  const std::vector<IterationStats>& trace() const { return trace_; }
  std::uint64_t observed() const { return observed_; }

 private:
  std::size_t capacity_;
  std::uint64_t observed_ = 0;
  std::vector<IterationStats> trace_;
};

/// One layer solve of one window refresh, as retained by ConvergenceLog.
struct SolveConvergence {
  std::uint64_t refresh = 0;      // per-tenant refresh sequence, from 1
  double time = 0.0;              // tenant provider time (simulated s)
  std::string layer;              // "latency" / "bandwidth"
  bool warm = false;              // accepted result came from a warm solve
  bool cold_fallback = false;     // always false: the refresher redoes nothing
  int iterations = 0;             // of the accepted solve
  double residual = 0.0;          // pre-polish, of the accepted solve
  double solve_seconds = 0.0;
  std::vector<IterationStats> trace;  // accepted solve only, bounded
};

/// Bounded ring of per-refresh convergence records for one tenant.
/// Thread-safe; the oldest records are dropped once `capacity` is
/// exceeded (recorded() keeps counting).
class ConvergenceLog {
 public:
  explicit ConvergenceLog(std::size_t capacity = 64);

  void record(SolveConvergence record);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  std::uint64_t recorded() const;
  /// Copy of the retained records, oldest first.
  std::vector<SolveConvergence> snapshot() const;

  /// {"capacity":...,"recorded":...,"solves":[{...,"trace":[...]},...]}
  void write_json(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::uint64_t recorded_ = 0;
  std::size_t head_ = 0;  // index of the oldest retained record
  std::vector<SolveConvergence> records_;
};

}  // namespace netconst::obs
