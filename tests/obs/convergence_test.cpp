// Solver convergence telemetry: the probe's per-iteration trace, the
// bounded ConvergenceLog ring, its JSON export — and the contract that
// observation never changes a single solver bit (probe on/off and
// tracing on/off must be byte-identical).
#include "obs/convergence.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include <gtest/gtest.h>

#include "obs/trace.hpp"
#include "rpca/rpca.hpp"
#include "rpca/validation.hpp"
#include "rpca/workspace.hpp"
#include "support/rng.hpp"

namespace netconst::obs {
namespace {

rpca::SyntheticProblem small_problem(std::uint64_t seed) {
  rpca::SyntheticSpec spec;
  spec.rows = 10;
  spec.cols = 40;
  spec.rank = 1;
  spec.sparsity = 0.05;
  spec.sparse_magnitude = 6.0;
  Rng rng(seed);
  return rpca::make_synthetic(spec, rng);
}

// Every solver runs the shared accelerated proximal-gradient loop and
// therefore honors Options::probe.
constexpr rpca::Solver kProbedSolvers[] = {
    rpca::Solver::Apg, rpca::Solver::StablePcp, rpca::Solver::StablePcpTf};

TEST(ConvergenceProbe, ObservesEveryIteration) {
  const rpca::SyntheticProblem problem = small_problem(17);
  for (const rpca::Solver solver : kProbedSolvers) {
    SCOPED_TRACE(rpca::solver_name(solver));
    TraceProbe probe;
    rpca::Options options;
    options.max_iterations = 400;
    options.probe = &probe;
    const rpca::Result result = rpca::solve(problem.data, solver, options);

    EXPECT_EQ(probe.observed(),
              static_cast<std::uint64_t>(result.iterations));
    ASSERT_EQ(probe.trace().size(),
              static_cast<std::size_t>(result.iterations));
    for (std::size_t k = 0; k < probe.trace().size(); ++k) {
      const IterationStats& stats = probe.trace()[k];
      EXPECT_EQ(stats.iteration, static_cast<int>(k) + 1);
      EXPECT_TRUE(std::isfinite(stats.objective));
      EXPECT_TRUE(std::isfinite(stats.residual));
      EXPECT_GE(stats.residual, 0.0);
      EXPECT_GE(stats.sparsity, 0.0);
      EXPECT_LE(stats.sparsity, 1.0);
      EXPECT_GT(stats.mu, 0.0);
      EXPECT_GE(stats.step, 0.0);
    }
    // APG's continuation drives mu down, never up; stable PCP holds it.
    if (solver == rpca::Solver::Apg) {
      EXPECT_LT(probe.trace().back().mu, probe.trace().front().mu);
    } else {
      EXPECT_EQ(probe.trace().back().mu, probe.trace().front().mu);
    }
    // The solve converged somewhere much better than where it started.
    EXPECT_LT(probe.trace().back().residual,
              probe.trace().front().residual);
  }
}

TEST(ConvergenceProbe, CapacityCapsTheTraceNotTheCount) {
  const rpca::SyntheticProblem problem = small_problem(18);
  TraceProbe probe(5);
  rpca::Options options;
  options.max_iterations = 400;
  options.probe = &probe;
  const rpca::Result result =
      rpca::solve(problem.data, rpca::Solver::Apg, options);
  ASSERT_GT(result.iterations, 5);
  EXPECT_EQ(probe.trace().size(), 5u);
  EXPECT_EQ(probe.observed(), static_cast<std::uint64_t>(result.iterations));

  probe.reset();
  EXPECT_TRUE(probe.trace().empty());
  EXPECT_EQ(probe.observed(), 0u);
}

TEST(ConvergenceProbe, SolverOutputByteIdenticalWithAndWithoutProbe) {
  const rpca::SyntheticProblem problem = small_problem(19);
  for (const rpca::Solver solver : kProbedSolvers) {
    SCOPED_TRACE(rpca::solver_name(solver));
    rpca::Options plain;
    plain.max_iterations = 400;
    const rpca::Result baseline = rpca::solve(problem.data, solver, plain);

    TraceProbe probe;
    rpca::Options probed;
    probed.max_iterations = 400;
    probed.probe = &probe;
    const rpca::Result observed = rpca::solve(problem.data, solver, probed);

    EXPECT_EQ(probe.observed(),
              static_cast<std::uint64_t>(observed.iterations));
    EXPECT_EQ(baseline.iterations, observed.iterations);
    EXPECT_EQ(baseline.converged, observed.converged);
    EXPECT_EQ(baseline.rank, observed.rank);
    EXPECT_EQ(baseline.low_rank.max_abs_diff(observed.low_rank), 0.0);
    EXPECT_EQ(baseline.sparse.max_abs_diff(observed.sparse), 0.0);
    EXPECT_EQ(baseline.residual, observed.residual);
    EXPECT_EQ(baseline.solver_residual, observed.solver_residual);
  }
}

TEST(ConvergenceProbe, SolverOutputByteIdenticalTracingOnAndOff) {
  const rpca::SyntheticProblem problem = small_problem(20);
  rpca::Options options;
  options.max_iterations = 400;

  FlightRecorder::instance().set_enabled(false);
  const rpca::Result quiet =
      rpca::solve(problem.data, rpca::Solver::Apg, options);

  FlightRecorder::instance().set_enabled(true);
  const rpca::Result traced =
      rpca::solve(problem.data, rpca::Solver::Apg, options);
  FlightRecorder::instance().set_enabled(false);
  FlightRecorder::instance().clear();

  EXPECT_EQ(quiet.iterations, traced.iterations);
  EXPECT_EQ(quiet.low_rank.max_abs_diff(traced.low_rank), 0.0);
  EXPECT_EQ(quiet.sparse.max_abs_diff(traced.sparse), 0.0);
  EXPECT_EQ(quiet.residual, traced.residual);
}

SolveConvergence make_record(std::uint64_t refresh, const char* layer) {
  SolveConvergence record;
  record.refresh = refresh;
  record.time = static_cast<double>(refresh) * 100.0;
  record.layer = layer;
  record.warm = refresh % 2 == 0;
  record.iterations = static_cast<int>(refresh) + 3;
  record.residual = 1e-7;
  record.solve_seconds = 0.25;
  IterationStats stats;
  stats.iteration = 1;
  stats.objective = 12.5;
  stats.residual = 0.5;
  stats.rank = 1;
  stats.sparsity = 0.05;
  stats.mu = 0.9;
  stats.step = 0.1;
  record.trace.push_back(stats);
  return record;
}

TEST(ConvergenceLogTest, BoundedRingKeepsNewestOldestFirst) {
  ConvergenceLog log(4);
  EXPECT_EQ(log.capacity(), 4u);
  EXPECT_EQ(log.size(), 0u);
  for (std::uint64_t r = 1; r <= 10; ++r) {
    log.record(make_record(r, "latency"));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.recorded(), 10u);
  const auto records = log.snapshot();
  ASSERT_EQ(records.size(), 4u);
  for (std::size_t k = 0; k < records.size(); ++k) {
    EXPECT_EQ(records[k].refresh, 7u + k);  // oldest first
  }
}

TEST(ConvergenceLogTest, JsonExportRoundTrips) {
  ConvergenceLog log(8);
  log.record(make_record(1, "latency"));
  log.record(make_record(1, "bandwidth"));
  std::ostringstream out;
  log.write_json(out);

  // Parsed by the same mini-parser the exporter tests use; here the
  // structure is simple enough to assert on the raw text as well.
  const std::string text = out.str();
  EXPECT_NE(text.find("\"capacity\":8"), std::string::npos);
  EXPECT_NE(text.find("\"recorded\":2"), std::string::npos);
  EXPECT_NE(text.find("\"layer\":\"latency\""), std::string::npos);
  EXPECT_NE(text.find("\"layer\":\"bandwidth\""), std::string::npos);
  EXPECT_NE(text.find("\"trace\":["), std::string::npos);
}

}  // namespace
}  // namespace netconst::obs
