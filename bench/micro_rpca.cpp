// Google-benchmark microbenchmarks for the RPCA solver and the SVD
// kernels at the matrix shapes the paper produces (time-step rows x N^2
// columns). Backs the paper's "RPCA runs in <1 minute at 196 instances,
// <2% of total overhead" claims.
#include <benchmark/benchmark.h>

#include "linalg/svd.hpp"
#include "rpca/rpca.hpp"
#include "rpca/validation.hpp"

namespace {

using namespace netconst;

rpca::SyntheticProblem tp_shaped_problem(std::size_t rows,
                                         std::size_t cluster,
                                         std::uint64_t seed) {
  rpca::SyntheticSpec spec;
  spec.rows = rows;
  spec.cols = cluster * cluster;
  spec.rank = 1;
  spec.sparsity = 0.05;
  Rng rng(seed);
  return rpca::make_synthetic(spec, rng);
}

void BM_SvdGramTpShape(benchmark::State& state) {
  const auto cluster = static_cast<std::size_t>(state.range(0));
  const auto problem = tp_shaped_problem(10, cluster, 1);
  linalg::SvdOptions options;
  options.method = linalg::SvdMethod::Gram;
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::svd(problem.data, options));
  }
  state.SetLabel(std::to_string(cluster) + " instances");
}
BENCHMARK(BM_SvdGramTpShape)->Arg(32)->Arg(64)->Arg(128)->Arg(196);

void BM_RpcaSolve(benchmark::State& state) {
  const auto cluster = static_cast<std::size_t>(state.range(0));
  const auto problem = tp_shaped_problem(10, cluster, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rpca::solve(problem.data));
  }
  state.SetLabel(std::to_string(cluster) + " instances");
}
BENCHMARK(BM_RpcaSolve)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
