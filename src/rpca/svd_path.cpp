#include "rpca/svd_path.hpp"

#include <algorithm>

#include "linalg/randomized_svd.hpp"

namespace netconst::rpca {
namespace {

// The sketch only pays off where the exact path would hit the
// allocating general SVD: wide-enough inputs the Gram fast path cannot
// serve.
bool randomized_eligible(const linalg::Matrix& a, const Options& options) {
  const RandomizedSvdPolicy& policy = options.randomized;
  if (!policy.enabled) return false;
  if (a.rows() > a.cols()) return false;
  return !linalg::gram_fast_path_applies(a, options.svd);
}

linalg::RandomizedSvdOptions sketch_options(
    const RandomizedSvdPolicy& policy) {
  linalg::RandomizedSvdOptions opt;
  opt.oversampling = policy.oversampling;
  opt.power_iterations = policy.power_iterations;
  return opt;
}

// Clamp the adaptive target and seed the workspace stream on first use.
std::size_t prepare_target(const linalg::Matrix& a,
                           const RandomizedSvdPolicy& policy,
                           SolverWorkspace& ws) {
  RandomizedSvtState& state = ws.randomized;
  if (!state.seeded) {
    state.rng.reseed(policy.seed);
    state.seeded = true;
  }
  const std::size_t cap =
      std::min(std::max<std::size_t>(policy.max_rank, 1), a.rows());
  const std::size_t start =
      state.next_rank > 0 ? state.next_rank : policy.min_rank;
  return std::clamp<std::size_t>(start, 1, cap);
}

}  // namespace

linalg::SvtInfo svt_step(const linalg::Matrix& a, double tau,
                         const Options& options, SolverWorkspace& ws,
                         linalg::Matrix& out) {
  if (randomized_eligible(a, options)) {
    const RandomizedSvdPolicy& policy = options.randomized;
    RandomizedSvtState& state = ws.randomized;
    const std::size_t cap =
        std::min(std::max<std::size_t>(policy.max_rank, 1), a.rows());
    std::size_t target = prepare_target(a, policy, ws);
    const linalg::RandomizedSvdOptions opt = sketch_options(policy);

    ++ws.stats.randomized_attempts;
    linalg::RandomizedSvdInfo info = linalg::randomized_svt_into(
        a, tau, target, state.rng, opt, policy.tau_safety * tau,
        policy.error_budget_rel, state.scratch, out);
    if (!info.accepted && target < cap && info.sketch < a.rows()) {
      // One in-call growth: double the rank budget before giving up on
      // the sketch for this step.
      target = std::min(cap, std::max(target * 2, target + 4));
      ++ws.stats.randomized_retries;
      ++ws.stats.randomized_attempts;
      info = linalg::randomized_svt_into(
          a, tau, target, state.rng, opt, policy.tau_safety * tau,
          policy.error_budget_rel, state.scratch, out);
    }
    if (info.accepted) {
      ++ws.stats.randomized_accepts;
      state.next_rank = std::clamp<std::size_t>(
          std::max(info.rank + 1, policy.min_rank), 1, cap);
      linalg::SvtInfo result;
      result.rank = info.rank;
      result.top_singular_value = info.top_singular_value;
      result.used_scratch = true;
      return result;
    }
    ++ws.stats.randomized_fallbacks;
    // Remember the reject: the next step starts from the grown target
    // rather than re-learning it.
    state.next_rank = target;
  }
  return linalg::singular_value_threshold_into(a, tau, options.svd, ws.svt,
                                               out);
}

void low_rank_step(const linalg::Matrix& a, std::size_t k,
                   const Options& options, SolverWorkspace& ws,
                   linalg::Matrix& out) {
  if (k >= 1 && randomized_eligible(a, options)) {
    const RandomizedSvdPolicy& policy = options.randomized;
    RandomizedSvtState& state = ws.randomized;
    prepare_target(a, policy, ws);
    ++ws.stats.randomized_attempts;
    const linalg::RandomizedSvdInfo info = linalg::randomized_low_rank_into(
        a, k, state.rng, sketch_options(policy), 0.0,
        policy.error_budget_rel, state.scratch, out);
    if (info.accepted) {
      ++ws.stats.randomized_accepts;
      return;
    }
    ++ws.stats.randomized_fallbacks;
  }
  linalg::low_rank_approximation_into(a, k, options.svd, ws.svt, out);
}

}  // namespace netconst::rpca
