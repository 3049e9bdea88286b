#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/statistics.hpp"

namespace netconst::core {
namespace {

bool needs_guidance(Strategy s) {
  return s == Strategy::Heuristics || s == Strategy::Rpca ||
         s == Strategy::Oracle;
}

}  // namespace

double CampaignResult::mean_time(Strategy strategy) const {
  const auto it = times.find(strategy);
  NETCONST_CHECK(it != times.end() && !it->second.empty(),
                 "no samples for the requested strategy");
  return mean(it->second);
}

double CampaignResult::normalized_mean(Strategy strategy,
                                       Strategy reference) const {
  return mean_time(strategy) / mean_time(reference);
}

double CampaignResult::improvement_over(Strategy strategy,
                                        Strategy reference) const {
  return 1.0 - normalized_mean(strategy, reference);
}

CampaignResult run_collective_campaign(cloud::NetworkProvider& provider,
                                       const CampaignOptions& options) {
  NETCONST_CHECK(!options.strategies.empty(), "no strategies to compare");
  NETCONST_CHECK(options.repeats >= 1, "need at least one repeat");
  const std::size_t n = provider.cluster_size();
  Rng rng(options.seed);
  CampaignResult result;

  // Initial calibration shared by the measurement-driven strategies.
  const cloud::SeriesResult initial =
      cloud::calibrate_series(provider, options.calibration);
  result.calibration_seconds = initial.elapsed_seconds;
  ConstantComponent component = find_constant(initial.series, options.finder);
  provider.advance(kModelledSolveSeconds);
  result.rpca_solve_seconds = component.solve_seconds;
  result.error_norm = component.error_norm;
  netmodel::PerformanceMatrix heuristic =
      heuristic_matrix(initial.series, options.heuristic);

  const TreeTimer model_timer =
      [&options](const collective::CommTree& tree,
                 const netmodel::PerformanceMatrix& oracle) {
        return collective::collective_time(tree, oracle, options.op,
                                           options.bytes);
      };
  const TreeTimer& timer = options.timer ? options.timer : model_timer;

  for (std::size_t repeat = 0; repeat < options.repeats; ++repeat) {
    const auto root = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const netmodel::PerformanceMatrix oracle = provider.oracle_snapshot();

    double rpca_expected = 0.0, rpca_real = 0.0;
    for (Strategy strategy : options.strategies) {
      PlanContext context;
      context.bytes = options.bytes;
      context.racks = options.racks;
      if (strategy == Strategy::Rpca) {
        context.guidance = &component.constant;
      } else if (strategy == Strategy::Heuristics) {
        context.guidance = &heuristic;
      } else if (strategy == Strategy::Oracle) {
        context.guidance = &oracle;
      }
      NETCONST_CHECK(!needs_guidance(strategy) || context.guidance,
                     "missing guidance for strategy");
      const collective::CommTree tree =
          plan_tree(strategy, n, root, context);
      const double elapsed = timer(tree, oracle);
      result.times[strategy].push_back(elapsed);
      if (strategy == Strategy::Rpca) {
        rpca_real = elapsed;
        rpca_expected = collective::collective_time(
            tree, component.constant, options.op, options.bytes);
      }
    }

    // Algorithm 1 lines 4-9: maintenance check on the RPCA strategy.
    if (rpca_expected > 0.0) {
      const double deviation =
          std::abs(rpca_real - rpca_expected) / rpca_expected;
      if (deviation >= options.maintenance_threshold) {
        const double before = provider.now();
        const cloud::SeriesResult redo =
            cloud::calibrate_series(provider, options.calibration);
        component = find_constant(redo.series, options.finder);
        provider.advance(kModelledSolveSeconds);
        heuristic = heuristic_matrix(redo.series, options.heuristic);
        result.error_norm = component.error_norm;
        ++result.recalibrations;
        result.maintenance_seconds += provider.now() - before;
      }
    }
    provider.advance(options.interval_seconds);
  }
  return result;
}

CampaignResult run_mapping_campaign(cloud::NetworkProvider& provider,
                                    const MappingCampaignOptions& options) {
  NETCONST_CHECK(!options.strategies.empty(), "no strategies to compare");
  NETCONST_CHECK(options.repeats >= 1, "need at least one repeat");
  const std::size_t n = provider.cluster_size();
  Rng rng(options.seed);
  CampaignResult result;

  const cloud::SeriesResult initial =
      cloud::calibrate_series(provider, options.calibration);
  result.calibration_seconds = initial.elapsed_seconds;
  ConstantComponent component = find_constant(initial.series, options.finder);
  provider.advance(kModelledSolveSeconds);
  result.rpca_solve_seconds = component.solve_seconds;
  result.error_norm = component.error_norm;
  const netmodel::PerformanceMatrix heuristic =
      heuristic_matrix(initial.series, options.heuristic);

  for (std::size_t repeat = 0; repeat < options.repeats; ++repeat) {
    const mapping::TaskGraph tasks = mapping::random_task_graph(
        n, rng, options.min_volume, options.max_volume, options.density);
    const netmodel::PerformanceMatrix oracle = provider.oracle_snapshot();
    for (Strategy strategy : options.strategies) {
      PlanContext context;
      context.racks = options.racks;
      if (strategy == Strategy::Rpca) {
        context.guidance = &component.constant;
      } else if (strategy == Strategy::Heuristics) {
        context.guidance = &heuristic;
      } else if (strategy == Strategy::Oracle) {
        context.guidance = &oracle;
      }
      const mapping::Mapping plan =
          plan_mapping(strategy, tasks, context);
      // Scored by the total communication volume over actual bandwidth —
      // the quantity placement controls. (The per-task makespan metric
      // is dominated by each task's degree and barely moves.)
      result.times[strategy].push_back(
          mapping::mapping_volume_cost(plan, tasks, oracle));
    }
    provider.advance(options.interval_seconds);
  }
  return result;
}

std::map<Strategy, AppBreakdown> run_app_campaign(
    cloud::NetworkProvider& provider,
    const apps::DistributedProfile& profile,
    const AppCampaignOptions& options) {
  NETCONST_CHECK(profile.instances == provider.cluster_size(),
                 "profile instance count must match the provider");
  NETCONST_CHECK(profile.rounds >= 1, "profile needs at least one round");
  const std::size_t n = provider.cluster_size();
  Rng rng(options.seed);
  const auto root = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));

  // Phase 1: build every strategy's guidance from ONE calibration
  // series (as the paper's replay methodology does), so that guided
  // strategies differ only in how they summarize the same measurements.
  // The calibration + (for RPCA) solve time is the "Other Overheads" of
  // Figure 9; the paper calibrates once per application execution.
  const bool any_guided =
      std::any_of(options.strategies.begin(), options.strategies.end(),
                  [](Strategy s) {
                    return s == Strategy::Heuristics || s == Strategy::Rpca;
                  });
  cloud::SeriesResult series;
  if (any_guided) {
    series = cloud::calibrate_series(provider, options.calibration);
  }

  std::map<Strategy, AppBreakdown> out;
  std::map<Strategy, collective::CommTree> trees;
  for (Strategy strategy : options.strategies) {
    AppBreakdown breakdown;
    netmodel::PerformanceMatrix guidance;
    bool have_guidance = false;
    if (strategy == Strategy::Rpca) {
      ConstantComponent component =
          find_constant(series.series, options.finder);
      provider.advance(kModelledSolveSeconds);
      guidance = component.constant;
      have_guidance = true;
      breakdown.overhead_seconds =
          series.elapsed_seconds + component.solve_seconds;
    } else if (strategy == Strategy::Heuristics) {
      guidance = heuristic_matrix(series.series, options.heuristic);
      have_guidance = true;
      breakdown.overhead_seconds = series.elapsed_seconds;
    } else if (strategy == Strategy::Oracle) {
      guidance = provider.oracle_snapshot();
      have_guidance = true;
    }
    PlanContext context;
    context.bytes = profile.bytes_per_member;
    if (have_guidance) context.guidance = &guidance;
    trees.emplace(strategy, plan_tree(strategy, n, root, context));
    out.emplace(strategy, breakdown);
  }

  // Phase 2: replay the rounds with every strategy scored against the
  // SAME network reality, so differences reflect the plans rather than
  // which interference events each run happened to hit. The shared
  // clock advances with the slowest strategy's round time.
  netmodel::PerformanceMatrix oracle = provider.oracle_snapshot();
  for (std::size_t round = 0; round < profile.rounds; ++round) {
    if (round % options.oracle_refresh_rounds == 0 && round != 0) {
      oracle = provider.oracle_snapshot();
    }
    double slowest = 0.0;
    for (Strategy strategy : options.strategies) {
      const double comm = collective::all_to_all_time(
          trees.at(strategy), oracle, profile.bytes_per_member);
      AppBreakdown& breakdown = out.at(strategy);
      breakdown.communication_seconds += comm;
      breakdown.compute_seconds += profile.compute_seconds_per_round;
      slowest = std::max(slowest,
                         comm + profile.compute_seconds_per_round);
    }
    provider.advance(slowest);
  }
  return out;
}

}  // namespace netconst::core
