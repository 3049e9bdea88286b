// Shared helpers for the figure-reproduction harnesses.
#pragma once

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hpp"
#include "linalg/simd.hpp"
#include "support/statistics.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

// Set per target by bench/CMakeLists.txt.
#ifndef NETCONST_BUILD_TYPE
#define NETCONST_BUILD_TYPE "unknown"
#endif
#ifndef NETCONST_COMPILER
#define NETCONST_COMPILER "unknown"
#endif
#ifndef NETCONST_SOURCE_DIR
#define NETCONST_SOURCE_DIR "."
#endif

namespace netconst::bench {

/// HEAD's sha with -dirty for a modified tree, as bench/e2e/run.py
/// records it, of the source tree the binary was built from (not of the
/// working directory, so a run started anywhere records its own tree);
/// "unknown" when that tree is not a git checkout.
inline std::string git_sha() {
  // Single-quoted for the shell; each ' in the path becomes '\''.
  std::string dir = "'";
  for (const char c : std::string(NETCONST_SOURCE_DIR)) {
    dir += c == '\'' ? std::string("'\\''") : std::string(1, c);
  }
  dir += "'";
  const std::string command =
      "git -C " + dir + " describe --always --dirty --abbrev=40 2>/dev/null";
  std::string sha;
  if (FILE* pipe = popen(command.c_str(), "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) sha += buf;
    pclose(pipe);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == ' ')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

/// The "host" object every BENCH_*.json opens with: git sha, build
/// type, compiler, hardware_concurrency, pool threads and the active
/// SIMD level.
inline std::string host_json() {
  std::ostringstream out;
  out << "{\"git_sha\": \"" << git_sha() << "\", \"build_type\": \""
      << NETCONST_BUILD_TYPE << "\", \"compiler\": \"" << NETCONST_COMPILER
      << "\", \"hardware_concurrency\": "
      << std::thread::hardware_concurrency()
      << ", \"pool_threads\": " << ThreadPool::global().thread_count()
      << ", \"simd\": \"" << linalg::simd::active_level_name() << "\"}";
  return out.str();
}

/// Print an empirical CDF as a two-column table (the paper's CDF plots).
inline void print_cdf(const std::string& title,
                      const std::vector<double>& samples,
                      std::size_t points = 12) {
  print_banner(std::cout, title);
  ConsoleTable table({"elapsed_s", "P(X<=x)"});
  for (const auto& point : empirical_cdf(samples, points)) {
    table.add_row({ConsoleTable::cell(point.value, 4),
                   ConsoleTable::cell(point.probability, 3)});
  }
  table.print(std::cout);
}

/// Print per-strategy means normalized to a reference strategy
/// (the paper's "normalized to the average of Baseline" bars).
inline void print_normalized(const std::string& title,
                             const core::CampaignResult& result,
                             core::Strategy reference) {
  print_banner(std::cout, title);
  ConsoleTable table(
      {"strategy", "mean_s", "normalized", "improvement_vs_ref"});
  for (const auto& [strategy, samples] : result.times) {
    table.add_row(
        {core::strategy_name(strategy),
         ConsoleTable::cell(mean(samples), 4),
         ConsoleTable::cell(result.normalized_mean(strategy, reference), 3),
         ConsoleTable::cell_percent(
             result.improvement_over(strategy, reference))});
  }
  table.print(std::cout);
}

}  // namespace netconst::bench
