// A campaign is a function of its inputs: its clock advances by the
// modelled solve time (kModelledSolveSeconds), never by the measured
// one, so every sample, count and cost it reports — all but the
// measured rpca_solve_seconds — is the same bit for bit from run to run
// and at any pool size. The pool size is fixed per process
// (NETCONST_THREADS, read once), so the cross-size check runs this
// binary's in-process test in two child processes, at 1 and 4 threads.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cloud/synthetic.hpp"
#include "core/experiment.hpp"

namespace netconst::core {
namespace {

constexpr const char* kLinePrefix = "campaign fingerprint: ";

/// One short collective campaign on a dynamic N = 32 cloud, with a
/// maintenance threshold low enough that Algorithm 1 recalibrates (each
/// recalibration advances the clock by a solve) and a window wide enough
/// (10 x 32^2) that the solver's kernels split across the pool.
CampaignResult short_campaign() {
  cloud::SyntheticCloudConfig config;
  config.cluster_size = 32;
  config.datacenter_racks = 4;
  config.mean_quiet_duration = 1500.0;
  config.mean_spike_duration = 600.0;
  config.seed = 2024;
  cloud::SyntheticCloud provider(config);
  CampaignOptions options;
  options.repeats = 6;
  options.interval_seconds = 600.0;
  options.calibration.time_step = 10;
  options.calibration.interval = 5.0;
  options.maintenance_threshold = 0.05;
  return run_collective_campaign(provider, options);
}

void append_bits(std::ostringstream& out, double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  out << std::hex << bits << ' ';
}

/// Every output of the campaign but the measured solve time, as the
/// bits of its doubles.
std::string fingerprint(const CampaignResult& result) {
  std::ostringstream out;
  for (const auto& [strategy, times] : result.times) {
    out << strategy_name(strategy) << ' ';
    for (const double t : times) append_bits(out, t);
  }
  append_bits(out, result.error_norm);
  append_bits(out, result.calibration_seconds);
  append_bits(out, result.maintenance_seconds);
  out << std::dec << result.recalibrations;
  return out.str();
}

TEST(CampaignDeterminism, RunTwiceIsBitIdentical) {
  const CampaignResult first = short_campaign();
  EXPECT_GT(first.recalibrations, 0u);
  EXPECT_GT(first.rpca_solve_seconds, 0.0);  // measured, still reported
  const std::string once = fingerprint(first);
  EXPECT_EQ(fingerprint(short_campaign()), once);
  // The line the cross-pool-size test reads from a child process.
  std::cout << kLinePrefix << once << "\n";
}

/// The fingerprint line RunTwiceIsBitIdentical prints when this binary
/// runs it with NETCONST_THREADS = `threads`; empty when the child
/// cannot be run or prints none.
std::string child_fingerprint(int threads) {
  std::error_code error;
  const std::filesystem::path self =
      std::filesystem::read_symlink("/proc/self/exe", error);
  if (error) return {};
  const std::string command =
      "NETCONST_THREADS=" + std::to_string(threads) + " '" + self.string() +
      "' --gtest_filter=CampaignDeterminism.RunTwiceIsBitIdentical 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return {};
  std::string output;
  char buffer[4096];
  while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) output += buffer;
  const int status = ::pclose(pipe);
  EXPECT_EQ(status, 0) << output;
  const std::size_t at = output.find(kLinePrefix);
  if (at == std::string::npos) return {};
  const std::size_t begin = at + std::strlen(kLinePrefix);
  return output.substr(begin, output.find('\n', begin) - begin);
}

TEST(CampaignDeterminism, SameAtOneAndFourPoolThreads) {
  const std::string one = child_fingerprint(1);
  const std::string four = child_fingerprint(4);
  ASSERT_FALSE(one.empty());
  EXPECT_EQ(four, one);
  EXPECT_EQ(fingerprint(short_campaign()), one);
}

}  // namespace
}  // namespace netconst::core
