#include "common.hpp"

#include <sched.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>

namespace netconst::e2e {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto n = values.size();
  const auto rank = std::clamp<std::size_t>(
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Fnv::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t k = 0; k < size; ++k) {
    hash_ ^= p[k];
    hash_ *= 1099511628211ULL;
  }
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

long current_tid() { return static_cast<long>(::syscall(SYS_gettid)); }

void pin_thread(long tid, int cpu) {
  if (cpu >= static_cast<int>(std::thread::hardware_concurrency())) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::sched_setaffinity(static_cast<pid_t>(tid), sizeof(set), &set);
}

std::map<long, double> thread_cpu_seconds() {
  static const double tick = static_cast<double>(::sysconf(_SC_CLK_TCK));
  std::map<long, double> cpu;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    const long tid = std::stol(entry.path().filename().string());
    // schedstat's first field is on-CPU time in nanoseconds; stat's
    // utime/stime (clock ticks) is the coarse fallback.
    std::ifstream schedstat(entry.path() / "schedstat");
    double run_ns = 0.0;
    if (schedstat >> run_ns) {
      cpu[tid] = run_ns * 1e-9;
      continue;
    }
    std::ifstream stat(entry.path() / "stat");
    std::string text;
    std::getline(stat, text);
    // Fields after the parenthesized command name: state is field 3,
    // utime and stime are fields 14 and 15.
    const std::size_t close = text.rfind(')');
    if (close == std::string::npos) continue;
    std::istringstream fields(text.substr(close + 2));
    std::string skip;
    for (int field = 3; field < 14; ++field) fields >> skip;
    double utime = 0.0;
    double stime = 0.0;
    fields >> utime >> stime;
    if (!fields) continue;
    cpu[tid] = (utime + stime) / tick;
  }
  return cpu;
}

double cpu_delta(const std::map<long, double>& before,
                 const std::map<long, double>& after,
                 const std::vector<long>& excluded) {
  double total = 0.0;
  for (const auto& [tid, seconds] : after) {
    if (std::find(excluded.begin(), excluded.end(), tid) != excluded.end()) {
      continue;
    }
    const auto it = before.find(tid);
    total += seconds - (it == before.end() ? 0.0 : it->second);
  }
  return total;
}

}  // namespace netconst::e2e
