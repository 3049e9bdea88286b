// Shared helpers of the end-to-end benchmark: clocks, percentiles, the
// trajectory digest, seed derivation and the /proc readers behind the
// memory and CPU figures.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace netconst::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Nearest-rank percentile, q in [0, 1], of an unsorted sample; 0 when
/// the sample is empty.
double percentile(std::vector<double> values, double q);

double mean(const std::vector<double>& values);

/// FNV-1a over the raw bytes of the values fed to it.
class Fnv {
 public:
  void bytes(const void* data, std::size_t size);
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  std::uint64_t digest() const { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ULL;
};

/// Independent 64-bit seed for `stream` derived from the run's seed
/// (splitmix64), so every generator of a workload follows from --seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mib();

/// Kernel thread id of the calling thread.
long current_tid();

/// Where the busy threads of a run (NETCONST_THREADS=1) are pinned: the
/// calling driver and the pool worker that is the second driver get a
/// CPU each; the HTTP event loop and the load generator share one.
/// Unpinned, noisy_refresh's p50 was bimodal, 12 or 19 us, from run to
/// run. Sharing a CPU, a request wakes the server without an
/// inter-processor interrupt, which in a VM is a wake-up of another
/// vCPU: a loopback ping-pong at 10k req/s on a 4-vCPU KVM guest took
/// 13-15 us (p50) on one CPU against 20-25 us across two.
enum Cpu : int {
  kDriverCpu = 0,
  kWorkerCpu = 1,
  kHttpCpu = 2,
  kClientCpu = kHttpCpu,
};

/// Pin thread `tid` to `cpu`; a no-op on a host with fewer CPUs.
void pin_thread(long tid, int cpu);

/// User + system CPU seconds consumed so far by every thread of this
/// process, keyed by thread id.
std::map<long, double> thread_cpu_seconds();

/// CPU seconds the threads consumed between two readings, skipping the
/// thread ids in `excluded`.
double cpu_delta(const std::map<long, double>& before,
                 const std::map<long, double>& after,
                 const std::vector<long>& excluded);

}  // namespace netconst::e2e
