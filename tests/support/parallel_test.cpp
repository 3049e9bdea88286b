#include "support/parallel_for.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "support/thread_pool.hpp"

namespace netconst {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&] {
      counter.fetch_add(1);
      done.fetch_add(1);
    });
  }
  while (done.load() < 100) std::this_thread::yield();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.thread_count(), 1u);
}

TEST(ThreadPool, GlobalIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
}

TEST(ThreadPool, TaskStoresSmallCallablesInlineAndLargeOnHeap) {
  // Small capture: fits the 48-byte inline buffer; the shared_ptr's
  // use-count tells us the callable was moved, not copied, and is
  // destroyed when the Task dies.
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    Task small([token = std::move(token)] { (void)*token; });
    EXPECT_TRUE(static_cast<bool>(small));
    EXPECT_EQ(watch.use_count(), 1);
    Task moved(std::move(small));
    EXPECT_FALSE(static_cast<bool>(small));
    EXPECT_EQ(watch.use_count(), 1);
    moved();
  }
  EXPECT_TRUE(watch.expired());

  // Large capture: spills to the heap but behaves identically.
  struct Big {
    double payload[16];
  };
  static_assert(sizeof(Big) > Task::kInlineSize);
  int sum = 0;
  Task large([big = Big{{1, 2, 3}}, &sum] {
    sum = static_cast<int>(big.payload[0] + big.payload[1] +
                           big.payload[2]);
  });
  Task assigned;
  assigned = std::move(large);
  assigned();
  EXPECT_EQ(sum, 6);
}

TEST(ThreadPool, ConfiguredThreadCountParsesEnvironment) {
  const char* saved = std::getenv("NETCONST_THREADS");
  const std::string restore = saved == nullptr ? "" : saved;

  ::setenv("NETCONST_THREADS", "3", 1);
  EXPECT_EQ(ThreadPool::configured_thread_count(), 3u);

  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  // Malformed or out-of-range values fall back to the hardware.
  for (const char* bad : {"0", "-2", "abc", "4x", "", "5000"}) {
    ::setenv("NETCONST_THREADS", bad, 1);
    EXPECT_EQ(ThreadPool::configured_thread_count(), hw) << bad;
  }
  ::unsetenv("NETCONST_THREADS");
  EXPECT_EQ(ThreadPool::configured_thread_count(), hw);

  if (saved != nullptr) ::setenv("NETCONST_THREADS", restore.c_str(), 1);
}

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for(0, n, [&](std::size_t i) { visits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  parallel_for(5, 5, [&](std::size_t) { called = true; });
  parallel_for(7, 3, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SmallRangeRunsSerially) {
  // Below the grain, the body runs on the calling thread.
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(8);
  parallel_for(
      0, 8, [&](std::size_t i) { ids[i] = std::this_thread::get_id(); },
      /*grain=*/64);
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(ParallelFor, SumMatchesSerial) {
  const std::size_t n = 100000;
  std::vector<double> data(n);
  std::iota(data.begin(), data.end(), 0.0);
  std::atomic<long long> sum{0};
  parallel_for(0, n, [&](std::size_t i) {
    sum.fetch_add(static_cast<long long>(data[i]));
  });
  EXPECT_EQ(sum.load(),
            static_cast<long long>(n) * static_cast<long long>(n - 1) / 2);
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(
          0, 10000,
          [](std::size_t i) {
            if (i == 5000) throw std::runtime_error("boom");
          },
          /*grain=*/1),
      std::runtime_error);
}

TEST(ParallelForChunked, ChunksCoverRangeWithoutOverlap) {
  const std::size_t n = 5000;
  std::vector<std::atomic<int>> visits(n);
  parallel_for_chunked(
      0, n,
      [&](std::size_t lo, std::size_t hi) {
        ASSERT_LT(lo, hi);
        for (std::size_t i = lo; i < hi; ++i) visits[i].fetch_add(1);
      },
      /*grain=*/16);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
}

TEST(ParallelForChunked, ZeroGrainIsTreatedAsOne) {
  std::atomic<int> count{0};
  parallel_for_chunked(
      0, 100, [&](std::size_t lo, std::size_t hi) {
        count.fetch_add(static_cast<int>(hi - lo));
      },
      /*grain=*/0);
  EXPECT_EQ(count.load(), 100);
}

// An elementwise kernel over a 10 x 1024 window with an 8192-element
// grain used to fork into 8192 + 2048; waking a worker for the
// remainder cost more than it saved. Anything under two grains must be
// one body call on the calling thread, and two grains may fork.
TEST(ParallelForChunked, RangeUnderTwoGrainsIsOneInlineCall) {
  const auto caller = std::this_thread::get_id();
  for (const std::size_t n : {std::size_t{1}, std::size_t{8192},
                              std::size_t{10240}, std::size_t{16383}}) {
    std::vector<std::pair<std::size_t, std::size_t>> calls;
    std::thread::id ran_on;
    parallel_for_chunked(
        0, n,
        [&](std::size_t lo, std::size_t hi) {
          calls.emplace_back(lo, hi);
          ran_on = std::this_thread::get_id();
        },
        /*grain=*/8192);
    ASSERT_EQ(calls.size(), 1u) << "n=" << n;
    EXPECT_EQ(calls[0].first, 0u);
    EXPECT_EQ(calls[0].second, n);
    EXPECT_EQ(ran_on, caller);
  }
  std::atomic<int> chunks{0};
  parallel_for_chunked(
      0, 16384,
      [&](std::size_t, std::size_t) { chunks.fetch_add(1); },
      /*grain=*/8192);
  EXPECT_EQ(chunks.load(), 2);
}

TEST(RunChunked, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(2);
  bool called = false;
  const auto body = [&](std::size_t, std::size_t) { called = true; };
  pool.run_chunked(5, 5, 8, body);
  pool.run_chunked(9, 3, 8, body);  // inverted range is empty too
  EXPECT_FALSE(called);
}

TEST(RunChunked, GrainLargerThanRangeIsOneChunk) {
  ThreadPool pool(2);
  std::atomic<int> chunks{0};
  std::atomic<std::size_t> covered{0};
  pool.run_chunked(10, 17, 1000, [&](std::size_t lo, std::size_t hi) {
    chunks.fetch_add(1);
    covered.fetch_add(hi - lo);
  });
  EXPECT_EQ(chunks.load(), 1);
  EXPECT_EQ(covered.load(), 7u);
}

TEST(RunChunked, PropagatesExceptionFromWorkerChunk) {
  // Grain 1 over a wide range with several workers: some failing chunk
  // almost certainly runs on a worker, and the error must still land on
  // the caller. Throw from every chunk so the property holds regardless
  // of which thread claims what.
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_chunked(0, 1000, 1,
                                [&](std::size_t, std::size_t) {
                                  throw std::runtime_error("worker boom");
                                }),
               std::runtime_error);
}

TEST(RunChunked, PropagatesExceptionFromCallersOwnChunk) {
  // With zero workers the caller executes every chunk itself; the
  // exception takes the calling-thread path through the region.
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  try {
    pool.run_chunked(0, 4, 1, [&](std::size_t lo, std::size_t) {
      if (lo == 2 && std::this_thread::get_id() == caller) {
        throw std::logic_error("caller boom");
      }
    });
    // If a worker happened to claim chunk 2 first, nothing throws —
    // rerun deterministically by keeping the worker out of the way.
  } catch (const std::logic_error&) {
    SUCCEED();
    return;
  }
  // Force the caller-path: a single-threaded pool whose worker is held
  // busy, so the region runs entirely on the calling thread.
  std::atomic<bool> release{false};
  std::atomic<bool> started{false};
  pool.submit([&] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();
  EXPECT_THROW(pool.run_chunked(0, 4, 1,
                                [&](std::size_t lo, std::size_t) {
                                  if (lo == 2) {
                                    throw std::logic_error("caller boom");
                                  }
                                }),
               std::logic_error);
  release.store(true);
}

TEST(ThreadPool, WorkersSurviveLosingRegionClaimRaces) {
  // Every tiny region is a kill window: the caller claims the single
  // chunk lock-free, so a worker woken by region_work_available() can
  // find the region already drained when it re-checks under the lock.
  // A worker that loses this race must go back to waiting, not exit —
  // otherwise the pool silently shrinks and queued tasks starve.
  constexpr std::size_t kWorkers = 4;
  ThreadPool pool(kWorkers);
  for (int repeat = 0; repeat < 2000; ++repeat) {
    pool.run_chunked(0, 1, 1, [](std::size_t, std::size_t) {});
  }
  // Prove all workers are still alive: a barrier only they can fill.
  // Each submitted task blocks until every worker has checked in, so
  // fewer than kWorkers surviving threads can never reach the target.
  std::atomic<std::size_t> arrived{0};
  std::atomic<bool> release{false};
  for (std::size_t i = 0; i < kWorkers; ++i) {
    pool.submit([&] {
      arrived.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (arrived.load() < kWorkers &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(arrived.load(), kWorkers);
  release.store(true);
}

TEST(RunChunked, NestedRegionsRunToCompletion) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.run_chunked(0, 8, 1, [&](std::size_t, std::size_t) {
    pool.run_chunked(0, 64, 4, [&](std::size_t lo, std::size_t hi) {
      inner_total.fetch_add(static_cast<int>(hi - lo));
    });
  });
  EXPECT_EQ(inner_total.load(), 8 * 64);
}

TEST(RunChunked, ConcurrentRegionsFromManyThreadsStayIsolated) {
  // Each external thread opens its own region over its own slice of a
  // shared array; regions overlap in time on one pool. Every element
  // must be written exactly once — by its own region's body.
  ThreadPool pool(4);
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 4096;
  std::vector<int> data(kThreads * kPerThread, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t base = t * kPerThread;
      for (int repeat = 0; repeat < 8; ++repeat) {
        pool.run_chunked(0, kPerThread, 64,
                         [&](std::size_t lo, std::size_t hi) {
                           for (std::size_t i = lo; i < hi; ++i) {
                             data[base + i] += 1;
                           }
                         });
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_EQ(data[i], 8) << "index " << i;
  }
}

TEST(RunChunked, MoreConcurrentRegionsThanSlotsDegradeGracefully) {
  // Saturate every region slot; the overflow regions execute inline on
  // their calling threads and still produce correct results.
  ThreadPool pool(2);
  constexpr std::size_t kThreads = ThreadPool::kMaxRegions + 4;
  std::vector<std::atomic<std::size_t>> sums(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      pool.run_chunked(0, 100, 3, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          sums[t].fetch_add(i);
        }
      });
    });
  }
  for (auto& thread : threads) thread.join();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(sums[t].load(), 99u * 100u / 2u);
  }
}

}  // namespace
}  // namespace netconst
