#include "support/parallel_for.hpp"

#include "support/thread_pool.hpp"

namespace netconst {

void parallel_for_chunked(std::size_t begin, std::size_t end,
                          FunctionRef<void(std::size_t, std::size_t)> body,
                          std::size_t grain) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  auto& pool = ThreadPool::global();
  const std::size_t max_chunks = pool.thread_count() * 4;
  std::size_t chunk = (n + max_chunks - 1) / max_chunks;
  if (chunk < grain) chunk = grain;
  // A range that holds fewer than two whole chunks is not worth forking:
  // splitting one grain plus a remainder costs the wake-up of an idle
  // worker, which is more than the remainder's work.
  if (n < 2 * chunk) {
    body(begin, end);
    return;
  }
  pool.run_chunked(begin, end, chunk, body);
}

void parallel_for(std::size_t begin, std::size_t end,
                  FunctionRef<void(std::size_t)> body, std::size_t grain) {
  parallel_for_chunked(
      begin, end,
      [&body](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      },
      grain);
}

}  // namespace netconst
