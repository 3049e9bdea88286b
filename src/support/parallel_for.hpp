// Data-parallel loop helper over the global thread pool.
//
// parallel_for(0, n, f) calls f(i) for every i in [0, n), partitioned into
// contiguous chunks across workers. Falls back to serial execution for
// small ranges (under two grains) where fork/join overhead would dominate —
// the usual HPC guidance of "parallelize outer loops, keep grains coarse".
//
// Both entry points take the body as a non-owning FunctionRef and dispatch
// through ThreadPool::run_chunked, so a parallel loop performs no heap
// allocation — a requirement of the RPCA solvers' allocation-free hot path
// (see docs/PERFORMANCE.md). The body must only be referenced for the
// duration of the call, which both functions guarantee by blocking until
// every iteration has completed.
#pragma once

#include <cstddef>

#include "support/function_ref.hpp"

namespace netconst {

/// Invoke body(i) for i in [begin, end). Blocks until all iterations
/// complete. Exceptions thrown by `body` are rethrown on the caller
/// (first one wins). `grain` is the minimum chunk size per task.
void parallel_for(std::size_t begin, std::size_t end,
                  FunctionRef<void(std::size_t)> body,
                  std::size_t grain = 64);

/// Chunked variant: body(chunk_begin, chunk_end) per contiguous chunk,
/// which avoids per-index indirect-call overhead in tight kernels. A
/// range shorter than two chunks is one inline body(begin, end) call.
void parallel_for_chunked(std::size_t begin, std::size_t end,
                          FunctionRef<void(std::size_t, std::size_t)> body,
                          std::size_t grain = 64);

}  // namespace netconst
