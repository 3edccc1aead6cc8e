// Deterministic data-parallel loops over a ThreadPool (see
// thread_pool.h for the determinism contract). Three shapes:
//
//  - ParallelFor: independent per-index work; indices may run in any
//    order, so each index must write only state private to it.
//  - ParallelReduce: chunk-local folds combined strictly in chunk-index
//    order. The chunk grid depends only on (size, grain), so the result
//    is bit-identical for every pool size — but for non-associative
//    operations (floating-point sums) it is a function of `grain`:
//    changing the grain changes the fold shape, so a call site that
//    feeds deterministic counters must pick its grain once and keep it.
//  - ParallelOrderedFor: concurrent work(i) with a serialized commit(i)
//    phase that runs strictly in increasing i — equivalent to the
//    sequential `for i { work(i); commit(i); }` whenever work only reads
//    shared state and all order-sensitive mutation lives in commit. This
//    is the "score in parallel, commit in order" primitive behind the
//    centrality pivot fan-out.
//
// All three treat a null pool (or a 1-thread pool) as the sequential
// path with zero synchronization overhead.

#ifndef QSC_PARALLEL_PARALLEL_FOR_H_
#define QSC_PARALLEL_PARALLEL_FOR_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "qsc/parallel/thread_pool.h"

namespace qsc {

// Chunk boundaries over [0, size) with `grain` indices per chunk (the
// last chunk may be short). A pure function of (size, grain): the worker
// count never shifts a boundary, which is what makes chunked reductions
// reproducible across pool sizes.
struct ChunkGrid {
  int64_t size = 0;
  int64_t grain = 1;

  int64_t num_chunks() const { return (size + grain - 1) / grain; }
  int64_t begin(int64_t chunk) const { return chunk * grain; }
  int64_t end(int64_t chunk) const {
    return std::min(size, (chunk + 1) * grain);
  }
};

// Calls fn(i) for every i in [0, size), `grain` consecutive indices per
// task. fn may run concurrently and out of order: it must only write
// state owned by index i.
template <typename Fn>
void ParallelFor(ThreadPool* pool, int64_t size, int64_t grain, Fn&& fn) {
  if (size <= 0) return;
  if (pool == nullptr || pool->num_threads() <= 1) {
    for (int64_t i = 0; i < size; ++i) fn(i);
    return;
  }
  const ChunkGrid grid{size, std::max<int64_t>(1, grain)};
  pool->RunChunks(grid.num_chunks(), [&](int64_t chunk) {
    const int64_t end = grid.end(chunk);
    for (int64_t i = grid.begin(chunk); i < end; ++i) fn(i);
  });
}

// Ordered chunked reduction: within each chunk, map(i) values fold left
// to right seeded by the chunk's first element; chunk partials then fold
// into `init` in increasing chunk order on the calling thread. The
// sequential path folds identically, so the result is bit-identical for
// every pool size at a fixed grain.
template <typename T, typename MapFn, typename CombineFn>
T ParallelReduce(ThreadPool* pool, int64_t size, int64_t grain, T init,
                 MapFn&& map, CombineFn&& combine) {
  if (size <= 0) return init;
  const ChunkGrid grid{size, std::max<int64_t>(1, grain)};
  const int64_t num_chunks = grid.num_chunks();

  auto chunk_partial = [&](int64_t chunk) {
    T acc = map(grid.begin(chunk));
    const int64_t end = grid.end(chunk);
    for (int64_t i = grid.begin(chunk) + 1; i < end; ++i) {
      acc = combine(acc, map(i));
    }
    return acc;
  };

  if (pool == nullptr || pool->num_threads() <= 1 || num_chunks == 1) {
    T total = init;
    for (int64_t chunk = 0; chunk < num_chunks; ++chunk) {
      total = combine(total, chunk_partial(chunk));
    }
    return total;
  }

  std::vector<T> partials(static_cast<size_t>(num_chunks));
  pool->RunChunks(num_chunks,
                  [&](int64_t chunk) { partials[chunk] = chunk_partial(chunk); });
  T total = init;
  for (int64_t chunk = 0; chunk < num_chunks; ++chunk) {
    total = combine(total, partials[chunk]);
  }
  return total;
}

// Concurrent work(i) over [0, size) with commit(i) serialized strictly in
// increasing i (each commit runs on the thread that ran its work).
// Equivalent to the sequential loop `for i { work(i); commit(i); }` when
// work(i) only reads shared state and writes i-private state.
// Deadlock-free because ThreadPool::RunChunks claims indices in
// increasing order: the owner of the lowest in-flight index never waits.
template <typename WorkFn, typename CommitFn>
void ParallelOrderedFor(ThreadPool* pool, int64_t size, WorkFn&& work,
                        CommitFn&& commit) {
  if (size <= 0) return;
  if (pool == nullptr || pool->num_threads() <= 1 || size == 1 ||
      pool->InWorker()) {
    for (int64_t i = 0; i < size; ++i) {
      work(i);
      commit(i);
    }
    return;
  }
  std::mutex mutex;
  std::condition_variable turn_cv;
  int64_t next_commit = 0;
  pool->RunChunks(size, [&](int64_t i) {
    work(i);
    {
      std::unique_lock<std::mutex> lock(mutex);
      turn_cv.wait(lock, [&] { return next_commit == i; });
      commit(i);
      ++next_commit;
    }
    turn_cv.notify_all();
  });
}

}  // namespace qsc

#endif  // QSC_PARALLEL_PARALLEL_FOR_H_
