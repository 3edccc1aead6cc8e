// The deterministic parallel execution layer (docs/API.md "Parallelism").
//
// qsc parallelizes by *chunked fan-out with ordered commit*: a range of
// independent work items is cut into chunks whose boundaries depend only
// on the range and the grain — never on the worker count — and any result
// that is order-sensitive (floating-point reductions, heap pushes, version
// assignment) is folded back strictly in chunk-index order on one thread.
// Everything built on these primitives is therefore **bit-identical for
// every pool size, including 1**: the thread count changes wall-clock
// time, nothing else. The Rothko split scorer, the Compressor query
// fan-outs, and qsc_bench's `--threads` plumbing all rest on this
// contract (enforced by tests/parallel_thread_pool_test.cc and the
// threads-{1,2,8} legs of tests/coloring_rothko_equivalence_test.cc).
//
// The pool itself is deliberately small: a fixed set of workers, no work
// stealing, no task futures. One job = one chunked loop; workers and the
// calling thread claim chunk indices from a shared atomic counter, and the
// call returns when every chunk has run. Multiple threads may submit jobs
// to one pool concurrently (the Compressor does this when distinct specs
// refine in parallel); a submission from *inside* a pool worker runs
// inline on that worker, so nested parallelism degrades to sequential
// execution instead of deadlocking.

#ifndef QSC_PARALLEL_THREAD_POOL_H_
#define QSC_PARALLEL_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qsc {

class ThreadPool {
 public:
  // Spawns `num_threads - 1` workers (the submitting thread always
  // participates). num_threads <= 1 creates no workers: every Run call
  // executes inline, which is the sequential fast path.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(chunk) for every chunk in [0, num_chunks), distributed over
  // the workers plus the calling thread, and blocks until all chunks have
  // completed. Chunks are claimed in increasing index order (later chunks
  // never start before earlier ones have been claimed), which the
  // ordered-commit primitives in parallel_for.h rely on. `fn` must not
  // throw (the library reports errors via Status, never exceptions).
  //
  // Reentrant calls from a worker of this pool run all chunks inline on
  // that worker, in index order.
  void RunChunks(int64_t num_chunks, const std::function<void(int64_t)>& fn);

  // True when the calling thread is a worker of this pool (i.e. a
  // RunChunks here would execute inline).
  bool InWorker() const;

 private:
  struct Job;

  void WorkerLoop();

  const int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mutex_;                 // guards jobs_ and stop_
  std::condition_variable work_cv_;  // workers wait here for jobs
  std::vector<std::shared_ptr<Job>> jobs_;  // active jobs, oldest first
  bool stop_ = false;
};

// The process-wide pool used by the CLI layer (qsc_bench
// `--threads N`). Starts at 1 thread (sequential); SetDefaultPoolThreads
// recreates it and must only be called while no work is in flight —
// i.e. from startup code, before the pool is shared.
ThreadPool* DefaultPool();
void SetDefaultPoolThreads(int num_threads);

}  // namespace qsc

#endif  // QSC_PARALLEL_THREAD_POOL_H_
