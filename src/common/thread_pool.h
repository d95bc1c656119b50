// Deterministic parallel-for execution for the evaluation pipeline.
//
// The analytic model sweeps (admission tables over tolerance grids, array
// plans over disk groups) and the Monte Carlo validation batches are all
// embarrassingly parallel, but every result in this repo must be exactly
// reproducible. ThreadPool is therefore deliberately work-stealing-free:
// ParallelFor splits [0, count) into contiguous blocks whose boundaries
// are a pure function of (count, num_threads()) — never of timing — and
// callers keep all mutable state per-index. Any computation whose
// iterations are independent is then bit-identical at every thread count,
// including fully serial execution.
#ifndef ZONESTREAM_COMMON_THREAD_POOL_H_
#define ZONESTREAM_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace zonestream::common {

// Fixed-size pool of worker threads. Thread-safe; one pool may serve
// concurrent ParallelFor calls (each call blocks until its own iterations
// finish). Nested ParallelFor calls from inside a parallel region execute
// serially inline, so composite pipelines (e.g. an array plan whose
// per-group work builds admission tables) cannot deadlock or oversubscribe.
class ThreadPool {
 public:
  // Spawns num_threads - 1 workers (the calling thread participates in
  // every ParallelFor). num_threads <= 0 selects DefaultThreads().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of threads that cooperate on a ParallelFor (workers + caller).
  int num_threads() const { return static_cast<int>(workers_.size()) + 1; }

  // Runs body(i) for every i in [0, count) and returns when all
  // iterations have finished. Iterations are statically partitioned into
  // num_threads() contiguous blocks; `body` must be safe to call
  // concurrently for distinct i. The first exception thrown by `body` (if
  // any) is rethrown on the calling thread after the loop drains.
  void ParallelFor(int64_t count, const std::function<void(int64_t)>& body);

  // Block-granular variant: body(begin, end) receives each contiguous
  // block of the same static partition ParallelFor uses, so callers can
  // hoist per-thread state (a reusable simulator, a scratch arena) out
  // of the per-index loop. Iteration results must still depend only on
  // the index, never on the block boundaries, to keep every thread count
  // bit-identical.
  void ParallelForBlocks(int64_t count,
                         const std::function<void(int64_t, int64_t)>& body);

  // std::thread::hardware_concurrency(), clamped to >= 1 and overridable
  // with the ZONESTREAM_THREADS environment variable.
  static int DefaultThreads();

  // Lazily constructed process-wide pool with DefaultThreads() threads.
  static ThreadPool& Global();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

// Convenience wrapper: runs body over [0, count) on `pool`, or on
// ThreadPool::Global() when pool is null.
void ParallelFor(int64_t count, const std::function<void(int64_t)>& body,
                 ThreadPool* pool = nullptr);

// Block-granular convenience wrapper (see ThreadPool::ParallelForBlocks).
void ParallelForBlocks(int64_t count,
                       const std::function<void(int64_t, int64_t)>& body,
                       ThreadPool* pool = nullptr);

}  // namespace zonestream::common

#endif  // ZONESTREAM_COMMON_THREAD_POOL_H_
