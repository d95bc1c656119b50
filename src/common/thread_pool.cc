#include "common/thread_pool.h"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <memory>

namespace zonestream::common {

namespace {

// Set while this thread executes a ParallelFor block; nested calls run
// serially inline instead of re-entering the pool.
thread_local bool in_parallel_region = false;

// Completion tracking shared by the blocks of one ParallelFor call.
struct LoopState {
  std::mutex mutex;
  std::condition_variable done;
  int pending = 0;
  std::exception_ptr error;

  void FinishBlock(std::exception_ptr block_error) {
    std::lock_guard<std::mutex> lock(mutex);
    if (block_error != nullptr && error == nullptr) error = block_error;
    if (--pending == 0) done.notify_all();
  }
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) num_threads = DefaultThreads();
  workers_.reserve(num_threads - 1);
  for (int i = 0; i < num_threads - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock,
                           [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t count,
                             const std::function<void(int64_t)>& body) {
  ParallelForBlocks(count, [&body](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) body(i);
  });
}

void ThreadPool::ParallelForBlocks(
    int64_t count, const std::function<void(int64_t, int64_t)>& body) {
  if (count <= 0) return;
  const int64_t threads = num_threads();
  if (threads == 1 || count == 1 || in_parallel_region) {
    const bool was_nested = in_parallel_region;
    in_parallel_region = true;
    try {
      body(0, count);
    } catch (...) {
      in_parallel_region = was_nested;
      throw;
    }
    in_parallel_region = was_nested;
    return;
  }

  // Static partition: block b covers [b*chunk, min((b+1)*chunk, count)).
  const int64_t blocks = std::min<int64_t>(threads, count);
  const int64_t chunk = (count + blocks - 1) / blocks;
  auto state = std::make_shared<LoopState>();
  state->pending = static_cast<int>(blocks);
  // Exception-safe block wrapper; the enclosing ParallelFor call outlives
  // every queued task (it waits on `state`), so capturing by reference
  // from the queued lambdas below is safe.
  auto run_block = [&body](int64_t begin, int64_t end, LoopState* loop) {
    std::exception_ptr error;
    const bool was_nested = in_parallel_region;
    in_parallel_region = true;
    try {
      body(begin, end);
    } catch (...) {
      error = std::current_exception();
    }
    in_parallel_region = was_nested;
    loop->FinishBlock(error);
  };
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (int64_t b = 1; b < blocks; ++b) {
      const int64_t begin = b * chunk;
      const int64_t end = std::min(begin + chunk, count);
      queue_.push_back([&run_block, begin, end, state] {
        run_block(begin, end, state.get());
      });
    }
  }
  work_available_.notify_all();

  // The caller runs block 0 itself, then waits for the workers.
  run_block(0, std::min(chunk, count), state.get());
  std::unique_lock<std::mutex> lock(state->mutex);
  state->done.wait(lock, [&state] { return state->pending == 0; });
  if (state->error != nullptr) std::rethrow_exception(state->error);
}

int ThreadPool::DefaultThreads() {
  if (const char* env = std::getenv("ZONESTREAM_THREADS")) {
    const int requested = std::atoi(env);
    if (requested > 0) return requested;
  }
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? static_cast<int>(hardware) : 1;
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(DefaultThreads());
  return *pool;
}

void ParallelFor(int64_t count, const std::function<void(int64_t)>& body,
                 ThreadPool* pool) {
  (pool != nullptr ? *pool : ThreadPool::Global()).ParallelFor(count, body);
}

void ParallelForBlocks(int64_t count,
                       const std::function<void(int64_t, int64_t)>& body,
                       ThreadPool* pool) {
  (pool != nullptr ? *pool : ThreadPool::Global())
      .ParallelForBlocks(count, body);
}

}  // namespace zonestream::common
