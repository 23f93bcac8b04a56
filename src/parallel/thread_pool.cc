#include "parallel/thread_pool.h"

#include <algorithm>

#include "utils/env.h"

namespace focus {

namespace {

// Set for the lifetime of a worker thread and, on the calling thread, for
// the duration of its participation in a region (including the serial
// fallback), so nested ParallelFor calls degrade to inline execution
// instead of deadlocking on the dispatch state.
thread_local bool tl_in_parallel_region = false;

struct RegionGuard {
  RegionGuard() : saved(tl_in_parallel_region) {
    tl_in_parallel_region = true;
  }
  ~RegionGuard() { tl_in_parallel_region = saved; }
  bool saved;
};

int DefaultNumThreads() {
  // 0 means "auto" (hardware concurrency); explicit values must land in
  // [1, 256]. Garbage or out-of-range values warn and fall back to auto
  // instead of silently resizing the pool (see GetEnvIntInRangeOr).
  long n = GetEnvIntInRangeOr("FOCUS_NUM_THREADS", 0, 1, 256);
  if (n <= 0) {
    n = static_cast<long>(std::thread::hardware_concurrency());
  }
  return static_cast<int>(std::max(1L, std::min(n, 256L)));
}

}  // namespace

bool InParallelRegion() { return tl_in_parallel_region; }

ThreadPool& ThreadPool::Global() {
  static ThreadPool* pool = new ThreadPool(DefaultNumThreads());
  return *pool;
}

ThreadPool::ThreadPool(int num_threads) {
  num_threads_ = std::max(1, num_threads);
  StartWorkers(num_threads_ - 1);
}

ThreadPool::~ThreadPool() { StopWorkers(); }

void ThreadPool::StartWorkers(int num_workers) {
  workers_.reserve(static_cast<size_t>(num_workers));
  for (int i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

void ThreadPool::StopWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  std::lock_guard<std::mutex> lock(mu_);
  shutdown_ = false;
  // Freshly started workers begin with seen_generation = 0. Reset the
  // dispatch state so they do not mistake a stale generation_ from before
  // the stop for a newly published region (a phantom pass could otherwise
  // race with the next RunShards and double-decrement active_workers_).
  generation_ = 0;
  nshards_ = 0;
  next_shard_.store(0, std::memory_order_relaxed);
  fn_ = nullptr;
  active_workers_ = 0;
}

void ThreadPool::Resize(int num_threads) {
  std::lock_guard<std::mutex> run_lock(run_mu_);
  StopWorkers();
  num_threads_ = std::max(1, num_threads);
  StartWorkers(num_threads_ - 1);
}

void ThreadPool::WorkOnCurrentRegion() {
  RegionGuard in_region;
  try {
    for (;;) {
      const int shard = next_shard_.fetch_add(1, std::memory_order_relaxed);
      if (shard >= nshards_) break;
      (*fn_)(shard);
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::current_exception();
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_start_.wait(lock, [&] {
      return shutdown_ || generation_ != seen_generation;
    });
    if (shutdown_) return;
    seen_generation = generation_;
    lock.unlock();
    WorkOnCurrentRegion();
    lock.lock();
    if (--active_workers_ == 0) cv_done_.notify_all();
  }
}

void ThreadPool::RunShards(int nshards, FunctionRef<void(int)> fn) {
  if (nshards <= 0) return;
  if (nshards == 1 || workers_.empty() || tl_in_parallel_region) {
    RegionGuard in_region;
    for (int s = 0; s < nshards; ++s) fn(s);
    return;
  }
  std::lock_guard<std::mutex> run_lock(run_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    nshards_ = nshards;
    next_shard_.store(0, std::memory_order_relaxed);
    error_ = nullptr;
    active_workers_ = static_cast<int>(workers_.size());
    ++generation_;
  }
  cv_start_.notify_all();
  WorkOnCurrentRegion();
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return active_workers_ == 0; });
  fn_ = nullptr;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 FunctionRef<void(int64_t, int64_t)> body) {
  const int64_t range = end - begin;
  if (range <= 0) return;
  if (grain < 1) grain = 1;
  ThreadPool& pool = ThreadPool::Global();
  const int64_t max_shards =
      std::min<int64_t>(pool.num_threads(), (range + grain - 1) / grain);
  if (max_shards <= 1 || tl_in_parallel_region) {
    // Exactly the serial code path: one body call over the full range.
    RegionGuard in_region;
    body(begin, end);
    return;
  }
  // Deterministic static split: shard s covers a contiguous slice whose
  // boundaries depend only on (range, nshards); the first `rem` shards take
  // one extra element.
  const int nshards = static_cast<int>(max_shards);
  const int64_t chunk = range / nshards;
  const int64_t rem = range % nshards;
  pool.RunShards(nshards, [&](int s) {
    const int64_t b = begin + s * chunk + std::min<int64_t>(s, rem);
    const int64_t e = b + chunk + (s < rem ? 1 : 0);
    body(b, e);
  });
}

}  // namespace focus
