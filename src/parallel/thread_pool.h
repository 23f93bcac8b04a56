// Shared thread pool and the ParallelFor primitive every parallel kernel
// in the tensor library runs on.
//
// Design goals, in priority order:
//
//  1. Determinism. For a given pool size the work split of a ParallelFor is
//     a pure function of (begin, end, grain): the range is cut into at most
//     num_threads() contiguous shards of near-equal size. Which OS thread
//     executes a shard is scheduling-dependent, but shards never share
//     mutable state in the kernels built on top, and every kernel is
//     structured so that the floating-point accumulation order *per output
//     element* does not depend on the shard boundaries at all. Outputs are
//     therefore bit-identical for every value of FOCUS_NUM_THREADS,
//     including 1 (see the parity tests in tests/parity_test.cc).
//  2. Zero cost when unused. `FOCUS_NUM_THREADS=1` (or a single-core
//     machine) creates no worker threads and ParallelFor invokes the body
//     once, inline, on the caller's stack — exactly the pre-pool serial
//     behavior.
//  3. Reuse. Workers are created once (lazily, on first Global() use) and
//     parked on a condition variable between parallel regions; a region
//     dispatch is two lock acquisitions plus one broadcast.
//
// The pool is sized by the FOCUS_NUM_THREADS environment variable read at
// first use; unset or invalid values fall back to
// std::thread::hardware_concurrency(). The calling thread always
// participates in the work, so a pool of size N holds N-1 worker threads.
//
// Nested parallelism is defined to serialize: a ParallelFor issued from
// inside a parallel region runs its body inline on the issuing thread.
// Exceptions thrown by a body are caught on the executing thread and the
// first one (in shard-completion order) is rethrown on the calling thread
// after all shards finish.
#ifndef FOCUS_PARALLEL_THREAD_POOL_H_
#define FOCUS_PARALLEL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace focus {

// Non-owning reference to a callable that runs only during the call it is
// passed to. Unlike std::function it never allocates, however much the
// lambda captures, so a ParallelFor on a plan replay's hot path costs no
// heap traffic. The referenced callable must outlive the call.
template <typename Sig>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F, typename = std::enable_if_t<!std::is_same_v<
                            std::decay_t<F>, FunctionRef>>>
  FunctionRef(F&& f) noexcept  // NOLINT: implicit, like std::function
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }

 private:
  void* obj_;
  R (*call_)(void*, Args...);
};

class ThreadPool {
 public:
  // Lazily constructed process-wide pool (leaked; never destroyed, so
  // kernels in static destructors and atexit flushes stay safe).
  static ThreadPool& Global();

  // Total parallelism including the calling thread (>= 1).
  int num_threads() const { return num_threads_; }

  // Runs fn(shard) for every shard in [0, nshards). The calling thread
  // participates; returns after all shards completed. Falls back to a
  // serial in-order loop when the pool has no workers, nshards <= 1, or
  // the caller is already inside a parallel region.
  void RunShards(int nshards, FunctionRef<void(int)> fn);

  // Joins the current workers and re-creates the pool with `num_threads`
  // total threads. Intended for tests and benchmarks that compare thread
  // counts in-process; must not be called from inside a parallel region,
  // and must not run concurrently with a ParallelFor/RunShards issued from
  // another thread (RunShards reads the worker list without a lock on its
  // fast path, so callers provide single-threaded control flow around
  // Resize — which every test/bench caller does).
  void Resize(int num_threads);

  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  explicit ThreadPool(int num_threads);

  void StartWorkers(int num_workers);
  void StopWorkers();
  void WorkerLoop();
  // Claims shards from the current region until none remain; records the
  // first exception instead of propagating.
  void WorkOnCurrentRegion();

  int num_threads_ = 1;
  std::vector<std::thread> workers_;

  // Serializes whole parallel regions issued from different user threads.
  std::mutex run_mu_;

  // Protects the dispatch state below.
  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  uint64_t generation_ = 0;
  int active_workers_ = 0;
  bool shutdown_ = false;
  const FunctionRef<void(int)>* fn_ = nullptr;
  int nshards_ = 0;
  std::atomic<int> next_shard_{0};
  std::exception_ptr error_;
};

// True while the calling thread is executing inside a ParallelFor body
// (worker threads and the participating caller). Nested ParallelFor calls
// check this and run serially.
bool InParallelRegion();

// Splits [begin, end) into at most ThreadPool::Global().num_threads()
// contiguous shards of at least `grain` elements each and runs
// body(shard_begin, shard_end) for every shard in parallel. When only one
// shard results (small range, single-thread pool, or nested call) the body
// is invoked once with the full range on the calling thread — byte-for-byte
// the serial code path.
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 FunctionRef<void(int64_t, int64_t)> body);

}  // namespace focus

#endif  // FOCUS_PARALLEL_THREAD_POOL_H_
