// Caching tensor-buffer allocator: size-class buffer recycling for the
// train / inference hot path.
//
// Every tensor buffer (tensor.cc AllocateTracked) flows through this
// allocator. Freed buffers are parked on per-size-class free lists instead
// of going back to the system allocator, so the next tensor of the same
// class is a lock-cheap pop — no malloc metadata churn, and for large
// buffers (past glibc's mmap threshold ceiling) no mmap/munmap round trip
// and no page-fault storm on first touch. This is where PyTorch-style
// frameworks get their step-loop throughput, and the same applies here:
// a training step allocates the same activation/gradient shapes every
// iteration.
//
// Size classes:
//   * small (<= 4 MiB): next power of two, minimum 64 floats. Exact-class
//     match on reuse.
//   * large (> 4 MiB): rounded up to a 1 MiB quantum (PyTorch rounds its
//     large pool to 2 MiB for the same RSS-vs-hit-rate tradeoff). Reuse
//     also requires an exact capacity match, so a recycled buffer's real
//     capacity always equals SizeClassFloats(numel) — nothing ever hands
//     out a buffer smaller than its recorded class.
//
// Threading: free lists are sharded; each thread is pinned round-robin to
// one of kShards shards so concurrent alloc/free (and frees issued from a
// different thread than the matching alloc) never serialize on one mutex.
// An allocation that misses its own shard scavenges the others before
// falling through to the system allocator. Statistics are relaxed atomics.
//
// Accounting contract (the paper's efficiency metric depends on this):
// MemoryStats keeps reporting *logical* live-tensor bytes — RecordAlloc /
// RecordFree fire per tensor buffer exactly as before, so CurrentBytes /
// PeakBytes are identical with the cache on, off, or bypassed. The
// allocator separately tracks *raw* bytes actually obtained from the
// system (live + cached) plus hit/miss/trim counters; see AllocatorStats.
//
// Configuration: FOCUS_ALLOC_CACHE_MB caps the cached (idle) bytes;
// 0 bypasses recycling entirely — every Allocate is a fresh system
// allocation and every Deallocate releases immediately, the seed behaviour.
// Default 256 MB. Tests and servers can override programmatically with
// SetCapBytes() and return idle memory with Trim().
//
// Debug poisoning: recycled memory is uninitialized garbage, not the
// zero pages a fresh mmap would hand out — and a recycled buffer looks
// *live* to AddressSanitizer, which can no longer flag stale reads into
// it. When the FOCUS_DEBUG_CHECK tier is active, recycled buffers are
// therefore filled with quiet NaNs so any kernel that reads its output
// before writing it trips the central finite-output guard.
#ifndef FOCUS_TENSOR_ALLOCATOR_H_
#define FOCUS_TENSOR_ALLOCATOR_H_

#include <cstdint>

namespace focus {

// Snapshot of allocator counters. Monotonic unless noted.
struct AllocatorStats {
  int64_t hits = 0;            // allocations served from a free list
  int64_t misses = 0;          // allocations that went to the system
  int64_t frees_cached = 0;    // deallocations parked on a free list
  int64_t frees_released = 0;  // deallocations returned to the system
  int64_t trims = 0;           // Trim() calls that released something
  int64_t trimmed_bytes = 0;   // total bytes released by Trim()
  int64_t cached_bytes = 0;    // bytes parked on free lists now (gauge)
  int64_t raw_bytes = 0;       // live + cached system bytes now (gauge)
  int64_t arena_leases = 0;        // ArenaLease checkouts ever made
  int64_t arena_leased_bytes = 0;  // bytes checked out to leases now (gauge)
};

class Allocator {
 public:
  // Process-wide allocator (leaked singleton, like ThreadPool / Tracer, so
  // buffers freed from static destructors stay safe). First use reads
  // FOCUS_ALLOC_CACHE_MB.
  static Allocator& Get();

  // Returns a buffer of at least `numel` floats (its real capacity is
  // SizeClassFloats(numel)), 64-byte aligned — one cache line, two AVX2
  // registers — so SIMD kernels never split a load across lines. Contents
  // are uninitialized garbage — callers must write before reading,
  // exactly as with Tensor::Empty.
  float* Allocate(int64_t numel);

  // Returns the buffer from Allocate(numel) — the same `numel` the caller
  // allocated with. Parks it on a free list, or releases it to the system
  // when the cache is full or bypassed.
  void Deallocate(float* ptr, int64_t numel);

  // Releases every cached buffer back to the system, and under glibc
  // returns malloc's free pages to the OS (malloc_trim), so RSS really
  // drops. Returns the number of cached bytes released. Thread-safe;
  // concurrent alloc/free simply miss.
  int64_t Trim();

  AllocatorStats Stats() const;

  // Cached-bytes cap. 0 = bypass (no recycling at all, seed behaviour).
  // Setting the cap to 0 trims first so no cached buffer outlives bypass.
  int64_t cap_bytes() const;
  void SetCapBytes(int64_t bytes);

  // Class capacity (in floats) a request of `numel` floats is rounded to.
  // Exposed for tests and for symmetric accounting in Deallocate.
  static int64_t SizeClassFloats(int64_t numel);

  Allocator(const Allocator&) = delete;
  Allocator& operator=(const Allocator&) = delete;

 private:
  Allocator() = default;
};

// RAII lease on one allocator buffer held across many uses — the backing
// store for an execution plan's memory slab (src/plan). The slab is
// allocated once at plan-compile time and sub-divided by the plan's
// lifetime solver; steady-state plan execution therefore makes zero
// Allocate/Deallocate calls. Only src/plan derives pointers into the
// leased range (enforced by scripts/focus_lint.py).
class SlabLease {
 public:
  SlabLease() = default;
  explicit SlabLease(int64_t numel)
      : data_(numel > 0 ? Allocator::Get().Allocate(numel) : nullptr),
        numel_(numel) {}
  ~SlabLease() { reset(); }

  SlabLease(SlabLease&& other) noexcept
      : data_(other.data_), numel_(other.numel_) {
    other.data_ = nullptr;
    other.numel_ = 0;
  }
  SlabLease& operator=(SlabLease&& other) noexcept {
    if (this != &other) {
      reset();
      data_ = other.data_;
      numel_ = other.numel_;
      other.data_ = nullptr;
      other.numel_ = 0;
    }
    return *this;
  }
  SlabLease(const SlabLease&) = delete;
  SlabLease& operator=(const SlabLease&) = delete;

  void reset() {
    if (data_ != nullptr) Allocator::Get().Deallocate(data_, numel_);
    data_ = nullptr;
    numel_ = 0;
  }

  float* data() const { return data_; }
  int64_t numel() const { return numel_; }

 private:
  float* data_ = nullptr;
  int64_t numel_ = 0;
};

// RAII lease on one allocator slab that a serving worker checks out per
// in-flight batch and returns wholesale (src/serve). Between checkout and
// return the owner carves the slab with a bump pointer: batch staging
// buffers and per-request scratch are AllocFloats() calls that never touch
// the allocator, so a warmed-up request path makes zero global-allocator
// calls — the checkout itself is a free-list hit and the return parks the
// slab for the next batch. Checkout/return are thread-safe (the allocator
// is); the bump pointer belongs to exactly one batch at a time, so
// AllocFloats()/Rewind() are deliberately unsynchronized. Lease traffic is
// surfaced through AllocatorStats (arena_leases / arena_leased_bytes).
class ArenaLease {
 public:
  ArenaLease() = default;
  // Checks a slab of at least `numel` floats out of the allocator.
  explicit ArenaLease(int64_t numel);
  ~ArenaLease() { reset(); }

  ArenaLease(ArenaLease&& other) noexcept
      : data_(other.data_),
        capacity_(other.capacity_),
        numel_(other.numel_),
        used_(other.used_) {
    other.data_ = nullptr;
    other.capacity_ = 0;
    other.numel_ = 0;
    other.used_ = 0;
  }
  ArenaLease& operator=(ArenaLease&& other) noexcept {
    if (this != &other) {
      reset();
      data_ = other.data_;
      capacity_ = other.capacity_;
      numel_ = other.numel_;
      used_ = other.used_;
      other.data_ = nullptr;
      other.capacity_ = 0;
      other.numel_ = 0;
      other.used_ = 0;
    }
    return *this;
  }
  ArenaLease(const ArenaLease&) = delete;
  ArenaLease& operator=(const ArenaLease&) = delete;

  // Bump-pointer sub-allocation: returns a 64-byte-aligned block of
  // `n` floats inside the leased slab. CHECK-fails on exhaustion — the
  // lease holder sizes the slab for its batch up front.
  float* AllocFloats(int64_t n);

  // Forgets every sub-allocation; the slab stays checked out. The next
  // AllocFloats() hands out the same addresses again.
  void Rewind() { used_ = 0; }

  // Returns the slab to the allocator wholesale.
  void reset();

  float* data() const { return data_; }
  // Real slab capacity in floats (the size class `numel` rounded into).
  int64_t capacity() const { return capacity_; }
  int64_t used() const { return used_; }

 private:
  float* data_ = nullptr;
  int64_t capacity_ = 0;  // class capacity backing the lease
  int64_t numel_ = 0;     // original request, for symmetric Deallocate
  int64_t used_ = 0;      // bump offset in floats
};

}  // namespace focus

#endif  // FOCUS_TENSOR_ALLOCATOR_H_
