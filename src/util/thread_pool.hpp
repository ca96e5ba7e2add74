#pragma once
// Work-stealing thread pool with deterministic parallel loops.  Monte
// Carlo benches (tail latency, fault injection) and the DSE engines use
// it to spread trials across hardware threads; everything remains
// deterministic because each chunk derives its RNG from
// Rng(seed, chunk_index) -- never from thread identity or timing.
//
// Scheduling: each worker owns a deque (guarded by its own mutex).  A
// worker pops from the back of its own deque (LIFO, cache-warm) and, when
// empty, steals from the front of a sibling's deque (FIFO, oldest work
// first).  External submits are distributed round-robin.
//
// Determinism contract (relied on by src/core, src/cloud, src/reliab,
// src/sensor and documented in DESIGN.md):
//   * parallel_for splits [0, n) into
//         chunks = clamp(n / grain, 1, size() * 4)
//     contiguous chunks whose lengths differ by at most one, so every
//     chunk is non-empty and the decomposition is a pure function of
//     (n, grain, size()).  Chunk indices are stable across runs.
//   * parallel_reduce splits [0, n) into ceil(n / grain) chunks --
//     independent of the worker count -- and combines the chunk results
//     in ascending chunk-index order.  Floating-point reductions are
//     therefore bit-identical for ANY pool size (threads=1 == threads=N);
//     the grain sets the fork granularity so tiny trip counts run inline.

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace arch21 {

/// Fixed-size pool of worker threads with per-worker work-stealing deques.
class ThreadPool {
 public:
  /// `threads` == 0 selects default_threads().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Submit a task; returns immediately.  A task may be long-lived: the
  /// PDES engine (des/pdes.hpp) submits its worker-team members here,
  /// and they synchronize among themselves at their own window barrier.
  void submit(std::function<void()> task);

  /// Block until all submitted tasks have completed.
  void wait_idle();

  /// Cumulative scheduling counters.  The pool keeps plain counters
  /// instead of talking to obs::MetricsRegistry directly (obs sits above
  /// util in the layering); benches snapshot these and publish them as
  /// gauges.  All fields are maintained under the pool mutex the hot
  /// path already takes, so tracking them adds no new synchronization.
  struct Stats {
    std::uint64_t submitted = 0;      ///< tasks ever submitted
    std::uint64_t executed = 0;       ///< tasks completed
    std::uint64_t steals = 0;         ///< pops from a sibling's deque
    std::size_t max_queue_depth = 0;  ///< high-water of not-yet-taken tasks
  };
  /// Consistent snapshot of the counters (taken under the pool mutex).
  Stats stats() const;

  /// Split [0, n) into clamp(n / grain, 1, size()*4) balanced chunks and
  /// run body(begin, end, chunk_index) on the pool; blocks until done.
  /// Chunk indices are stable across runs for RNG derivation.  The first
  /// exception thrown by any chunk is rethrown on the calling thread.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t, std::size_t,
                                             std::size_t)>& body,
                    std::size_t grain = 1);

  /// Number of chunks parallel_reduce uses for a given (n, grain) --
  /// ceil(n / grain), never a function of the pool size.
  static std::size_t reduce_chunks(std::size_t n, std::size_t grain) noexcept {
    if (grain == 0) grain = 1;
    return n == 0 ? 0 : (n + grain - 1) / grain;
  }

  /// Deterministic ordered map-reduce over [0, n).
  ///
  /// `map(begin, end, chunk_index) -> T` evaluates one contiguous chunk;
  /// `combine(acc, chunk_result) -> T` folds results in ascending
  /// chunk-index order, starting from `identity`.  Because the chunk
  /// decomposition depends only on (n, grain) and the fold order is
  /// fixed, the result is bit-identical for any pool size.  A single
  /// chunk (n <= grain) runs inline on the calling thread, so tiny trip
  /// counts pay no fork overhead.
  template <typename T, typename Map, typename Combine>
  T parallel_reduce(std::size_t n, T identity, std::size_t grain, Map&& map,
                    Combine&& combine) {
    const std::size_t chunks = reduce_chunks(n, grain);
    if (chunks == 0) return identity;
    if (grain == 0) grain = 1;
    auto bounds = [&](std::size_t c) {
      const std::size_t begin = c * grain;
      const std::size_t end = std::min(begin + grain, n);
      return std::pair{begin, end};
    };
    if (chunks == 1 || size() == 1) {
      // Same chunking and fold order as the parallel path, run inline.
      T acc = std::move(identity);
      for (std::size_t c = 0; c < chunks; ++c) {
        const auto [b, e] = bounds(c);
        acc = combine(std::move(acc), map(b, e, c));
      }
      return acc;
    }
    std::vector<T> results(chunks, identity);
    std::mutex done_mu;
    std::condition_variable done_cv;
    std::size_t remaining = chunks;
    std::exception_ptr error;
    for (std::size_t c = 0; c < chunks; ++c) {
      const auto [b, e] = bounds(c);
      submit([&, b, e, c] {
        try {
          results[c] = map(b, e, c);
        } catch (...) {
          std::lock_guard lk(done_mu);
          if (!error) error = std::current_exception();
        }
        std::lock_guard lk(done_mu);
        if (--remaining == 0) done_cv.notify_all();
      });
    }
    {
      std::unique_lock lk(done_mu);
      done_cv.wait(lk, [&] { return remaining == 0; });
      if (error) std::rethrow_exception(error);
    }
    T acc = std::move(identity);
    for (std::size_t c = 0; c < chunks; ++c) {
      acc = combine(std::move(acc), std::move(results[c]));
    }
    return acc;
  }

  /// Worker count used by default-constructed pools and by global():
  /// the ARCH21_THREADS environment variable if set to a positive
  /// integer, otherwise std::thread::hardware_concurrency() (min 1).
  static std::size_t default_threads();

  /// Shared process-wide pool (lazily created with default_threads()).
  /// Engines take it when the caller passes no pool of their own.
  static ThreadPool& global();

 private:
  struct WorkDeque {
    std::mutex mu;
    std::deque<std::function<void()>> q;
  };

  void worker_loop(std::size_t id);
  bool try_pop(std::size_t id, std::function<void()>& out);

  std::vector<std::unique_ptr<WorkDeque>> deques_;
  std::vector<std::thread> workers_;
  // guards queued_/in_flight_/stop_/next_deque_/stats_ + sleeping
  mutable std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::size_t queued_ = 0;     // tasks not yet taken by a worker
  std::size_t in_flight_ = 0;  // tasks submitted but not yet finished
  std::size_t next_deque_ = 0;
  bool stop_ = false;
  Stats stats_;
};

}  // namespace arch21
