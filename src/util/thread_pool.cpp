#include "util/thread_pool.hpp"

#include <algorithm>
#include <cstdlib>

namespace arch21 {

std::size_t ThreadPool::default_threads() {
  if (const char* env = std::getenv("ARCH21_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<std::size_t>(v);
    }
  }
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(default_threads());
  return pool;
}

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_threads();
  deques_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    deques_.push_back(std::make_unique<WorkDeque>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lk(mu_);
    stop_ = true;
  }
  cv_task_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  std::size_t victim;
  {
    std::lock_guard lk(mu_);
    ++queued_;
    ++in_flight_;
    ++stats_.submitted;
    if (queued_ > stats_.max_queue_depth) stats_.max_queue_depth = queued_;
    victim = next_deque_++ % deques_.size();
  }
  {
    WorkDeque& d = *deques_[victim];
    std::lock_guard dk(d.mu);
    d.q.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock lk(mu_);
  cv_idle_.wait(lk, [this] { return in_flight_ == 0; });
}

ThreadPool::Stats ThreadPool::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

void ThreadPool::parallel_for(
    std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& body,
    std::size_t grain) {
  if (n == 0) return;
  grain = std::max<std::size_t>(1, grain);
  // chunks = clamp(n / grain, 1, size()*4); lengths differ by at most one,
  // so every chunk is non-empty (see header contract).
  const std::size_t chunks =
      std::clamp<std::size_t>(n / grain, 1, size() * 4);
  const std::size_t base = n / chunks;
  const std::size_t rem = n % chunks;
  std::mutex done_mu;
  std::condition_variable done_cv;
  std::size_t remaining = chunks;
  std::exception_ptr error;
  std::size_t begin = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t len = base + (c < rem ? 1 : 0);
    const std::size_t end = begin + len;
    submit([&, begin, end, c] {
      try {
        body(begin, end, c);
      } catch (...) {
        std::lock_guard lk(done_mu);
        if (!error) error = std::current_exception();
      }
      std::lock_guard lk(done_mu);
      if (--remaining == 0) done_cv.notify_all();
    });
    begin = end;
  }
  std::unique_lock lk(done_mu);
  done_cv.wait(lk, [&] { return remaining == 0; });
  if (error) std::rethrow_exception(error);
}

bool ThreadPool::try_pop(std::size_t id, std::function<void()>& out) {
  bool got = false;
  bool stolen = false;
  {
    // Own deque: pop newest (LIFO keeps caches warm).
    WorkDeque& d = *deques_[id];
    std::lock_guard dk(d.mu);
    if (!d.q.empty()) {
      out = std::move(d.q.back());
      d.q.pop_back();
      got = true;
    }
  }
  for (std::size_t off = 1; !got && off < deques_.size(); ++off) {
    // Steal oldest from a sibling (FIFO preserves rough submission order).
    WorkDeque& d = *deques_[(id + off) % deques_.size()];
    std::lock_guard dk(d.mu);
    if (!d.q.empty()) {
      out = std::move(d.q.front());
      d.q.pop_front();
      got = true;
      stolen = true;
    }
  }
  if (got) {
    std::lock_guard lk(mu_);
    --queued_;
    if (stolen) ++stats_.steals;
  }
  return got;
}

void ThreadPool::worker_loop(std::size_t id) {
  for (;;) {
    std::function<void()> task;
    if (!try_pop(id, task)) {
      std::unique_lock lk(mu_);
      cv_task_.wait(lk, [this] { return stop_ || queued_ > 0; });
      if (stop_ && queued_ == 0) return;
      continue;  // re-scan the deques
    }
    task();
    {
      std::lock_guard lk(mu_);
      --in_flight_;
      ++stats_.executed;
      if (in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace arch21
