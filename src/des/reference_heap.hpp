#pragma once
// Reference DES kernel: the pre-ladder binary-heap event queue with an
// unordered_map cancellation table, kept verbatim as (a) the oracle for
// the differential determinism test -- the ladder queue must reproduce
// this implementation's execution order bit-for-bit on any workload --
// and (b) the baseline that bench_des_queue measures the ladder queue's
// speedup against.  Not for production use: every cancellable event pays
// a hash insert + find + erase, and every event pays O(log n) on one big
// cache-hostile heap.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/inline_function.hpp"

namespace arch21::des {

class ReferenceSimulator {
 public:
  using Time = double;
  using Action = InlineFunction<56>;
  static constexpr Time kForever = 1e300;

  struct Handle {
    static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};
    std::uint64_t seq = kInvalid;
    bool valid() const noexcept { return seq != kInvalid; }
  };

  Time now() const noexcept { return now_; }

  void schedule(Time delay, Action action) {
    schedule_at(now_ + delay, std::move(action));
  }

  void schedule_at(Time t, Action action) { enqueue(t, std::move(action)); }

  /// One (time, action) entry of a schedule_n() batch (API parity with
  /// des::Simulator so the workload replays template over either kernel).
  struct TimedAction {
    Time t;
    Action action;
  };

  /// Batch scheduling oracle: the plain loop the ladder queue's amortized
  /// schedule_n() must be observationally identical to.
  void schedule_n(TimedAction* evs, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      enqueue(evs[i].t, std::move(evs[i].action));
    }
  }

  /// Deferred insertion (API parity with des::Simulator): a block of
  /// sequence numbers reserved now, consumed by schedule_reserved().
  std::uint64_t reserve_seqs(std::uint64_t n) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  void schedule_reserved(Time t, std::uint64_t seq, Action action) {
    if (t < now_ || seq >= next_seq_) {
      throw std::invalid_argument(
          "ReferenceSimulator::schedule_reserved: bad time or seq");
    }
    queue_.push_back(Event{t, seq, std::move(action)});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
  }

  /// Timestamp of the earliest pending event, or kForever when idle.
  Time next_time() const noexcept {
    return queue_.empty() ? kForever : queue_.front().t;
  }

  Handle schedule_cancellable(Time delay, Action action) {
    return schedule_cancellable_at(now_ + delay, std::move(action));
  }

  Handle schedule_cancellable_at(Time t, Action action) {
    const std::uint64_t seq = enqueue(t, std::move(action));
    cancellable_.emplace(seq, false);
    return Handle{seq};
  }

  bool cancel(Handle h) {
    if (!h.valid()) return false;
    const auto it = cancellable_.find(h.seq);
    if (it == cancellable_.end() || it->second) return false;
    it->second = true;
    return true;
  }

  std::uint64_t cancelled() const noexcept { return cancelled_; }
  std::uint64_t executed() const noexcept { return executed_; }
  bool idle() const noexcept { return queue_.empty(); }
  std::size_t pending() const noexcept { return queue_.size(); }
  void reserve(std::size_t events) { queue_.reserve(events); }

  std::uint64_t run(Time until = kForever) {
    std::uint64_t ran = 0;
    while (step(until)) ++ran;
    return ran;
  }

  bool step(Time until = kForever) {
    for (;;) {
      if (queue_.empty()) return false;
      if (queue_.front().t > until) {
        now_ = until;
        return false;
      }
      std::pop_heap(queue_.begin(), queue_.end(), Later{});
      Event ev = std::move(queue_.back());
      queue_.pop_back();
      if (!cancellable_.empty()) {
        const auto it = cancellable_.find(ev.seq);
        if (it != cancellable_.end()) {
          const bool was_cancelled = it->second;
          cancellable_.erase(it);
          if (was_cancelled) {
            ++cancelled_;
            continue;
          }
        }
      }
      now_ = ev.t;
      ++executed_;
      ev.action();
      return true;
    }
  }

 private:
  struct Event {
    Time t;
    std::uint64_t seq;
    Action action;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  std::uint64_t enqueue(Time t, Action action) {
    if (t < now_) {
      throw std::invalid_argument(
          "ReferenceSimulator::schedule_at: time in the past");
    }
    const std::uint64_t seq = next_seq_++;
    queue_.push_back(Event{t, seq, std::move(action)});
    std::push_heap(queue_.begin(), queue_.end(), Later{});
    return seq;
  }

  std::vector<Event> queue_;
  std::unordered_map<std::uint64_t, bool> cancellable_;
  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
};

}  // namespace arch21::des
