#include "des/resource.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace arch21::des {

void QueuePolicy::validate() const {
  if (discipline == QueueDiscipline::kDeadline && !(sojourn_target > 0)) {
    throw std::invalid_argument(
        "QueuePolicy::sojourn_target must be > 0 with kDeadline");
  }
  if (!(sojourn_target >= 0)) {  // NaN-hostile
    throw std::invalid_argument("QueuePolicy::sojourn_target must be >= 0");
  }
}

void Resource::set_trace(obs::TraceBuffer* t, std::uint32_t base_tid) {
  trace_ = t;
  trace_base_tid_ = base_tid;
  if (t) {
    tr_serve_ = t->intern("serve");
    tr_wait_arg_ = t->intern("wait");
    tr_kill_arg_ = t->intern("killed");
  }
}

Resource::Resource(Simulator& sim, std::uint32_t servers)
    : Resource(sim, servers, QueuePolicy{}) {}

Resource::Resource(Simulator& sim, std::uint32_t servers, QueuePolicy queue)
    : sim_(sim), servers_(servers), queue_(queue), slots_(servers) {
  if (servers == 0) {
    throw std::invalid_argument("Resource: need at least one server");
  }
  queue_.validate();
  // A bounded ring never needs to grow past its cap: pre-size it so even
  // the first overload burst schedules allocation-free.
  if (queue_.capacity > 0) waiting_.resize(std::bit_ceil(queue_.capacity));
}

void Resource::set_speed(double speed) {
  if (!(speed > 0) || !std::isfinite(speed)) {
    throw std::invalid_argument("Resource::set_speed: speed must be finite and > 0");
  }
  speed_ = speed;
}

void Resource::set_start_gate(GateFn gate) {
  gate_ = std::move(gate);
  // A fresh (or cleared) gate starts un-stalled; pump the queue so a
  // permissive gate takes effect immediately.
  release_gate();
}

void Resource::release_gate() {
  stalled_ = false;
  // start_next() either starts one job, drops expired waiters, or
  // re-stalls -- each iteration strictly shrinks the queue or exits.
  while (!stalled_ && busy_ < servers_ && waiting_count_ > 0) {
    start_next();
  }
}

bool Resource::gate_allows(Time effective_service) {
  if (!gate_) return true;
  if (stalled_) return false;
  if (gate_(effective_service)) return true;
  stalled_ = true;
  ++gate_stalls_;
  return false;
}

bool Resource::request(Time service_time, DoneFn&& on_done) {
  if (busy_ < servers_ && gate_allows(service_time / speed_)) {
    start(sim_.now(), service_time, std::move(on_done));
    return true;
  }
  if (queue_.capacity > 0 && waiting_count_ >= queue_.capacity) {
    // The on_reject path: the job's callback is destroyed unfired and
    // the caller learns synchronously.  No accounting beyond the count
    // -- a rejected job never consumed queue space or service.
    on_done = nullptr;
    ++rejected_;
    return false;
  }
  waiting_push(service_time, std::move(on_done));
  if (waiting_count_ > queue_high_water_) queue_high_water_ = waiting_count_;
  return true;
}

void Resource::waiting_push(Time service, DoneFn&& on_done) {
  if (waiting_count_ == waiting_.size()) {
    // Grow by unrolling the ring into a fresh vector in arrival order so
    // head_ restarts at 0.  Doubling keeps the size a power of two.
    // Amortized O(1); never shrinks, so a steady queue depth stops
    // allocating after the first burst.
    std::vector<Job> grown(waiting_.empty() ? 8 : 2 * waiting_.size());
    for (std::size_t i = 0; i < waiting_count_; ++i) {
      grown[i] = std::move(waiting_at(i));
    }
    waiting_ = std::move(grown);
    waiting_head_ = 0;
  }
  Job& job = waiting_at(waiting_count_);
  job.arrival = sim_.now();
  job.service = service;
  job.on_done = std::move(on_done);
  ++waiting_count_;
}

void Resource::waiting_pop_front() noexcept {
  waiting_[waiting_head_].on_done = nullptr;
  waiting_head_ = (waiting_head_ + 1) & (waiting_.size() - 1);
  --waiting_count_;
}

void Resource::waiting_pop_back() noexcept {
  --waiting_count_;
  waiting_at(waiting_count_).on_done = nullptr;
}

void Resource::start_next() {
  while (waiting_count_ > 0) {
    const bool lifo = queue_.discipline == QueueDiscipline::kAdaptiveLifo &&
                      waiting_count_ > queue_.lifo_threshold;
    if (queue_.discipline == QueueDiscipline::kDeadline) {
      // kDeadline dequeues in FIFO order (it is a distinct discipline, so
      // the lifo flag above is never set with it).
      const Job& head = waiting_[waiting_head_];
      if (sim_.now() - head.arrival > queue_.sojourn_target) {
        // Expired at dequeue: the client gave up on this job before a
        // server could take it; serving it would only add queueing delay
        // for the jobs behind it.  Its on_done is destroyed unfired.
        waiting_pop_front();
        ++expired_;
        continue;
      }
    }
    // Gate check happens *before* the pop so a refused job keeps its
    // place in line -- release_gate() resumes exactly where we stopped.
    Job& cand =
        lifo ? waiting_at(waiting_count_ - 1) : waiting_[waiting_head_];
    if (!gate_allows(cand.service / speed_)) return;
    // start() never touches the ring, so `cand` stays valid until the
    // pop releases its (now empty) slot.
    start(cand.arrival, cand.service, std::move(cand.on_done));
    if (lifo) {
      waiting_pop_back();
    } else {
      waiting_pop_front();
    }
    return;
  }
}

void Resource::start(Time arrival, Time service, DoneFn&& on_done) {
  std::uint32_t slot = 0;
  while (slots_[slot].active) ++slot;  // busy_ < servers_ guarantees a hit
  Slot& s = slots_[slot];
  s.active = true;
  s.epoch = next_epoch_++;
  s.start = sim_.now();
  s.wait = sim_.now() - arrival;
  // Effective service reflects the p-state at *start* time; the raw
  // request is stored in the queue so a later speed change re-prices
  // still-waiting jobs.  speed_ == 1.0 divides exactly (IEEE), keeping
  // the no-powercap path bit-identical to the historical station.
  s.service = service / speed_;
  s.on_done = std::move(on_done);
  ++busy_;
  busy_time_ += s.service;
  auto complete = [this, slot, epoch = s.epoch] { on_complete(slot, epoch); };
  // A heap fallback here would put an allocation on every service
  // completion -- the single hottest closure in the cluster scenarios.
  static_assert(sizeof(complete) <= Simulator::Action::capacity(),
                "completion closure must fit the Action inline buffer");
  sim_.schedule(s.service, std::move(complete));
}

void Resource::on_complete(std::uint32_t slot, std::uint64_t epoch) {
  Slot& s = slots_[slot];
  if (!s.active || s.epoch != epoch) return;  // killed by fail_all()
  s.active = false;
  --busy_;
  ++completed_;
  wait_stats_.add(s.wait);
  sojourn_stats_.add(s.wait + s.service);
  auto done = std::move(s.on_done);
  s.on_done = nullptr;
  if (trace_) {
    trace_->complete(tr_serve_, s.start, s.service, trace_base_tid_ + slot,
                     tr_wait_arg_, s.wait);
  }
  if (done) done(s.wait, s.wait + s.service);
  if (waiting_count_ > 0 && busy_ < servers_) {
    start_next();
  }
}

std::size_t Resource::fail_all() {
  std::size_t lost = waiting_count_;
  for (std::size_t i = 0; i < waiting_count_; ++i) {
    waiting_at(i).on_done = nullptr;
  }
  waiting_head_ = 0;
  waiting_count_ = 0;
  for (Slot& s : slots_) {
    if (!s.active) continue;
    // Refund the service this job will never receive; the stale
    // completion event sees a cleared slot and does nothing.
    busy_time_ -= (s.start + s.service) - sim_.now();
    if (trace_) {
      // Truncated span: only the service actually rendered before the
      // crash, flagged "killed" so aborted work is visually distinct.
      const auto slot_idx =
          static_cast<std::uint32_t>(&s - slots_.data());
      trace_->complete(tr_serve_, s.start, sim_.now() - s.start,
                       trace_base_tid_ + slot_idx, tr_kill_arg_, 1.0);
    }
    s.active = false;
    s.on_done = nullptr;
    --busy_;
    ++lost;
  }
  dropped_ += lost;
  return lost;
}

}  // namespace arch21::des
