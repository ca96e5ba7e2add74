#include "des/pdes.hpp"

#include <algorithm>
#include <stdexcept>

#if ARCH21_OBS_ENABLED
#include "obs/metrics.hpp"
#endif

namespace arch21::des {

namespace {

/// Heap comparator that keeps the MessageEarlier-first message on top.
struct MessageLater {
  bool operator()(const Message& a, const Message& b) const noexcept {
    return MessageEarlier{}(b, a);
  }
};

}  // namespace

// ------------------------------------------------------- ParallelEngine

ParallelEngine::ParallelEngine(const PartitionSpec& spec, ThreadPool& pool)
    : spec_(spec), pool_(pool) {
  spec_.validate();
  lps_.reserve(spec_.lps);
  for (std::uint32_t i = 0; i < spec_.lps; ++i) {
    lps_.push_back(std::unique_ptr<Lp>(new Lp(this, i, spec_.lps)));
    if (spec_.reserve_events > 0) {
      // Pre-size the per-LP kernel and commit buffers so warm-up never
      // reallocates on the hot path (an allocation hint only: geometry
      // and ordering are unaffected).
      Lp& lp = *lps_.back();
      lp.sim_.reserve(spec_.reserve_events);
      lp.pending_.reserve(spec_.reserve_events);
      lp.batch_.reserve(spec_.reserve_events);
      lp.span_.reserve(spec_.reserve_events);
    }
  }
}

void ParallelEngine::drain() {
  for (auto& src : lps_) {
    for (std::uint32_t d = 0; d < lps(); ++d) {
      Mailbox& box = src->out_[d];
      if (box.empty()) continue;
      auto& pending = lps_[d]->pending_;
      pending.insert(pending.end(), box.begin(), box.end());
      box.clear();
    }
  }
  for (auto& lp : lps_) {
    if (lp->pending_.size() > stats_.max_pending) {
      stats_.max_pending = lp->pending_.size();
    }
  }
}

std::uint64_t ParallelEngine::run(Time until) {
  const std::uint64_t before = executed();
  const double lookahead = spec_.lookahead;
  for (;;) {
    drain();
    // Conservative horizon: nothing anywhere can happen before tmin, and
    // (because every cross-LP delay is >= lookahead) nothing NEW can
    // arrive at or before tmin + lookahead.
    Time tmin = Simulator::kForever;
    for (auto& lp : lps_) {
      tmin = std::min(tmin, lp->sim_.next_time());
      for (const Message& m : lp->pending_) tmin = std::min(tmin, m.t);
    }
    if (tmin > until || tmin >= Simulator::kForever) break;
    const Time end = std::min(until, tmin + lookahead);
    ++stats_.windows;
    pool_.parallel_run(lps_.size(),
                       [&](std::size_t i) { lps_[i]->commit_and_run(end); });
  }
  if (until < Simulator::kForever) {
    // Align every clock with the horizon, mirroring Simulator::run's
    // now_ = until on early stop.  Executes nothing: tmin > until.
    for (auto& lp : lps_) lp->sim_.run(until);
  }
  return executed() - before;
}

ParallelEngine::Stats ParallelEngine::stats() const {
  Stats s = stats_;
  for (const auto& lp : lps_) {
    s.sent += lp->sent_;
    s.committed += lp->delivered_;
    s.executed += lp->sim_.executed();
    s.cancelled += lp->sim_.cancelled();
  }
  return s;
}

std::uint64_t ParallelEngine::executed() const {
  std::uint64_t n = 0;
  for (const auto& lp : lps_) n += lp->sim_.executed();
  return n;
}

std::uint64_t ParallelEngine::cancelled() const {
  std::uint64_t n = 0;
  for (const auto& lp : lps_) n += lp->sim_.cancelled();
  return n;
}

#if ARCH21_OBS_ENABLED
void ParallelEngine::publish_metrics() const {
  auto& m = obs::MetricsRegistry::global();
  if (!m.enabled()) return;
  const Stats s = stats();
  m.add(m.counter("pdes.window.count"), s.windows);
  m.add(m.counter("pdes.mailbox.sent"), s.sent);
  m.add(m.counter("pdes.mailbox.committed"), s.committed);
  m.gauge_max(m.gauge("pdes.mailbox.max_pending"),
              static_cast<double>(s.max_pending));
}
#endif

// ------------------------------------------------------- LoopbackEngine

LoopbackEngine::LoopbackEngine(const PartitionSpec& spec) : spec_(spec) {
  spec_.validate();
  if (spec_.reserve_events > 0) {
    // One shared kernel hosts every LP's events here, so the per-LP hint
    // scales by the LP count.
    sim_.reserve(spec_.reserve_events * spec_.lps);
  }
  lps_.reserve(spec_.lps);
  for (std::uint32_t i = 0; i < spec_.lps; ++i) {
    auto lp = std::make_unique<Lp>();
    lp->engine_ = this;
    lp->id_ = i;
    lps_.push_back(std::move(lp));
  }
}

Time LoopbackEngine::Lp::now() const noexcept { return engine_->sim_.now(); }

Simulator& LoopbackEngine::Lp::sim() noexcept { return engine_->sim_; }

void LoopbackEngine::Lp::send(std::uint32_t dst, Time delay,
                              const Payload& p) {
  if (dst >= engine_->lps()) {
    throw std::invalid_argument("Lp::send: destination LP out of range");
  }
  if (dst != id_ && !(delay >= engine_->lookahead())) {
    throw std::invalid_argument(
        "Lp::send: cross-LP delay below the engine lookahead");
  }
  Lp* to = engine_->lps_[dst].get();
  if (dst == id_) {
    engine_->sim_.schedule(delay, [to, p] { to->handler_(*to, p); });
    return;
  }
  const Time now = engine_->sim_.now();
  to->inbox_.push_back(Message{now + delay, now, id_, send_seq_++, p});
  std::push_heap(to->inbox_.begin(), to->inbox_.end(), MessageLater{});
  engine_->sim_.schedule(delay, [to] { to->deliver_next(); });
}

void LoopbackEngine::Lp::deliver_next() {
  // Every message due by now is already in the inbox (a remote send is
  // at least one lookahead ahead of its delivery), and the events for
  // earlier instants each took one message, so the head is due now.
  std::pop_heap(inbox_.begin(), inbox_.end(), MessageLater{});
  const Payload p = inbox_.back().payload;
  inbox_.pop_back();
  handler_(*this, p);
}

}  // namespace arch21::des
