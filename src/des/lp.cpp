#include "des/lp.hpp"

#include <algorithm>
#include <stdexcept>

#include "des/pdes.hpp"

namespace arch21::des {

void Lp::send(std::uint32_t dst, Time delay, const Payload& p) {
  if (dst >= out_[0].size()) {
    throw std::invalid_argument("Lp::send: destination LP out of range");
  }
  if (dst == id_) {
    // Local delivery: no conservative constraint applies inside one LP,
    // and bypassing the mailbox keeps single-LP partitions exactly as
    // fast (and exactly as ordered) as the serial loopback engine.
    sim_.schedule(delay, [this, p] { handler_(*this, p); });
    return;
  }
  if (!(delay >= engine_->lookahead())) {
    throw std::invalid_argument(
        "Lp::send: cross-LP delay below the engine lookahead");
  }
  ++sent_;
  const Time t = sim_.now() + delay;
  sent_min_ = std::min(sent_min_, t);
  out_[engine_->parity_][dst].push_back(
      Message{t, sim_.now(), id_, send_seq_++, p});
}

void Lp::pull(unsigned parity) {
  for (const auto& src : engine_->lps_) {
    Mailbox& box = src->out_[parity][id_];
    if (box.empty()) continue;
    pending_.insert(pending_.end(), box.begin(), box.end());
    box.clear();
  }
}

void Lp::run_window(Time end, unsigned parity) {
  // Last window's sends sit in the other parity's buffers; this window's
  // sends go to `parity`, which no LP reads until the next window.
  pull(parity ^ 1);
  pulled_ = pending_.size();
  sent_min_ = Simulator::kForever;
  const Time left = commit_and_run(end);
  bound_ = std::min({sim_.next_time(), left, sent_min_});
}

Time Lp::commit_and_run(Time end) {
  // Extract this window's arrivals.  The commit set {m : m.t <= end} and
  // the canonical sort below are pure functions of the barrier state, so
  // the batch -- and therefore the (t, seq) execution order inside this
  // LP's kernel -- is identical for any worker count.
  batch_.clear();
  std::size_t keep = 0;
  Time left = Simulator::kForever;
  for (Message& m : pending_) {
    if (m.t <= end) {
      batch_.push_back(m);
    } else {
      left = std::min(left, m.t);
      pending_[keep++] = m;
    }
  }
  pending_.resize(keep);
  if (!batch_.empty()) {
    std::sort(batch_.begin(), batch_.end(), MessageEarlier{});
    span_.clear();
    for (const Message& m : batch_) {
      // Delivery closure: destination-LP pointer plus one Payload by
      // value -- guaranteed to fit the Action's inline buffer, so the
      // commit path never heap-allocates per message.
      static_assert(sizeof(Lp*) + sizeof(Payload) <=
                    Simulator::Action::capacity());
      span_.push_back(Simulator::TimedAction{
          m.t, [this, p = m.payload] { handler_(*this, p); }});
    }
    sim_.schedule_n(span_.data(), span_.size());
    delivered_ += batch_.size();
  }
  sim_.run(end);
  return left;
}

}  // namespace arch21::des
