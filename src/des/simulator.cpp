#include "des/simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace arch21::des {

void Simulator::set_trace(obs::TraceBuffer* t, std::uint32_t tid) {
  trace_ = t;
  trace_tid_ = tid;
  if (t) {
    tr_fire_ = t->intern("des.fire");
    tr_discard_ = t->intern("des.discard");
    tr_refit_ = t->intern("des.refit");
    tr_moves_ = t->intern("moves");
  }
}

// ------------------------------------------------------- bucket storage
//
// A bucket is two parallel lanes; every comparison reads the 16-byte key
// lane only, and every move carries key and payload in lockstep.  Keys
// are unique, so sorting them gives the exact (t, seq) order -- how a
// bucket was filled is unobservable.

void Simulator::purge_cancelled(Bucket& b) {
  const std::size_t n = b.keys.size();
  std::size_t keep = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t slot = b.refs[i].slot;
    if (slot != kNoSlot && slots_[slot].cancelled) {
      // Same bookkeeping as the fire-time discard in fire_event().
      CancelSlot& cs = slots_[slot];
      cs.live = false;
      cs.cancelled = false;
      ++cs.gen;
      free_slots_.push_back(slot);
      actions_[b.refs[i].act] = Action{};
      free_actions_.push_back(b.refs[i].act);
      ++cancelled_;
      if (trace_) trace_->instant(tr_discard_, b.keys[i].t, trace_tid_);
      continue;
    }
    if (keep != i) {
      b.keys[keep] = b.keys[i];
      b.refs[keep] = b.refs[i];
    }
    ++keep;
  }
  if (keep != n) {
    b.keys.resize(keep);
    b.refs.resize(keep);
    ladder_size_ -= n - keep;
    size_ -= n - keep;
  }
}

void Simulator::retire_bucket(std::size_t ring) {
  Bucket& b = buckets_[ring];
  if (b.keys.capacity() > kRetainedCapacity) {
    std::vector<Key>().swap(b.keys);
    std::vector<Ref>().swap(b.refs);
  } else {
    b.keys.clear();
    b.refs.clear();
  }
  occ_clear(ring);
  cur_head_ = 0;
}

void Simulator::sort_bucket(Bucket& b) {
  const std::size_t n = b.keys.size();
  if (n < 2) return;
  // Join the lanes into contiguous 24-byte records, introsort them, and
  // split back.  The two O(n) copies are noise next to the O(n log n)
  // compare/swap work they make cheap.
  sort_buf_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    sort_buf_[i] =
        Event{b.keys[i].t, b.keys[i].seq, b.refs[i].slot, b.refs[i].act};
  }
  std::sort(sort_buf_.begin(), sort_buf_.end(),
            [](const Event& a, const Event& c) noexcept {
              if (a.t != c.t) return a.t < c.t;
              return a.seq < c.seq;
            });
  for (std::size_t i = 0; i < n; ++i) {
    b.keys[i] = Key{sort_buf_[i].t, sort_buf_[i].seq};
    b.refs[i] = Ref{sort_buf_[i].slot, sort_buf_[i].act};
  }
}

// --------------------------------------------------------------- insert

void Simulator::insert(Event ev) {
  if (width_ > 0) {
    // Track the live scheduling horizon: a decaying max of how far ahead
    // of the clock events are being scheduled.  fit_width() sizes the
    // window to kSpreadSlack times this, so in steady state new events
    // land in the ladder, not the overflow tier.  The 1/1024 decay lets
    // the window shrink again within ~a thousand events when a phase
    // with long timers ends.
    const double ahead = ev.t - now_;
    live_spread_ -= live_spread_ * (1.0 / 1024.0);
    if (ahead > live_spread_ && ahead < kForever) live_spread_ = ahead;
  }
  place(ev);
}

void Simulator::place(Event ev) {
  // Splice check for the batched drain: an insert below the drain's
  // bound must fire within the active drain, so splice it into the
  // unfired remainder at its key position -- the span stays sorted and
  // the drain keeps going without an abort.  The sentinel (-inf) makes
  // this compare false outside a drain.  Inserts can never be due
  // before (or at) the element currently firing: t >= now_ and seq is
  // monotone, so the insert point is strictly inside [batch_pos_, end).
  // Span events are not counted in size_ (they were decremented when the
  // slice was popped), keeping the accounting uniform across the span.
  if (earlier(Key{ev.t, ev.seq}, batch_limit_)) [[unlikely]] {
    const Key k{ev.t, ev.seq};
    const auto it = std::upper_bound(
        scratch_.begin() + static_cast<std::ptrdiff_t>(batch_pos_),
        scratch_.end(), k, [](const Key& a, const Event& c) noexcept {
          return earlier(a, Key{c.t, c.seq});
        });
    scratch_.insert(it, ev);
    ++spliced_;
    return;
  }
  ++size_;
  if (width_ > 0 && place_ladder(ev)) return;
  stage(ev);
}

void Simulator::stage(const Event& ev) {
  // Overflow insert: O(1) append to the staging tail plus a cached-min
  // update; ordering work is deferred until the tier must yield events.
  overflow_staging_.push_back(ev);
  if (earlier(Key{ev.t, ev.seq}, staging_min_)) {
    staging_min_ = Key{ev.t, ev.seq};
  }
}

void Simulator::overflow_merge_staging() {
  staging_min_ = Key{kForever, ~std::uint64_t{0}};
  if (overflow_staging_.empty()) return;
  std::sort(overflow_staging_.begin(), overflow_staging_.end(), Later{});
  if (overflow_.empty()) {
    overflow_.swap(overflow_staging_);  // both keep their reserved storage
    return;
  }
  const auto mid = static_cast<std::ptrdiff_t>(overflow_.size());
  overflow_.insert(overflow_.end(), overflow_staging_.begin(),
                   overflow_staging_.end());
  std::inplace_merge(overflow_.begin(), overflow_.begin() + mid,
                     overflow_.end(), Later{});
  overflow_staging_.clear();
}

std::uint64_t Simulator::bucket_of(Time t) const noexcept {
  // floor((t - origin) / width), computed in doubles so absurdly far
  // timestamps (kForever) cannot overflow the integer conversion.  floor
  // of a monotone function is monotone, so bucket order always respects
  // timestamp order; the clamp to the cursor bucket (events scheduled
  // "behind" the cursor after a run(until) stopped the clock early) only
  // ever moves an event *earlier*, which the sorted cursor bucket absorbs
  // without breaking order.
  const double rel = (t - origin_) / width_;
  if (!(rel < static_cast<double>(cur_bucket_ + kBucketCount))) {
    return kNoBucket;
  }
  if (!(rel > static_cast<double>(cur_bucket_))) return cur_bucket_;
  // max(): the fp edge at the cursor bucket's boundary.
  return std::max(static_cast<std::uint64_t>(rel), cur_bucket_);
}

bool Simulator::place_ladder(const Event& ev) {
  const std::uint64_t b = bucket_of(ev.t);
  if (b == kNoBucket) return false;
  const std::size_t ring = b & kBucketMask;
  Bucket& bucket = buckets_[ring];
  occ_set(ring);
  const Key k{ev.t, ev.seq};
  // Only the bucket under the cursor is kept sorted; the rest are
  // append-only until the cursor reaches them (peek() sorts).  An insert
  // ahead of the cursor bucket's tail shifts into place after the live
  // head (one memmove per lane), so drains stay contiguous slices.
  if (b == sorted_bucket_ && !bucket.keys.empty() &&
      earlier(k, bucket.keys.back())) {
    const auto it = std::upper_bound(
        bucket.keys.begin() + static_cast<std::ptrdiff_t>(cur_head_),
        bucket.keys.end(), k,
        [](const Key& a, const Key& c) noexcept { return earlier(a, c); });
    const std::ptrdiff_t pos = it - bucket.keys.begin();
    bucket.keys.insert(it, k);
    bucket.refs.insert(bucket.refs.begin() + pos, Ref{ev.slot, ev.act});
  } else {
    bucket.keys.push_back(k);
    bucket.refs.push_back(Ref{ev.slot, ev.act});
  }
  ++ladder_size_;
  return true;
}

void Simulator::migrate_overflow() {
  // The overflow head has slid inside the ladder window (peek() saw it
  // earlier than the ladder head, which always lies in the window).
  // Move it -- and every further overflow event the window now covers --
  // into the ladder buckets, so these events fire through the batched
  // bucket drains instead of paying a peek/pop/fire round-trip each.
  // Pops come off the back of the sorted run, O(1) per event; the
  // staging tail folds in (one sort + merge) only if it holds the head.
  // Events stay counted in size_; only the tier changes.
  do {
    if (overflow_.empty() ||
        earlier(staging_min_, Key{overflow_.back().t, overflow_.back().seq})) {
      overflow_merge_staging();
    }
    if (!place_ladder(overflow_.back())) return;
    overflow_.pop_back();
  } while (!overflow_empty() && bucket_of(overflow_head().t) != kNoBucket);
}

double Simulator::fit_width(double span, std::size_t n) const noexcept {
  // At least kGapsPerBucket mean inter-execution gaps per bucket (the
  // density floor), widened so the whole window spans kSpreadSlack times
  // the live scheduling horizon -- the regime where timeout-per-call
  // workloads keep thousands of timers ~spread ahead of the clock, which
  // must land in the ladder, not churn through the overflow tier.
  // Before any execution history exists (everything was scheduled ahead
  // of the first run), estimate the gap from the backlog's `span` and
  // population `n` instead.
  double w = gap_ewma_ * kGapsPerBucket;
  if (!(w > 0)) {
    w = kGapsPerBucket * span / static_cast<double>(n);
    if (!(w > 0)) w = 1.0;  // all at one timestamp; any width works
  }
  const double spread_w = kSpreadSlack * live_spread_ / kBucketCount;
  return spread_w > w ? spread_w : w;
}

void Simulator::anchor(Time origin, double width) {
  width_ = width;
  origin_ = origin;
  anchor_executed_ = executed_;
  cur_bucket_ = 0;
  sorted_bucket_ = kNoBucket;  // absolute numbering restarted
  cur_head_ = 0;
}

void Simulator::reanchor() {
  // Called only when every bucket is empty (so the occupancy bitmap is
  // all-zero too): the window geometry may change freely because no
  // event straddles old and new placement.  The window starts at the
  // overflow minimum, so at least that event (rel == 0) fits and the
  // ladder always gains one.
  double lo = staging_min_.t;
  double hi = -kForever;
  if (!overflow_.empty()) {
    lo = std::min(lo, overflow_.back().t);  // descending: back is min
    hi = overflow_.front().t;
  }
  for (const Event& e : overflow_staging_) hi = std::max(hi, e.t);
  anchor(lo, fit_width(hi - lo, overflow_.size() + overflow_staging_.size()));
  // Partition the unsorted staging tail in one O(n) pass: window events
  // drop into their buckets (append-only; sorted lazily by the cursor),
  // the rest are compacted in place.  No per-event O(log n).
  std::size_t keep = 0;
  for (std::size_t i = 0; i < overflow_staging_.size(); ++i) {
    const Event e = overflow_staging_[i];
    if (!place_ladder(e)) overflow_staging_[keep++] = e;
  }
  overflow_staging_.resize(keep);
  // Then pop the sorted run's window prefix off its back -- O(1) per
  // event moved, never a full scan, so a far-future trickle drains one
  // window at a time -- and fold the tail's leftovers into the run.
  // Bucket/overflow capacities are retained across windows, so steady
  // state allocates nothing.
  while (!overflow_.empty() && place_ladder(overflow_.back())) {
    overflow_.pop_back();
  }
  overflow_merge_staging();
}

bool Simulator::maybe_rebucket() {
  // Only judge the fit once the gap estimator has real history behind
  // it and the executions since the last anchor cover the events a
  // re-fit would move (the amortization gate), and re-fit only on a >2x
  // mismatch either way.
  constexpr std::uint64_t kMinExecuted = 64;
  const std::uint64_t since = executed_ - anchor_executed_;
  if (since < kMinExecuted || since < ladder_size_ || !(gap_ewma_ > 0)) {
    return false;
  }
  const double target = fit_width(0, 1);  // gap_ewma_ > 0: no fallback
  if (!(target > width_ * 2.0) && !(target * 2.0 < width_)) return false;
  // Collect every live ladder event (the cursor has just entered a fresh
  // bucket, so no bucket has a consumed prefix), re-seat the window at
  // the clock, and re-place under the new width; events the narrower
  // window no longer covers drop to the overflow staging tail.  All
  // pending events satisfy t >= now_ (firing follows global key order),
  // so origin_ = now_ is a lower bound and bucket indices stay
  // non-negative.
  sort_buf_.clear();
  for (std::size_t word = 0; word < occ_.size(); ++word) {
    std::uint64_t bits = occ_[word];
    while (bits != 0) {
      const auto ring = (word << 6) |
                        static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      const Bucket& bk = buckets_[ring];
      for (std::size_t i = 0; i < bk.keys.size(); ++i) {
        sort_buf_.push_back(Event{bk.keys[i].t, bk.keys[i].seq,
                                  bk.refs[i].slot, bk.refs[i].act});
      }
      retire_bucket(ring);
    }
  }
  anchor(now_, target);
  ladder_size_ = 0;
  for (const Event& e : sort_buf_) {
    if (!place_ladder(e)) stage(e);
  }
  ++refits_;
  refit_moves_ += sort_buf_.size();
  if (trace_) {
    trace_->instant(tr_refit_, now_, trace_tid_, tr_moves_,
                    static_cast<double>(sort_buf_.size()));
  }
  sort_buf_.clear();
  return true;
}

const Simulator::Key* Simulator::peek() {
  if (size_ == 0) return nullptr;
  for (;;) {
    if (ladder_size_ == 0) {
      if (overflow_empty()) return nullptr;  // purges drained everything
      if (cold_backlog()) {
        // Cold start: no ladder yet; the head fires from the overflow
        // tier (run()/step() see width_ == 0).
        head_in_overflow_ = true;
        overflow_head_key_ = overflow_head();
        return &overflow_head_key_;
      }
      reanchor();  // the overflow minimum fits the new window by
                   // construction, so the ladder gains >= 1 event
    }
    // Advance the cursor to the next nonempty bucket.  Every ladder
    // event sits at an absolute bucket >= the cursor (inserts clamp),
    // and within cur_bucket_ + kBucketCount of some earlier cursor
    // position, so the occupancy-bitmap scan is bounded: finish the word
    // under the cursor, then test 64 buckets per word.
    {
      const std::size_t ring = cur_bucket_ & kBucketMask;
      const std::uint64_t head_word = occ_[ring >> 6] >> (ring & 63);
      if (head_word != 0) {
        cur_bucket_ += static_cast<std::uint64_t>(std::countr_zero(head_word));
      } else {
        cur_bucket_ += 64 - (ring & 63);
        for (;;) {
          const std::uint64_t word = occ_[(cur_bucket_ & kBucketMask) >> 6];
          if (word != 0) {
            cur_bucket_ += static_cast<std::uint64_t>(std::countr_zero(word));
            break;
          }
          cur_bucket_ += 64;
        }
      }
    }
    if (sorted_bucket_ == cur_bucket_) break;
    // Fresh bucket: the one spot where ladder geometry is re-judged
    // against the gap estimator (cheap compare; the re-fit itself is
    // rare) before the first-visit purge + sort.
    if (maybe_rebucket()) continue;
    // First visit since the bucket filled: drop already-cancelled events
    // in one compaction pass, then one sort instead of an ordered insert
    // per event (amortized O(log bucket) per event, contiguous).
    Bucket& fresh = buckets_[cur_bucket_ & kBucketMask];
    purge_cancelled(fresh);
    if (fresh.keys.empty()) {
      retire_bucket(cur_bucket_ & kBucketMask);
      if (size_ == 0) return nullptr;
      continue;  // everything here was cancelled; keep scanning
    }
    sort_bucket(fresh);
    sorted_bucket_ = cur_bucket_;
    break;
  }
  const Key& lh = buckets_[cur_bucket_ & kBucketMask].keys[cur_head_];
  // An overflow event can become earlier than the ladder head as the
  // window slides past its insert-time horizon; order is decided by the
  // exact (t, seq) comparison, never by which tier an event sits in.
  if (!overflow_empty()) {
    const Key oh = overflow_head();  // O(1): run back vs cached staging min
    if (earlier(oh, lh)) {
      head_in_overflow_ = true;
      overflow_head_key_ = oh;
      return &overflow_head_key_;
    }
  }
  head_in_overflow_ = false;
  return &lh;
}

bool Simulator::cold_backlog() {
  if (width_ > 0 || size_ >= kColdBacklog ||
      gap_samples_ >= kColdGapSamples) {
    return false;
  }
  overflow_merge_staging();  // descending run: front is max, back is min
  return overflow_.front().t > overflow_.back().t;
}

Simulator::Event Simulator::pop_overflow() {
  overflow_merge_staging();  // a no-op right after cold_backlog()
  const Event ev = overflow_.back();
  overflow_.pop_back();
  --size_;
  return ev;
}

Simulator::Event Simulator::pop_head() {
  // Callers migrate the overflow head into the ladder first (see
  // migrate_overflow), so the head is always in the cursor bucket here.
  const std::size_t ring = cur_bucket_ & kBucketMask;
  const Bucket& b = buckets_[ring];
  const Event ev{b.keys[cur_head_].t, b.keys[cur_head_].seq,
                 b.refs[cur_head_].slot, b.refs[cur_head_].act};
  if (++cur_head_ == b.keys.size()) retire_bucket(ring);
  --ladder_size_;
  --size_;
  return ev;
}

// ------------------------------------------------------------ scheduling

std::uint32_t Simulator::store_action(Action&& a) {
  if (!free_actions_.empty()) {
    const std::uint32_t idx = free_actions_.back();
    free_actions_.pop_back();
    actions_[idx] = std::move(a);
    return idx;
  }
  const auto idx = static_cast<std::uint32_t>(actions_.size());
  actions_.push_back(std::move(a));
  return idx;
}

void Simulator::schedule_at(Time t, Action&& action) {
  if (t < now_) {
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  }
  insert(Event{t, next_seq_++, kNoSlot, store_action(std::move(action))});
}

void Simulator::schedule_reserved(Time t, std::uint64_t seq,
                                  Action&& action) {
  if (seq >= next_seq_) {
    throw std::invalid_argument(
        "Simulator::schedule_reserved: seq was never reserved");
  }
  // The firing event: the span element the active drain just bumped
  // past (place() splices only after it), else the last one executed.
  const bool in_drain = batch_limit_.t > -kForever;
  const Key firing =
      in_drain ? Key{scratch_[batch_pos_ - 1].t, scratch_[batch_pos_ - 1].seq}
               : fired_key_;
  if (t < now_ || !earlier(firing, Key{t, seq})) {
    throw std::invalid_argument(
        "Simulator::schedule_reserved: key not after the firing event");
  }
  insert(Event{t, seq, kNoSlot, store_action(std::move(action))});
}

void Simulator::schedule_n(TimedAction* evs, std::size_t n) {
  if (n == 0) return;
  // One validation pass up front (so a bad entry throws before any state
  // mutates) that also finds the span's scheduling horizon.
  double max_ahead = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (evs[i].t < now_) {
      throw std::invalid_argument("Simulator::schedule_n: time in the past");
    }
    const double ahead = evs[i].t - now_;
    if (ahead > max_ahead && ahead < kForever) max_ahead = ahead;
  }
  // Reserve the action slab for the whole span (free-list hits don't
  // grow it, but the worst case is n fresh slots).
  const std::size_t fresh =
      n > free_actions_.size() ? n - free_actions_.size() : 0;
  actions_.reserve(actions_.size() + fresh);
  // One spread-estimator update for the batch instead of n decay+max
  // steps.  This changes only ladder geometry (window width at the next
  // re-anchor), which is tuning, never ordering -- the determinism
  // contract is independent of bucket geometry by construction.
  if (width_ > 0) {
    live_spread_ -= live_spread_ * (1.0 / 1024.0);
    if (max_ahead > live_spread_) live_spread_ = max_ahead;
  }
  for (std::size_t i = 0; i < n; ++i) {
    place(Event{evs[i].t, next_seq_++, kNoSlot,
                store_action(std::move(evs[i].action))});
  }
}

EventHandle Simulator::schedule_cancellable_at(Time t, Action&& action) {
  if (t < now_) {
    throw std::invalid_argument("Simulator::schedule_at: time in the past");
  }
  std::uint32_t s;
  if (!free_slots_.empty()) {
    s = free_slots_.back();
    free_slots_.pop_back();
  } else {
    s = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  CancelSlot& cs = slots_[s];
  cs.live = true;
  cs.cancelled = false;
  const std::uint32_t gen = cs.gen;
  insert(Event{t, next_seq_++, s, store_action(std::move(action))});
  return EventHandle{s, gen};
}

bool Simulator::cancel(EventHandle h) {
  if (!h.valid() || h.slot >= slots_.size()) return false;
  CancelSlot& cs = slots_[h.slot];
  if (!cs.live || cs.gen != h.gen || cs.cancelled) return false;
  cs.cancelled = true;
  return true;
}

// --------------------------------------------------------------- running

bool Simulator::fire_event(const Event& ev) {
  if (ev.slot != kNoSlot) {
    CancelSlot& cs = slots_[ev.slot];
    const bool was_cancelled = cs.cancelled;
    cs.live = false;
    cs.cancelled = false;
    ++cs.gen;  // stale handles can never touch this slot's next tenant
    free_slots_.push_back(ev.slot);
    if (was_cancelled) {
      // Discard without advancing the clock or executing: a cancelled
      // event behaves as if it had never been scheduled.  Destroy the
      // closure (it may hold resources) and recycle its slab index.
      actions_[ev.act] = Action{};
      free_actions_.push_back(ev.act);
      ++cancelled_;
      if (trace_) trace_->instant(tr_discard_, ev.t, trace_tid_);
      return false;
    }
  }
  now_ = ev.t;
  ++executed_;
  if (trace_) trace_->instant(tr_fire_, ev.t, trace_tid_);
  // Feed the ladder-width estimator (nonzero gaps only: simultaneous
  // events share a bucket regardless of width): a running mean that
  // becomes an EWMA over about the last kGapWindow gaps.
  if (executed_ > 1 && ev.t > last_exec_t_) {
    if (gap_samples_ < kGapWindow) ++gap_samples_;
    gap_ewma_ += (ev.t - last_exec_t_ - gap_ewma_) /
                 static_cast<double>(gap_samples_);
  }
  last_exec_t_ = ev.t;
  // Move the closure out and recycle its index *before* invoking: the
  // action may schedule new events that reuse the slot immediately.
  Action a = std::move(actions_[ev.act]);
  free_actions_.push_back(ev.act);
  a();
  return true;
}

bool Simulator::fire_single(const Event& ev) {
  const Key prev = fired_key_;
  fired_key_ = Key{ev.t, ev.seq};
  if (fire_event(ev)) return true;
  fired_key_ = prev;  // discarded: it never executed
  return false;
}

std::uint64_t Simulator::drain_bucket(Time until) {
  // peek() has just sorted the cursor bucket and established that its
  // head is due.  Slice the whole due prefix -- everything at or before
  // `until` and before the overflow head, contiguous from cur_head_ --
  // into the scratch span, then fire the span as a tight loop.  All
  // other pending events (later buckets, overflow) are at or past the
  // splice bound computed below, so only *new* inserts can land inside
  // the span; place() detects those against batch_limit_ and splices them
  // into the sorted unfired remainder, which preserves the exact
  // step()-at-a-time order without ever aborting the batch.
  const std::size_t ring = cur_bucket_ & kBucketMask;
  const Bucket& b = buckets_[ring];
  Key lim{until, ~std::uint64_t{0}};
  if (!overflow_empty()) {
    const Key ok = overflow_head();
    if (earlier(ok, lim)) lim = ok;
  }
  scratch_.clear();
  const std::size_t n = b.keys.size();
  std::size_t m = cur_head_;
  while (m < n && !earlier(lim, b.keys[m])) ++m;
  scratch_.reserve(m - cur_head_);
  for (std::size_t j = cur_head_; j < m; ++j) {
    scratch_.push_back(
        Event{b.keys[j].t, b.keys[j].seq, b.refs[j].slot, b.refs[j].act});
  }
  const bool emptied = m == n;
  if (emptied) {
    retire_bucket(ring);
  } else {
    cur_head_ = m;
  }
  const std::size_t popped = scratch_.size();
  ladder_size_ -= popped;
  size_ -= popped;
  std::uint64_t ran = 0;
  // The splice bound: strictly below every pending event outside the
  // span, and at or above every span key, so place() can route exactly
  // the events that must fire within this drain into the span.  The
  // slice conditions give lim >= every span key and lim <= the bucket
  // remainder (if any); when the bucket drained empty the rest of the
  // ladder lives at or past the bucket's end wall, so the bound extends
  // there -- that is what lets a self-perpetuating stream (each action
  // scheduling its successor a fraction of a bucket ahead) chain through
  // the whole bucket span in ONE drain call instead of paying a
  // peek/place/drain round-trip per event.  The max-with-span-tail guard
  // covers the fp edge where an event at the exact end wall was floored
  // into this bucket.
  {
    Key bound = lim;
    if (emptied) {
      const Key end_wall{
          origin_ + static_cast<double>(cur_bucket_ + 1) * width_, 0};
      if (earlier(end_wall, bound)) bound = end_wall;
      const Key span_max{scratch_[popped - 1].t, scratch_[popped - 1].seq};
      if (earlier(bound, span_max)) bound = span_max;
    }
    batch_limit_ = bound;
  }
  // Fire the span front to back.  Actions may splice new events into the
  // unfired remainder (see place()), growing scratch_ under us, so the
  // bound is re-read every iteration and the event is copied out before
  // firing (the vector may reallocate mid-action).
  std::size_t last = 0;  // 1 + span index of the last execution
  for (batch_pos_ = 0; batch_pos_ < scratch_.size();) {
    const Event ev = scratch_[batch_pos_];
    ++batch_pos_;  // place() splices after this index; bump it first
    if (fire_event(ev)) {
      ++ran;
      last = batch_pos_;
    }
  }
  batch_limit_ = Key{-kForever, 0};
  if (last > 0) fired_key_ = Key{scratch_[last - 1].t, scratch_[last - 1].seq};
  return ran;
}

std::uint64_t Simulator::run(Time until) {
  std::uint64_t ran = 0;
  for (;;) {
    const Key* head = peek();
    if (!head) return ran;
    if (head->t > until) {
      now_ = until;
      return ran;
    }
    if (head_in_overflow_) {
      if (width_ == 0) {  // cold start: no ladder to drain yet
        if (fire_single(pop_overflow())) ++ran;
        continue;
      }
      migrate_overflow();  // window slid over overflow events: pull them
      continue;            // into the ladder and re-peek
    }
    ran += drain_bucket(until);
  }
}

bool Simulator::step(Time until) {
  for (;;) {
    const Key* head = peek();
    if (!head) return false;
    if (head->t > until) {
      now_ = until;
      return false;
    }
    if (head_in_overflow_ && width_ > 0) {
      migrate_overflow();
      continue;
    }
    const Event ev = head_in_overflow_ ? pop_overflow() : pop_head();
    if (fire_single(ev)) return true;
  }
}

}  // namespace arch21::des
