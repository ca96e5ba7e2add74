#include "des/simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#if ARCH21_OBS_ENABLED
#include "obs/trace.hpp"
#endif

namespace arch21::des {

#if ARCH21_OBS_ENABLED
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
#endif

// ----------------------------------------------- SoA min-heap primitives
//
// A bucket heap is two parallel lanes; every comparison reads the 16-byte
// key lane only, and each sift moves key and payload in lockstep.  Keys
// are unique, so the pop sequence of any valid min-heap over them is the
// exact (t, seq) sorted order -- internal heap layout is unobservable.

void Simulator::sift_up(Key* k, Ref* r, std::size_t i) noexcept {
  const Key kv = k[i];
  const Ref rv = r[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(kv, k[parent])) break;
    k[i] = k[parent];
    r[i] = r[parent];
    i = parent;
  }
  k[i] = kv;
  r[i] = rv;
}

void Simulator::sift_down(Key* k, Ref* r, std::size_t n,
                          std::size_t i) noexcept {
  const Key kv = k[i];
  const Ref rv = r[i];
  for (;;) {
    std::size_t c = 2 * i + 1;
    if (c >= n) break;
    if (c + 1 < n && earlier(k[c + 1], k[c])) ++c;
    if (!earlier(k[c], kv)) break;
    k[i] = k[c];
    r[i] = r[c];
    i = c;
  }
  k[i] = kv;
  r[i] = rv;
}

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
#if ARCH21_OBS_ENABLED
      if (trace_) trace_->instant(tr_discard_, b.keys[i].t, trace_tid_);
#endif
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

void Simulator::retire_bucket(Bucket& b) {
  if (b.keys.capacity() > kRetainedCapacity) {
    std::vector<Key>().swap(b.keys);
    std::vector<Ref>().swap(b.refs);
  } else {
    b.keys.clear();
    b.refs.clear();
  }
}

void Simulator::sort_bucket(Bucket& b) {
  const std::size_t n = b.keys.size();
  if (n < 2) return;
  // Join the lanes into contiguous 24-byte records, introsort them (far
  // fewer branch misses and cache misses than n heap pops over the same
  // data), and split back.  The two O(n) copies are noise next to the
  // O(n log n) compare/swap work they make cheap.
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

void Simulator::pop_min(Bucket& b, Event& out) noexcept {
  out.t = b.keys.front().t;
  out.seq = b.keys.front().seq;
  out.slot = b.refs.front().slot;
  out.act = b.refs.front().act;
  const std::size_t n = b.keys.size() - 1;
  if (n > 0) {
    b.keys.front() = b.keys[n];
    b.refs.front() = b.refs[n];
  }
  b.keys.pop_back();
  b.refs.pop_back();
  if (n > 1) sift_down(b.keys.data(), b.refs.data(), n, 0);
}

// --------------------------------------------------------------- insert

void Simulator::insert(Event ev) {
  if (width_ > 0) {
    // Track the live scheduling horizon: a decaying max of how far ahead
    // of the clock events are being scheduled.  reanchor() sizes the
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
  if (width_ > 0) {
    // Bucket index is floor((t - origin) / width), computed in doubles so
    // absurdly far timestamps (kForever) cannot overflow the integer
    // conversion.  floor of a monotone function is monotone, so bucket
    // order always respects timestamp order; the clamp to the cursor
    // bucket (events scheduled "behind" the cursor after a run(until)
    // stopped the clock early) only ever moves an event *earlier*, which
    // the per-bucket heap absorbs without breaking order.
    const double rel = (ev.t - origin_) / width_;
    if (rel < static_cast<double>(cur_bucket_ + kBucketCount)) {
      std::uint64_t b = cur_bucket_;
      if (rel > static_cast<double>(cur_bucket_)) {
        b = static_cast<std::uint64_t>(rel);
        if (b < cur_bucket_) b = cur_bucket_;  // fp edge at the boundary
      }
      place_ladder(ev, b);
      return;
    }
  }
  // Overflow insert: O(1) append to the staging tail plus a cached-min
  // update; ordering work is deferred until the tier must yield events.
  overflow_staging_.push_back(ev);
  if (earlier(Key{ev.t, ev.seq}, staging_min_)) {
    staging_min_ = Key{ev.t, ev.seq};
  }
}

void Simulator::overflow_merge_staging() {
  if (overflow_staging_.empty()) return;
  std::sort(overflow_staging_.begin(), overflow_staging_.end(), Later{});
  const auto mid = static_cast<std::ptrdiff_t>(overflow_.size());
  overflow_.insert(overflow_.end(), overflow_staging_.begin(),
                   overflow_staging_.end());
  std::inplace_merge(overflow_.begin(), overflow_.begin() + mid,
                     overflow_.end(), Later{});
  overflow_staging_.clear();
  staging_min_ = Key{kForever, ~std::uint64_t{0}};
}

void Simulator::place_ladder(const Event& ev, std::uint64_t b) {
  Bucket& bucket = buckets_[b & kBucketMask];
  occ_set(b & kBucketMask);
  // Only the bucket under the cursor is kept ordered; the rest are
  // append-only until the cursor reaches them (peek() sorts).
  if (b == heapified_bucket_) {
    if (cur_sorted_) {
      if (bucket.keys.empty() ||
          !earlier(Key{ev.t, ev.seq}, bucket.keys.back())) {
        // In-order append: the bucket stays fully sorted.
        bucket.keys.push_back(Key{ev.t, ev.seq});
        bucket.refs.push_back(Ref{ev.slot, ev.act});
      } else if (bucket.keys.size() - cur_head_ <= 256) {
        // Small bucket: absorb the out-of-order insert by shifting (one
        // short memmove) so drains stay contiguous slices.  The cap
        // bounds the shift cost; larger buckets drop to heap
        // maintenance below.
        const Key k{ev.t, ev.seq};
        auto it = std::upper_bound(
            bucket.keys.begin() + static_cast<std::ptrdiff_t>(cur_head_),
            bucket.keys.end(), k,
            [](const Key& a, const Key& c) noexcept { return earlier(a, c); });
        const std::ptrdiff_t pos = it - bucket.keys.begin();
        bucket.keys.insert(it, k);
        bucket.refs.insert(bucket.refs.begin() + pos, Ref{ev.slot, ev.act});
      } else {
        // Out-of-order insert: compact the consumed prefix and drop to
        // plain heap maintenance for the rest of this visit (a sorted
        // array is a valid heap, so sift_up just works).
        bucket.keys.erase(bucket.keys.begin(),
                          bucket.keys.begin() +
                              static_cast<std::ptrdiff_t>(cur_head_));
        bucket.refs.erase(bucket.refs.begin(),
                          bucket.refs.begin() +
                              static_cast<std::ptrdiff_t>(cur_head_));
        cur_head_ = 0;
        cur_sorted_ = false;
        bucket.keys.push_back(Key{ev.t, ev.seq});
        bucket.refs.push_back(Ref{ev.slot, ev.act});
        sift_up(bucket.keys.data(), bucket.refs.data(),
                bucket.keys.size() - 1);
      }
    } else {
      bucket.keys.push_back(Key{ev.t, ev.seq});
      bucket.refs.push_back(Ref{ev.slot, ev.act});
      sift_up(bucket.keys.data(), bucket.refs.data(), bucket.keys.size() - 1);
    }
  } else {
    bucket.keys.push_back(Key{ev.t, ev.seq});
    bucket.refs.push_back(Ref{ev.slot, ev.act});
  }
  ++ladder_size_;
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
  const double limit = static_cast<double>(cur_bucket_ + kBucketCount);
  for (;;) {
    if (overflow_.empty() ||
        (!overflow_staging_.empty() &&
         earlier(staging_min_,
                 Key{overflow_.back().t, overflow_.back().seq}))) {
      overflow_merge_staging();
    }
    const Event e = overflow_.back();
    overflow_.pop_back();
    const double rel = (e.t - origin_) / width_;
    std::uint64_t b = cur_bucket_;
    if (rel > static_cast<double>(cur_bucket_)) {
      b = static_cast<std::uint64_t>(rel);
      if (b < cur_bucket_) b = cur_bucket_;  // fp edge at the boundary
    }
    place_ladder(e, b);
    if (overflow_empty()) return;
    const Key h = overflow_head();
    if (!((h.t - origin_) / width_ < limit)) return;
  }
}

void Simulator::reanchor() {
  // Called only when every bucket is empty (so the occupancy bitmap is
  // all-zero too): the window geometry may change freely because no
  // event straddles old and new placement.
  //
  // Width policy: at least kGapsPerBucket mean inter-execution gaps per
  // bucket (the density floor), widened so the whole window spans
  // kSpreadSlack times the live scheduling horizon -- the regime where
  // timeout-per-call workloads keep thousands of timers ~spread ahead of
  // the clock, which must land in the ladder, not churn through the
  // overflow heap.  Before any execution history exists (everything was
  // scheduled ahead of the first run), estimate the gap from the overflow
  // backlog's span and population instead.
  if (width_ == 0 && overflow_.empty()) {
    // First anchor over a pre-scheduled backlog.  The sorted run is
    // empty (a cold start may have left one; the steady-state path
    // below handles that), so every event sits in the unsorted
    // staging tail: scan it for the span, partition it in one
    // O(n) pass -- window events drop into their buckets (append-only;
    // sorted lazily by the cursor), the rest are compacted in place and
    // sorted once to become the run.  No per-event O(log n).
    double lo = overflow_staging_.front().t;
    double hi = lo;
    for (const Event& e : overflow_staging_) {
      lo = std::min(lo, e.t);
      hi = std::max(hi, e.t);
    }
    double w = gap_ewma_ * kGapsPerBucket;
    if (!(w > 0)) {
      w = kGapsPerBucket * (hi - lo) /
          static_cast<double>(overflow_staging_.size());
      if (!(w > 0)) w = 1.0;  // all at one timestamp; any width works
    }
    const double spread_w = kSpreadSlack * live_spread_ / kBucketCount;
    if (spread_w > w) w = spread_w;
    width_ = w;
    origin_ = lo;
    anchor_executed_ = executed_;
    cur_bucket_ = 0;
    heapified_bucket_ = kNoBucket;  // absolute numbering restarted
    cur_sorted_ = false;
    cur_head_ = 0;
    std::size_t keep = 0;
    for (std::size_t i = 0; i < overflow_staging_.size(); ++i) {
      const Event& e = overflow_staging_[i];
      const double rel = (e.t - origin_) / width_;
      if (rel < static_cast<double>(kBucketCount)) {
        std::uint64_t b = rel > 0 ? static_cast<std::uint64_t>(rel) : 0;
        if (b >= kBucketCount) b = kBucketCount - 1;  // fp edge
        buckets_[b].keys.push_back(Key{e.t, e.seq});
        buckets_[b].refs.push_back(Ref{e.slot, e.act});
        occ_set(b);
        ++ladder_size_;
      } else {
        if (keep != i) overflow_staging_[keep] = e;
        ++keep;
      }
    }
    overflow_staging_.resize(keep);
    overflow_.swap(overflow_staging_);  // staging keeps its capacity via
                                        // the (reserved) old run vector
    std::sort(overflow_.begin(), overflow_.end(), Later{});
    staging_min_ = Key{kForever, ~std::uint64_t{0}};
    return;
  }
  // Steady state: fold any staged inserts into the sorted run (the only
  // potentially super-constant step, amortized over the inserts that
  // filled the staging tail), then set the window and migrate its prefix
  // by popping off the back -- O(1) per event moved, never a full scan,
  // so a far-future trickle drains one window at a time.  At least the
  // overall minimum fits (rel == 0), so the ladder always gains an
  // event.  Bucket/overflow capacities are retained across windows, so
  // steady state allocates nothing.
  overflow_merge_staging();
  const double lo = overflow_.back().t;
  double w = gap_ewma_ * kGapsPerBucket;
  if (!(w > 0)) {
    const double hi = overflow_.front().t;  // descending: front is max
    w = kGapsPerBucket * (hi - lo) / static_cast<double>(overflow_.size());
    if (!(w > 0)) w = 1.0;  // all at one timestamp; any width works
  }
  const double spread_w = kSpreadSlack * live_spread_ / kBucketCount;
  if (spread_w > w) w = spread_w;
  width_ = w;
  origin_ = lo;
  anchor_executed_ = executed_;
  cur_bucket_ = 0;
  heapified_bucket_ = kNoBucket;  // absolute numbering restarted
  cur_sorted_ = false;
  cur_head_ = 0;
  while (!overflow_.empty()) {
    const double rel = (overflow_.back().t - origin_) / width_;
    if (!(rel < static_cast<double>(kBucketCount))) break;
    const Event e = overflow_.back();
    overflow_.pop_back();
    std::uint64_t b = rel > 0 ? static_cast<std::uint64_t>(rel) : 0;
    if (b >= kBucketCount) b = kBucketCount - 1;  // fp edge
    buckets_[b].keys.push_back(Key{e.t, e.seq});
    buckets_[b].refs.push_back(Ref{e.slot, e.act});
    occ_set(b);
    ++ladder_size_;
  }
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
  double target = gap_ewma_ * kGapsPerBucket;
  const double spread_w = kSpreadSlack * live_spread_ / kBucketCount;
  if (spread_w > target) target = spread_w;
  if (!(target > width_ * 2.0) && !(target * 2.0 < width_)) return false;
  // Collect every live ladder event (the cursor bucket's consumed prefix
  // is dead and excluded), re-seat the window at the clock, and re-place
  // under the new width; events the narrower window no longer covers
  // drop to the overflow staging tail.  All pending events satisfy
  // t >= now_ (firing follows global key order), so origin_ = now_ is a
  // lower bound and bucket indices stay non-negative.
  sort_buf_.clear();
  for (std::size_t word = 0; word < occ_.size(); ++word) {
    std::uint64_t bits = occ_[word];
    while (bits != 0) {
      const auto ring = (word << 6) |
                        static_cast<std::size_t>(std::countr_zero(bits));
      bits &= bits - 1;
      Bucket& bk = buckets_[ring];
      const std::size_t start =
          (ring == (cur_bucket_ & kBucketMask) && cur_sorted_) ? cur_head_ : 0;
      for (std::size_t i = start; i < bk.keys.size(); ++i) {
        sort_buf_.push_back(Event{bk.keys[i].t, bk.keys[i].seq,
                                  bk.refs[i].slot, bk.refs[i].act});
      }
      retire_bucket(bk);
    }
  }
  occ_.fill(0);
  width_ = target;
  origin_ = now_;
  cur_bucket_ = 0;
  heapified_bucket_ = kNoBucket;
  cur_sorted_ = false;
  cur_head_ = 0;
  ladder_size_ = 0;
  anchor_executed_ = executed_;
  for (const Event& e : sort_buf_) {
    const double rel = (e.t - origin_) / width_;
    if (rel < static_cast<double>(kBucketCount)) {
      std::uint64_t b = rel > 0 ? static_cast<std::uint64_t>(rel) : 0;
      if (b >= kBucketCount) b = kBucketCount - 1;  // fp edge
      buckets_[b].keys.push_back(Key{e.t, e.seq});
      buckets_[b].refs.push_back(Ref{e.slot, e.act});
      occ_set(b);
      ++ladder_size_;
    } else {
      overflow_staging_.push_back(e);
      if (earlier(Key{e.t, e.seq}, staging_min_)) {
        staging_min_ = Key{e.t, e.seq};
      }
    }
  }
  ++refits_;
  refit_moves_ += sort_buf_.size();
#if ARCH21_OBS_ENABLED
  if (trace_) {
    trace_->instant(tr_refit_, now_, trace_tid_, tr_moves_,
                    static_cast<double>(sort_buf_.size()));
  }
#endif
  sort_buf_.clear();
  return true;
}

const Simulator::Key* Simulator::peek() {
  if (size_ == 0) return nullptr;
  Bucket* curp;
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
    curp = &buckets_[cur_bucket_ & kBucketMask];
    if (heapified_bucket_ == cur_bucket_) break;
    // Fresh bucket: the one spot where ladder geometry is re-judged
    // against the gap estimator (cheap compare; the re-fit itself is
    // rare) before the first-visit purge + sort.
    if (maybe_rebucket()) continue;
    // First visit since the bucket filled: drop already-cancelled events
    // in one compaction pass, then one sort instead of a sift_up per
    // insert (amortized O(log bucket) per event, contiguous).
    purge_cancelled(*curp);
    if (curp->keys.empty()) {
      retire_bucket(*curp);
      occ_clear(cur_bucket_ & kBucketMask);
      if (size_ == 0) return nullptr;
      continue;  // everything here was cancelled; keep scanning
    }
    sort_bucket(*curp);
    heapified_bucket_ = cur_bucket_;
    cur_sorted_ = true;
    cur_head_ = 0;
    break;
  }
  Bucket& cur = *curp;
  const Key& lh = cur.keys[cur_sorted_ ? cur_head_ : 0];
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
  Event ev;
  {
    Bucket& b = buckets_[cur_bucket_ & kBucketMask];
    if (cur_sorted_) {
      ev = Event{b.keys[cur_head_].t, b.keys[cur_head_].seq,
                 b.refs[cur_head_].slot, b.refs[cur_head_].act};
      if (++cur_head_ == b.keys.size()) {
        retire_bucket(b);
        cur_head_ = 0;
        occ_clear(cur_bucket_ & kBucketMask);
      }
    } else {
      pop_min(b, ev);
      if (b.keys.empty()) {
        retire_bucket(b);
        occ_clear(cur_bucket_ & kBucketMask);
      }
    }
    --ladder_size_;
  }
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
#if ARCH21_OBS_ENABLED
      if (trace_) trace_->instant(tr_discard_, ev.t, trace_tid_);
#endif
      return false;
    }
  }
  now_ = ev.t;
  ++executed_;
#if ARCH21_OBS_ENABLED
  if (trace_) trace_->instant(tr_fire_, ev.t, trace_tid_);
#endif
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
  // peek() has just heapified the cursor bucket (and the overflow tier
  // if nonempty) and established that the bucket head is due.  Pop the
  // whole due prefix -- everything at or before `until` and before the
  // overflow head -- into the scratch span in one heap-drain pass, then
  // fire the span as a tight loop.  All other pending events (later
  // buckets, overflow) are at or past the splice bound computed below,
  // so only *new* inserts can land inside the span; place() detects
  // those against batch_limit_ and splices them into the sorted unfired
  // remainder, which preserves the exact step()-at-a-time order without
  // ever aborting the batch.
  Bucket& b = buckets_[cur_bucket_ & kBucketMask];
  Key lim{until, ~std::uint64_t{0}};
  if (!overflow_empty()) {
    const Key ok = overflow_head();
    if (earlier(ok, lim)) lim = ok;
  }
  scratch_.clear();
  bool emptied = false;
  if (cur_sorted_) {
    // Sorted bucket: the due events are the contiguous prefix starting
    // at cur_head_ -- slice it into scratch with no heap work at all.
    const std::size_t n = b.keys.size();
    std::size_t m = cur_head_;
    while (m < n && !earlier(lim, b.keys[m])) ++m;
    scratch_.reserve(m - cur_head_);
    for (std::size_t j = cur_head_; j < m; ++j) {
      scratch_.push_back(Event{b.keys[j].t, b.keys[j].seq, b.refs[j].slot,
                               b.refs[j].act});
    }
    cur_head_ = m;
    if (cur_head_ == n) {
      retire_bucket(b);
      cur_head_ = 0;
      occ_clear(cur_bucket_ & kBucketMask);
      emptied = true;
    }
  } else {
    while (!b.keys.empty() && !earlier(lim, b.keys.front())) {
      Event ev;
      pop_min(b, ev);
      scratch_.push_back(ev);
    }
    if (b.keys.empty()) {
      retire_bucket(b);
      occ_clear(cur_bucket_ & kBucketMask);
      emptied = true;
    }
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
