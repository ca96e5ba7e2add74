#pragma once
// Deterministic discrete-event-simulation (DES) kernel.  The cloud
// fork-join cluster simulator, the task-DAG scheduler, and the
// intermittent-computing sensor simulator all run on this.
//
// Determinism contract: events with equal timestamps fire in scheduling
// order (a monotone sequence number breaks ties), so a simulation driven
// by a seeded Rng reproduces exactly, which the test suite relies on.
//
// Event queue: a two-tier ladder/calendar queue.  Near-future events live
// in a ring of `kBucketCount` time buckets; far-future events wait in a
// sorted-run overflow tier and migrate into the ladder when its window
// reaches them.
// Scheduling and firing are O(1) amortized instead of the O(log n) of one
// big binary heap, and the small per-bucket arrays stay cache-resident.
// Only the bucket under the cursor is ordered: it is sorted once when
// the cursor reaches it and stays sorted (an in-order insert appends, an
// out-of-order one shifts into place), so pops are front advances and
// drains are prefix slices.
//
// Memory layout (structure-of-arrays): each ladder bucket stores its
// events as two parallel lanes -- a 16-byte key lane (timestamp, seq)
// that every comparison touches, and an 8-byte payload lane (cancel slot,
// action index) that is only read when an event actually fires.  Ordered
// inserts and drain scans therefore stream through densely packed keys (4
// per cache line) instead of 24-byte mixed records, and a 1-bit-per-bucket
// occupancy bitmap lets the cursor skip runs of 64 empty buckets with one
// count-trailing-zeros.  Ordering is decided purely by (timestamp, seq)
// -- bucket geometry (width, window position, re-anchoring) and layout
// (SoA lanes, batch drains) affect performance only, never order, so the
// determinism contract is independent of the tuning heuristics
// (tests/test_des_queue.cpp replays seeded workloads against a reference
// binary heap and asserts identical execution order).
//
// Batched drain: run() slices every due event of the bucket under the
// cursor into a contiguous scratch span in one pass, then
// fires the span as a tight loop -- per-event peek/cursor/overflow checks
// are amortized over the whole bucket.  An action that schedules a new
// event below the drain's splice bound (everything outside the span is
// provably at or past it) has the event spliced into the sorted unfired
// remainder of the span, so it fires within the same drain -- a
// self-perpetuating stream chains through a whole bucket in one call --
// and batch execution order stays element-for-element identical to
// step()-at-a-time execution.
//
// Deferred insertion: reserve_seqs() hands out a block of sequence
// numbers that schedule_reserved() consumes later, so a presorted
// open-loop stream can enter the queue one element at a time (each
// element scheduling its successor) under exactly the keys up-front
// scheduling would have given it -- same order, a fraction of the
// queue and action-slab footprint.
//
// Cold start: the first anchor sizes the bucket width from execution
// history, or else from the pending backlog's span and population.  A
// backlog of only a few far-apart events (a kernel fed one streamed
// arrival at a time sees a handful of timers) says nothing about the
// event density, and its span can be most of the run: the width would
// be thousands of event gaps, every event would land in the bucket
// under the cursor, and the whole run would become one batched drain.
// So until the gap estimator has a few samples, such a kernel fires
// straight from the overflow tier and anchors the ladder only then.
//
// Cancellation: schedule_cancellable() stamps the event with a slot index
// into a generation-counted side table, so cancel() is one array indexing
// plus a generation compare -- O(1), no hashing, no allocation once the
// slot free list is warm.  Cancelled events are discarded lazily when
// their timestamp is reached.

#include <array>
#include <cstdint>
#include <vector>

#include "util/inline_function.hpp"

namespace arch21::obs {
class TraceBuffer;
}

namespace arch21::des {

/// Simulation time, in seconds.
using Time = double;

/// Handle to an event scheduled with schedule_cancellable(): a slot index
/// into the simulator's cancellation table plus the slot's generation at
/// scheduling time.  When the event fires or is discarded the slot's
/// generation is bumped and the slot reused, so stale handles (kept after
/// their event resolved) can never cancel an unrelated later event.
/// Default-constructed handles are invalid; cancel() on them is a no-op.
struct EventHandle {
  static constexpr std::uint32_t kInvalidSlot = 0xffffffffu;
  std::uint32_t slot = kInvalidSlot;
  std::uint32_t gen = 0;
  bool valid() const noexcept { return slot != kInvalidSlot; }
};

/// The event-driven simulator core.
class Simulator {
 public:
  /// Scheduled callables are stored in a recycled slab (indexed by the
  /// event record) -- no heap allocation per event for closures up to
  /// Action::capacity() bytes (sized so des::Resource's completion
  /// closure and the cluster simulator's handle-captured timers fit;
  /// verified by test_des and by static_asserts at the closure sites).
  /// Larger closures fall back to the heap.  Actions may be move-only.
  using Action = InlineFunction<56>;

  /// Current simulation time.
  Time now() const noexcept { return now_; }

  /// Schedule `action` to run `delay` seconds from now (delay >= 0).
  /// Every scheduling entry point takes the action by rvalue reference
  /// and moves it exactly once, into its slab slot.
  void schedule(Time delay, Action&& action) {
    schedule_at(now_ + delay, std::move(action));
  }

  /// Schedule `action` at absolute time `t` (must be >= now()).
  void schedule_at(Time t, Action&& action);

  /// Deferred insertion: reserve a block of `n` consecutive sequence
  /// numbers now and return the first.  An event later scheduled with
  /// schedule_reserved() under one of them gets the (t, seq) key it
  /// would have had if it were scheduled at reservation time, so it
  /// fires in exactly the same order -- but it occupies no queue or slab
  /// storage until then.  A presorted open-loop stream reserves one seq
  /// per element and has each element schedule its successor, keeping a
  /// single stream event pending instead of the whole stream.
  std::uint64_t reserve_seqs(std::uint64_t n) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Schedule `action` at absolute time `t` under `seq`, a sequence
  /// number from reserve_seqs() that no other event uses.  Throws
  /// std::invalid_argument unless seq was reserved, t >= now() and
  /// (t, seq) is strictly after the key of the last executed event --
  /// the event firing now, when called from an action.  That keeps the
  /// batched drain's splice point strictly after the firing element,
  /// exactly as for a freshly numbered event.
  void schedule_reserved(Time t, std::uint64_t seq, Action&& action);

  /// One (time, action) entry of a schedule_n() batch.
  struct TimedAction {
    Time t;
    Action action;
  };

  /// Batch scheduling: equivalent to calling schedule_at(evs[i].t,
  /// move(evs[i].action)) for i in [0, n) -- sequence numbers are
  /// assigned in span order, so same-time events fire in span order and
  /// the call is a drop-in replacement for the loop -- but the
  /// validation, action-slab growth, and ladder-window estimator updates
  /// are amortized over the whole span (one pass, one reservation, one
  /// spread update).  The PDES window-commit path feeds each window's
  /// sorted cross-LP message batch through this.  Actions are moved from;
  /// the caller may reuse the span's storage afterwards.
  void schedule_n(TimedAction* evs, std::size_t n);

  /// Schedule a *cancellable* event (the timeout/hedge-timer primitive of
  /// the resilience layer).  Costs one slot in the generation-stamped
  /// cancellation table; both this and the plain path are allocation-free
  /// in steady state (the slot free list recycles).
  EventHandle schedule_cancellable(Time delay, Action&& action) {
    return schedule_cancellable_at(now_ + delay, std::move(action));
  }

  /// Cancellable variant of schedule_at().
  EventHandle schedule_cancellable_at(Time t, Action&& action);

  /// Cancel a pending cancellable event.  Returns true if the event was
  /// still pending (it will now never fire); false if it already fired,
  /// was already cancelled, or the handle is invalid.  A cancelled event
  /// is discarded lazily when its timestamp is reached -- it does not
  /// advance the clock, count as executed, or run its action.  O(1).
  bool cancel(EventHandle h);

  /// Number of cancelled events discarded so far.
  std::uint64_t cancelled() const noexcept { return cancelled_; }

  /// Run until the event queue drains or `until` is reached (whichever is
  /// first).  Returns the number of events executed.  Uses the batched
  /// bucket drain internally; execution order is element-for-element
  /// identical to calling step() in a loop (differentially tested).
  /// Not reentrant: an action must not call run()/step() on its own
  /// simulator (it may schedule and cancel freely).
  std::uint64_t run(Time until = kForever);

  /// Execute exactly one event if any is pending before `until`.
  /// Returns true if an event ran.
  bool step(Time until = kForever);

  /// True if no events are pending.
  bool idle() const noexcept { return size_ == 0; }

  /// Timestamp of the earliest pending event, or kForever when idle.
  /// A cancelled-but-undiscarded event still reports its timestamp (it
  /// occupies the queue until reached), so the value is a lower bound on
  /// the next *execution* -- exactly what the conservative PDES window
  /// computation needs.  May advance the bucket cursor / re-anchor the
  /// ladder internally; geometry changes never affect event order.
  Time next_time() {
    const Key* head = peek();
    return head ? head->t : kForever;
  }

  /// Number of pending events (cancelled-but-not-yet-discarded events
  /// still count until their timestamp passes).
  std::size_t pending() const noexcept { return size_; }

  /// Total events executed since construction.
  std::uint64_t executed() const noexcept { return executed_; }

  /// In-place ladder re-fits (see maybe_rebucket()) since construction,
  /// and the events they re-placed.  Geometry bookkeeping only: neither
  /// can affect event order.  The amortization gate keeps
  /// refit_moves() <= executed().
  std::uint64_t refits() const noexcept { return refits_; }
  std::uint64_t refit_moves() const noexcept { return refit_moves_; }
  /// Inserts spliced into the unfired remainder of an active batched
  /// drain (see drain_bucket()).  Geometry bookkeeping like refits():
  /// the splice bound depends on bucket width, never on event order.
  std::uint64_t spliced() const noexcept { return spliced_; }
  /// Current ladder bucket width (0 before the first anchor).
  Time bucket_width() const noexcept { return width_; }

  /// Pre-size the event storage for an expected number of simultaneously
  /// outstanding events: the overflow tier (which absorbs everything
  /// scheduled ahead of the first run()) *and* the cancellable slot table
  /// and its free list.  The resilience path arms a timeout/hedge timer
  /// per leaf call, so cancellable events dominate schedule-heavy runs;
  /// pre-sizing both keeps the whole hot loop free of growth
  /// reallocations (the cloud cluster sim schedules millions of events).
  void reserve(std::size_t events) {
    overflow_.reserve(events);
    overflow_staging_.reserve(events);
    actions_.reserve(events);
    free_actions_.reserve(events);
    slots_.reserve(events);
    free_slots_.reserve(events);
  }

  static constexpr Time kForever = 1e300;

  /// Attach an observability trace: every executed event emits a
  /// "des.fire" instant and every lazily-discarded cancelled event a
  /// "des.discard" instant on track `tid` of `t` (timestamps in
  /// simulation time; nullptr detaches).  `tid` defaults to the
  /// historical track 0; the PDES engine gives each logical process's
  /// kernel its own track so per-LP event streams stay separable in the
  /// Chrome trace.  The hook is read-only -- it can never change event
  /// order or simulation results -- and costs one pointer test per event
  /// while detached.
  void set_trace(obs::TraceBuffer* t, std::uint32_t tid = 0);

 private:
  /// 16-byte key lane entry: everything a comparison needs.  Keys are
  /// unique ((t, seq) with a process-monotone seq), so sorting them gives
  /// THE order -- bucket fill order, SoA lanes, and batch drains can
  /// never reorder two events.
  struct Key {
    Time t;
    std::uint64_t seq;
  };
  /// 8-byte payload lane entry, touched only when an event fires.
  struct Ref {
    std::uint32_t slot;  // cancellation slot, or kNoSlot for plain events
    std::uint32_t act;   // index into the action slab
  };
  /// Combined record: the overflow tier (cold, churned rarely) and the
  /// drain scratch span keep the joined form.
  struct Event {
    Time t;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t act;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };
  static bool earlier(const Key& a, const Key& b) noexcept {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }
  /// One ladder bucket: parallel key/payload lanes, unordered until the
  /// cursor reaches it and sorted from then on (see sorted_bucket_);
  /// comparisons read keys only and moves carry both lanes in lockstep.
  struct Bucket {
    std::vector<Key> keys;
    std::vector<Ref> refs;
  };
  struct CancelSlot {
    std::uint32_t gen = 0;
    bool live = false;       // bound to a pending event
    bool cancelled = false;  // cancel() called, discard pending
  };

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::size_t kBucketBits = 13;
  static constexpr std::size_t kBucketCount = std::size_t{1} << kBucketBits;
  static constexpr std::size_t kBucketMask = kBucketCount - 1;
  /// Mean inter-event gaps per bucket: ~1 targets the ideal calendar
  /// occupancy (near-singleton buckets cost almost nothing to sort);
  /// much below that the cursor wastes time skipping empty buckets.
  static constexpr double kGapsPerBucket = 4.0;
  /// Samples the gap estimator averages over (an exact running mean for
  /// the first kGapWindow nonzero gaps, then an EWMA of weight
  /// 1/kGapWindow).  It must span several cycles of the workload's own
  /// burstiness: a fan-out packs a hundred replies into a few ms and
  /// then idles until the next arrival, and an estimator that sees less
  /// than one such cycle swings by more than the 2x re-fit hysteresis.
  static constexpr std::uint64_t kGapWindow = 256;
  /// Largest bucket storage (in events) kept across visits; see
  /// retire_bucket().  4x the kGapsPerBucket target occupancy.
  static constexpr std::size_t kRetainedCapacity = 16;
  /// The window must span this multiple of the observed live scheduling
  /// horizon (max delay of events scheduled while running), so events
  /// scheduled `spread` ahead land mid-window -- and because the insert
  /// window *slides* with the cursor, they keep landing in the ladder
  /// without any re-anchor; the overflow tier stays a slow path.  2x is
  /// enough for that and keeps buckets twice as fine as a larger slack
  /// would (lower occupancy = cheaper pops).
  static constexpr double kSpreadSlack = 2.0;
  /// Cold start (see cold_backlog()): a backlog of fewer events than
  /// this, spread over more than one instant, is too sparse to size the
  /// first bucket width from; the kernel waits for this many nonzero
  /// execution gaps instead.
  static constexpr std::size_t kColdBacklog = 64;
  static constexpr std::uint64_t kColdGapSamples = 16;
  static constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};

  /// Sort both lanes of `b` ascending by key (one contiguous introsort),
  /// when the cursor first reaches it.  Pops are then O(1) front advances
  /// (cur_head_) and drains are prefix slices.
  void sort_bucket(Bucket& b);
  /// Discard already-cancelled events from `b` in one compaction pass
  /// (run when the cursor first reaches the bucket, before sorting).
  /// The discard bookkeeping is byte-identical to the lazy fire-time
  /// path -- it just happens earlier, which no result can observe (a
  /// discard never advances the clock, runs code, or appears in the
  /// order log) -- and the timeout-heavy workloads where most events die
  /// cancelled skip the sort/drain/fire cost for all of them.
  void purge_cancelled(Bucket& b);

  /// Update the scheduling-horizon estimator, then place().
  void insert(Event ev);
  /// Drop `ev` into its ladder bucket or the overflow tier (no estimator
  /// update -- schedule_n() amortizes that over a whole span).
  void place(Event ev);
  /// Absolute ladder bucket of time `t` under the current geometry,
  /// clamped up to the cursor, or kNoBucket if `t` lies past the window.
  std::uint64_t bucket_of(Time t) const noexcept;
  /// The one bucket placement: push `ev` into its bucket (keeping the
  /// cursor bucket sorted) and ++ladder_size_, or return false, touching
  /// nothing, if it lies past the window.  The caller accounts size_.
  bool place_ladder(const Event& ev);
  /// Append `ev` to the overflow staging tail (caller accounts size_).
  void stage(const Event& ev);
  /// Move the overflow head -- and every further overflow event the
  /// sliding window now covers -- into the ladder buckets, so they fire
  /// through batched drains instead of one at a time off the overflow tier.
  void migrate_overflow();
  bool overflow_empty() const noexcept {
    return overflow_.empty() && overflow_staging_.empty();
  }
  /// Minimum key across both overflow regions (sorted run back + cached
  /// staging minimum).  Precondition: !overflow_empty().
  Key overflow_head() const noexcept {
    if (overflow_.empty()) return staging_min_;
    const Event& e = overflow_.back();
    const Key k{e.t, e.seq};
    return earlier(staging_min_, k) ? staging_min_ : k;
  }
  /// Fold the staging tail into the sorted run: one sort of the tail plus
  /// one in-place merge, amortized O(log n) per staged event.  Leaves the
  /// tail empty and staging_min_ at its sentinel.
  void overflow_merge_staging();
  /// Park `a` in the action slab (recycling a freed index when one is
  /// available) and return its index.
  std::uint32_t store_action(Action&& a);
  /// Key of the earliest pending event, advancing the bucket cursor /
  /// re-anchoring as needed.  Sets head_in_overflow_.  nullptr if nothing
  /// pending.
  const Key* peek();
  /// Pop the event peek() just returned (no mutation may happen between).
  Event pop_head();
  /// Before the first anchor: true while the backlog is cold -- fewer
  /// than kColdBacklog events over more than one instant, and fewer than
  /// kColdGapSamples execution gaps to size the width from instead.  A
  /// backlog at a single instant is not cold: it gets the fixed
  /// fallback width, a constant rather than a share of the run, which
  /// the fresh-bucket re-fit check corrects within one bucket's worth of
  /// events.  Folds the overflow staging tail into the sorted run.
  bool cold_backlog();
  /// Pop the overflow head peek() just returned (cold start only).
  Event pop_overflow();
  /// Fire one event outside a batched drain, keeping fired_key_ (the
  /// lower bound of schedule_reserved()) at the last executed key.
  bool fire_single(const Event& ev);
  /// The width policy shared by reanchor() and maybe_rebucket():
  /// max(kGapsPerBucket mean execution gaps, the spread rule), with
  /// `span` / `n` (a backlog's time span and population) standing in for
  /// the mean gap before any execution history exists.
  double fit_width(double span, std::size_t n) const noexcept;
  /// Restart absolute bucket numbering at `origin` under `width`.
  void anchor(Time origin, double width);
  /// Re-seat the ladder window at the overflow minimum and pull every
  /// overflow event inside the new window into its bucket: one O(n)
  /// partition of the staging tail, then the window prefix of the
  /// sorted run.
  void reanchor();
  /// Geometry misfit check, run when the cursor enters a fresh bucket:
  /// if the width the anchor policy would pick *now* disagrees with the
  /// live width by more than 2x either way, re-place every live ladder
  /// event under the new width.  A re-fit costs O(live ladder events),
  /// so it may run only once the executions since the last anchor reach
  /// max(64, ladder population): each re-fit is paid for by at least as
  /// many executed events as it moves, and refit_moves() <= executed()
  /// always holds; the 2x hysteresis alone bounds nothing when the gap
  /// estimate is noisy.  Returns true if the ladder was re-anchored, in which case the
  /// caller must rescan from the restarted cursor.  This is what rescues
  /// a ladder whose first anchor had no execution history to consult --
  /// e.g. a per-LP PDES kernel seeded with one event whose fallback
  /// width lands far from the real event gap.
  bool maybe_rebucket();
  /// Empty ring slot `ring` after its last event left: clear its
  /// occupancy bit and reset cur_head_.  A bucket whose storage grew
  /// past kRetainedCapacity (a burst of same-instant events -- a fan-out's
  /// timeouts all land in one bucket at any width) frees it instead of
  /// keeping it: the cursor sweeps every ring slot, so retained storage
  /// would grow to the largest burst any slot ever held.
  void retire_bucket(std::size_t ring);
  /// Fire (or lazily discard) one popped event: the shared body of
  /// step() and the batched drain.  Returns true if the action executed.
  bool fire_event(const Event& ev);
  /// Batched drain of the sorted cursor bucket: slice every event
  /// due by `until` and before the overflow head into scratch_, then
  /// fire the span, absorbing intruders in place.  Returns events
  /// executed.
  std::uint64_t drain_bucket(Time until);
  void occ_set(std::size_t ring) noexcept {
    occ_[ring >> 6] |= std::uint64_t{1} << (ring & 63);
  }
  void occ_clear(std::size_t ring) noexcept {
    occ_[ring >> 6] &= ~(std::uint64_t{1} << (ring & 63));
  }

  // Buckets are ordered *lazily*: a bucket is a plain append vector
  // until the cursor reaches it (sorted_bucket_ tracks the one bucket
  // currently kept sorted), so bulk pre-run scheduling is O(1) per
  // event instead of O(log n).
  std::array<Bucket, kBucketCount> buckets_;
  /// One bit per ring bucket, set iff the bucket is nonempty; the cursor
  /// advance scans 64 buckets per word instead of touching 64 Bucket
  /// headers.
  std::array<std::uint64_t, kBucketCount / 64> occ_{};
  /// Overflow tier: far-future events beyond the ladder window, kept as
  /// a descending-sorted run (minimum at the back, so migrating the
  /// window prefix into the ladder is an O(1) pop per event) plus an
  /// unsorted staging tail for recent inserts with its minimum cached
  /// (insert O(1), min query O(1)).  Staging folds into the run with
  /// one sort + inplace_merge only when an event must leave the tier --
  /// amortized O(log n) per event with contiguous, branch-light passes
  /// instead of the pointer-chasing sift of a binary heap.
  std::vector<Event> overflow_;          // sorted descending by key
  std::vector<Event> overflow_staging_;  // unsorted inserts since merge
  Key staging_min_{kForever, ~std::uint64_t{0}};  // sentinel when empty
  std::size_t ladder_size_ = 0;  // events across all buckets
  std::size_t size_ = 0;         // ladder + overflow
  std::uint64_t cur_bucket_ = 0; // absolute bucket number of the cursor
  std::uint64_t sorted_bucket_ = kNoBucket;  // abs number, or kNoBucket
  /// First live index of the sorted cursor bucket: consumed events are a
  /// dead prefix instead of being erased.  Inserts that arrive in key
  /// order (the common append pattern) append; an out-of-order insert
  /// shifts into place after cur_head_.  0 whenever the cursor moves on,
  /// since the cursor leaves a bucket only after retire_bucket().
  std::size_t cur_head_ = 0;
  double origin_ = 0;            // time of absolute bucket 0
  double width_ = 0;             // bucket width; 0 = ladder not anchored
  double gap_ewma_ = 0;          // mean nonzero inter-execution gap
  std::uint64_t gap_samples_ = 0;  // gaps folded in, capped at kGapWindow
  double live_spread_ = 0;       // decaying max of (t - now) over inserts
  std::uint64_t anchor_executed_ = 0;  // executed_ at the last (re)anchor
  Time last_exec_t_ = 0;
  /// Key of the last event executed outside the running drain (step(),
  /// a cold-start firing, or a finished drain's last execution):
  /// schedule_reserved()'s lower bound when no drain is active.  Inside
  /// a drain the bound is the firing span element, so the per-event
  /// path stores nothing.
  Key fired_key_{-kForever, 0};
  bool head_in_overflow_ = false;
  /// Copy of the overflow head's key when head_in_overflow_ (peek()
  /// returns a pointer to it; bucket heads are pointed at in place).
  Key overflow_head_key_{0, 0};

  /// Batched-drain state: the scratch span of popped-but-unfired events
  /// plus the active drain's splice bound -- a key at or above every
  /// span element and at or below every pending event outside the span
  /// (see drain_bucket() for its construction), so one compare in
  /// place() routes each new insert: below the bound it *must* fire in
  /// this drain and is spliced into the unfired remainder [batch_pos_,
  /// end) at its key position (the span stays sorted and the drain never
  /// aborts); at or above the bound it takes the normal ladder/overflow
  /// path.  The splice position is always strictly after the element
  /// being fired -- an action runs at t = now_, schedules at t >= now_,
  /// and draws a fresh monotone seq -- so the fired prefix is never
  /// disturbed.  batch_limit_'s sentinel (-inf) compares earlier than
  /// every real key, so the splice test is branch-predictable false
  /// outside a drain.
  std::vector<Event> scratch_;
  std::vector<Event> sort_buf_;  // joined staging for sort_bucket()
  Key batch_limit_{-kForever, 0};
  std::size_t batch_pos_ = 0;  // next scratch_ index the drain will fire

  std::vector<Action> actions_;
  std::vector<std::uint32_t> free_actions_;

  std::vector<CancelSlot> slots_;
  std::vector<std::uint32_t> free_slots_;

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t refits_ = 0;
  std::uint64_t refit_moves_ = 0;
  std::uint64_t spliced_ = 0;

  obs::TraceBuffer* trace_ = nullptr;
  std::uint32_t trace_tid_ = 0;   // track carrying this kernel's instants
  std::uint32_t tr_fire_ = 0;     // interned "des.fire"
  std::uint32_t tr_discard_ = 0;  // interned "des.discard"
  std::uint32_t tr_refit_ = 0;    // interned "des.refit"
  std::uint32_t tr_moves_ = 0;    // interned "moves" (des.refit's arg)
};

}  // namespace arch21::des
