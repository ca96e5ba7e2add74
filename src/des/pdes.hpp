#pragma once
// Conservative parallel DES (PDES) engine: shards one scenario across
// logical processes (des/lp.hpp) executed by a persistent worker team
// under window synchronization.
//
// The team: each run() call submits T-1 long-lived member tasks to the
// ThreadPool the engine was built with, and the calling thread is member
// 0, so the pool stays the only owner of threads.  T = min(pool size, LP
// count, hardware threads); LP i belongs to member i mod T for the whole
// run.  Members meet once per window at a sense-reversing barrier where
// a waiter spins (yielding its core now and then), and only after a
// bounded time parks on std::atomic::wait.
//
// One window is one fused phase per LP (Lp::run_window), then the
// barrier:
//   1. pull: move my inbound column -- the messages every source LP sent
//      me last window -- into my pending buffer.  Outboxes are double-
//      buffered by window parity: window k writes buffer k%2 and reads
//      buffer (k-1)%2, so no buffer is written and read in one phase.
//   2. commit_and_run(end): commit the pending messages due by `end` in
//      canonical MessageEarlier order (one schedule_n batch), then run
//      the private kernel through `end`.
//   3. publish my lower bound: min(kernel head, earliest leftover
//      pending message, earliest message I sent this window).
// The last member to arrive at the barrier reduces the published bounds
// in LP-index order into tmin, and either ends the run (tmin > until) or
// sets the next window end = min(until, tmin + lookahead), flips the
// parity and counts the window.  Every cross-LP send has delay >=
// lookahead, so no event executing in [tmin, end] can cause an arrival
// at or before `end` that is not already in flight -- the
// conservative-safety invariant.  The barrier's acquire/release pair is
// the happens-before edge between a window's writes and the next
// window's reads, so mailboxes and published bounds are plain memory.
//
// Why determinism survives (DESIGN.md "Parallel kernel" has the long
// form): the published bounds cover every message in flight, so tmin,
// the window end, each LP's commit batch, and the canonical (t, sent_at,
// src, seq) batch order are pure functions of simulation state, never of
// thread timing or of which member ran which LP.  LPs share no mutable
// state during a phase, each kernel executes in its own (t, seq) order,
// and end-of-run folds (stats, ClusterResult merges) walk LPs in index
// order.  Results are therefore bit-identical at any worker count,
// pinned by tests/test_pdes.cpp differentially against LoopbackEngine
// below.
//
// LoopbackEngine is that serial reference: the identical scenario-facing
// surface (lps / lp(i) / send / handler / run) backed by ONE unchanged
// des::Simulator, with send() lowered to a plain schedule() plus a
// per-destination inbox that hands same-instant messages over in the
// canonical order.  Scenarios
// are written once, templated over the engine, and replayed through
// both -- the ReferenceSimulator pattern from the ladder-queue PR lifted
// one level up.

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "des/lp.hpp"
#include "des/mailbox.hpp"
#include "des/partition.hpp"
#include "des/simulator.hpp"
#include "util/thread_pool.hpp"

namespace arch21::des {

class ParallelEngine {
 public:
  /// Worker-count-independent run counters (all derived from barrier
  /// state; see the file comment).
  struct Stats {
    std::uint64_t windows = 0;      ///< synchronization windows executed
    std::uint64_t sent = 0;         ///< cross-LP messages produced
    std::uint64_t committed = 0;    ///< messages delivered into kernels
    std::size_t max_pending = 0;    ///< high-water of one LP's pending
                                    ///< buffer at a barrier
    std::uint64_t executed = 0;     ///< sum of LP kernels' executed()
    std::uint64_t cancelled = 0;    ///< sum of LP kernels' cancelled()
  };

  /// Host-timed cost of one team member, summed over its windows: time
  /// spent running its LPs' phases and time spent at the barrier.  Wall
  /// clock, so -- unlike Stats -- it varies from run to run.
  struct MemberTime {
    std::uint64_t busy_ns = 0;
    std::uint64_t wait_ns = 0;
  };

  /// `spec` is validated (throws on lookahead <= 0); `pool` supplies the
  /// team members -- pass a 1-thread pool for a serial parallel engine
  /// (same results, by contract).  The pool must outlive the engine, and
  /// run() occupies team_size() - 1 of its workers until it returns.
  ParallelEngine(const PartitionSpec& spec, ThreadPool& pool);
  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  std::uint32_t lps() const noexcept {
    return static_cast<std::uint32_t>(lps_.size());
  }
  double lookahead() const noexcept { return spec_.lookahead; }
  Lp& lp(std::uint32_t i) { return *lps_[i]; }

  /// Run every LP until all of them are quiet past `until` (or forever
  /// on the default).  Returns events executed by this call.  May be
  /// called repeatedly with increasing horizons, like Simulator::run.
  /// An exception thrown by an event handler stops the team at the next
  /// barrier and is rethrown here (the first one, if several LPs throw);
  /// the engine is then only fit to be destroyed.
  std::uint64_t run(Time until = Simulator::kForever);

  Stats stats() const;

  /// Team members used by run(): min(pool size, LP count, hardware
  /// threads).
  unsigned team_size() const noexcept {
    return static_cast<unsigned>(member_times_.size());
  }
  /// Per-member busy / barrier-wait time, member 0 (the caller) first,
  /// accumulated over every run() call.
  std::vector<MemberTime> member_times() const;

  /// Total events executed / cancelled across LPs (id order).
  std::uint64_t executed() const;
  std::uint64_t cancelled() const;

#if ARCH21_OBS_ENABLED
  /// Publish run counters into the global metrics registry
  /// (pdes.window.count, pdes.mailbox.sent / .committed /
  /// .max_pending), all integers folded from barrier state and so
  /// identical at any worker count, plus the team's host-timed totals
  /// (pdes.team.busy_ns / .wait_ns), which are not.
  void publish_metrics() const;
#endif

 private:
  friend class Lp;

  /// Cache-line-padded per-member clock, written only by its member.
  struct alignas(64) MemberSlot {
    MemberTime t;
  };

  /// Serial, between runs: move every outbox (both parities) into its
  /// destination's pending buffer and fold the pending high-water.
  /// Returns the earliest pending message or kernel head over all LPs.
  Time settle();
  /// Team member `m`: run windows over LPs m, m+T, ... until the barrier
  /// reports the run done.
  void member(unsigned m);
  /// Arrive at the window barrier at host time `arrived_ns`; the last
  /// arriver runs close_window().  Returns once every member has arrived;
  /// a waiter spins, then parks (see kSpinNs in pdes.cpp).
  void arrive(unsigned& sense, std::uint64_t arrived_ns);
  /// Last arriver only: reduce the published bounds into the next
  /// window (or the end of the run).
  void close_window();

  PartitionSpec spec_;
  ThreadPool& pool_;
  std::vector<std::unique_ptr<Lp>> lps_;
  Stats stats_;
  std::vector<MemberSlot> member_times_;

  // Window state: written by the last arriver at a barrier (or by the
  // caller before the team starts), read by every member after it.
  Time until_ = 0;
  Time end_ = 0;
  unsigned parity_ = 0;  // outbox buffer written by the current window
  bool done_ = false;

  // Sense-reversing barrier.
  std::atomic<unsigned> arrived_{0};
  std::atomic<unsigned> sense_{0};
  std::atomic<unsigned> parked_{0};  // members inside sense_.wait()
  std::atomic<unsigned> running_{0};  // members 1..T-1 not yet returned

  // First handler exception of this run.  Members set it under the
  // mutex; the last arriver and the caller read it after a barrier.
  std::mutex error_mu_;
  std::exception_ptr error_;
};

/// Serial reference engine: the same scenario surface on one shared
/// des::Simulator.  See the file comment.
class LoopbackEngine {
 public:
  class Lp {
   public:
    using Handler = std::function<void(Lp&, const Payload&)>;

    std::uint32_t id() const noexcept { return id_; }
    Time now() const noexcept;
    Simulator& sim() noexcept;
    void set_handler(Handler h) { handler_ = std::move(h); }
    /// Same validation as the parallel engine's send (so a scenario that
    /// runs here also runs there), lowered to one schedule() on the
    /// shared kernel.  A remote message waits in the destination's inbox
    /// and each delivery event hands over the inbox head, so messages
    /// due at the same instant arrive in the parallel engine's canonical
    /// MessageEarlier order, not in global send order.
    void send(std::uint32_t dst, Time delay, const Payload& p);

   private:
    friend class LoopbackEngine;
    /// Pop the inbox head and run the handler on it.
    void deliver_next();

    LoopbackEngine* engine_ = nullptr;
    std::uint32_t id_ = 0;
    std::uint64_t send_seq_ = 0;  // per-source seq, as on the parallel LP
    Handler handler_;
    std::vector<Message> inbox_;  // min-heap in MessageEarlier order
  };

  explicit LoopbackEngine(const PartitionSpec& spec);

  std::uint32_t lps() const noexcept {
    return static_cast<std::uint32_t>(lps_.size());
  }
  double lookahead() const noexcept { return spec_.lookahead; }
  Lp& lp(std::uint32_t i) { return *lps_[i]; }
  Simulator& sim() noexcept { return sim_; }

  std::uint64_t run(Time until = Simulator::kForever) {
    return sim_.run(until);
  }
  std::uint64_t executed() const noexcept { return sim_.executed(); }
  std::uint64_t cancelled() const noexcept { return sim_.cancelled(); }

 private:
  PartitionSpec spec_;
  Simulator sim_;
  std::vector<std::unique_ptr<Lp>> lps_;
};

}  // namespace arch21::des
