#pragma once
// Conservative parallel DES (PDES) engine: shards one scenario across
// logical processes (des/lp.hpp) executed by the work-stealing
// ThreadPool under window synchronization.
//
// Window algorithm (one iteration of ParallelEngine::run's loop):
//   1. barrier drain (serial): move every (src, dst) mailbox into the
//      destination LP's pending buffer.  parallel_run's return is the
//      happens-before edge, so this is race-free without atomics.
//   2. horizon: tmin = min over LPs of (kernel head time, pending
//      message times).  If tmin > until, the run is complete.
//   3. window end = min(until, tmin + lookahead).  Every cross-LP send
//      has delay >= lookahead, so no event executing in [tmin, end] can
//      cause an arrival at or before `end` that is not already pending
//      -- the conservative-safety invariant.
//   4. parallel phase: each LP independently commits its due messages
//      (sorted canonically, scheduled via one schedule_n batch) and runs
//      its private kernel through `end` (Lp::commit_and_run).
//
// Why determinism survives (DESIGN.md "Parallel kernel" has the long
// form): the drain collects *all* messages produced by completed
// windows, so the pending sets -- and from them tmin, the window end,
// each LP's commit batch, and the canonical (t, sent_at, src, seq) batch
// order -- are pure functions of simulation state, never of thread
// timing.  LPs share no mutable state during the parallel phase, each
// kernel executes in its own (t, seq) order, and end-of-run folds
// (stats, ClusterResult merges) walk LPs in index order.  Results are
// therefore bit-identical at any worker count, pinned by
// tests/test_pdes.cpp differentially against LoopbackEngine below.
//
// LoopbackEngine is that serial reference: the identical scenario-facing
// surface (lps / lp(i) / send / handler / run) backed by ONE unchanged
// des::Simulator, with send() lowered to a plain schedule() plus a
// per-destination inbox that hands same-instant messages over in the
// canonical order.  Scenarios
// are written once, templated over the engine, and replayed through
// both -- the ReferenceSimulator pattern from the ladder-queue PR lifted
// one level up.

#include <cstdint>
#include <functional>
#include <memory>
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

  /// `spec` is validated (throws on lookahead <= 0); `pool` supplies the
  /// workers -- pass a 1-thread pool for a serial parallel engine (same
  /// results, by contract).
  ParallelEngine(const PartitionSpec& spec, ThreadPool& pool);

  std::uint32_t lps() const noexcept {
    return static_cast<std::uint32_t>(lps_.size());
  }
  double lookahead() const noexcept { return spec_.lookahead; }
  Lp& lp(std::uint32_t i) { return *lps_[i]; }

  /// Run every LP until all of them are quiet past `until` (or forever
  /// on the default).  Returns events executed by this call.  May be
  /// called repeatedly with increasing horizons, like Simulator::run.
  std::uint64_t run(Time until = Simulator::kForever);

  Stats stats() const;

  /// Total events executed / cancelled across LPs (id order).
  std::uint64_t executed() const;
  std::uint64_t cancelled() const;

#if ARCH21_OBS_ENABLED
  /// Publish run counters into the global metrics registry
  /// (pdes.window.count, pdes.mailbox.sent / .committed /
  /// .max_pending).  Counters are integers folded from barrier state,
  /// so published values are identical at any worker count.
  void publish_metrics() const;
#endif

 private:
  friend class Lp;
  /// Barrier phase: drain every mailbox into its destination's pending
  /// buffer and update the message counters.
  void drain();

  PartitionSpec spec_;
  ThreadPool& pool_;
  std::vector<std::unique_ptr<Lp>> lps_;
  Stats stats_;
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
