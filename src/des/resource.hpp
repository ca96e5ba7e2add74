#pragma once
// Queued resources on top of the DES kernel: a k-server station with a
// FIFO queue (the building block of M/M/k models and of the cloud
// module's leaf servers), plus utilization/wait accounting.
//
// For the resilience layer the station is *failable*: fail_all() models a
// crash -- every waiting job is dropped and every in-service job is
// abandoned (its completion callback never fires, and the unrendered
// service time is refunded from the busy-time account).  Clients that
// need to notice the loss arm their own timeout on the DES.
//
// Overload protection (server-side "Tail at Scale" mitigations): the
// queue can be *bounded* (QueuePolicy::capacity; a request arriving at a
// full queue is rejected synchronously -- the on_reject path -- and its
// callback never fires) and the dequeue order is pluggable: FIFO,
// adaptive LIFO (newest-first while the backlog exceeds a threshold, the
// overload discipline that keeps fresh requests inside their deadline),
// or deadline-aware FIFO that drops already-expired work at dequeue
// (CoDel-style sojourn target) instead of wasting a server on a request
// whose client has given up.  All disciplines are pure functions of the
// request sequence, so the (t,seq) determinism contract is untouched.
//
// Hot-path note: completion callbacks are InlineCallback (small-buffer,
// move-only), not std::function, and the FIFO is a ring buffer over a
// flat vector (pre-sized to `capacity` when bounded), so a steady-state
// request stream allocates nothing -- the cluster simulator pushes
// millions of requests per trial through these.

#include <cstdint>
#include <functional>
#include <vector>

#include "des/simulator.hpp"
#include "util/inline_function.hpp"
#include "util/stats.hpp"

namespace arch21::obs {
class TraceBuffer;
}

namespace arch21::des {

/// Dequeue order of a Resource's waiting line.
enum class QueueDiscipline : std::uint8_t {
  /// Arrival order -- the historical default; bit-compatible with the
  /// pre-overload-protection behaviour.
  kFifo,
  /// Newest-first while the backlog exceeds QueuePolicy::lifo_threshold,
  /// FIFO otherwise ("adaptive LIFO"): under overload the freshest
  /// requests -- the only ones whose clients are still waiting -- are
  /// served first, and the stale backlog ages out via client timeouts.
  kAdaptiveLifo,
  /// FIFO order, but a job whose queueing delay already exceeds
  /// QueuePolicy::sojourn_target when a server frees is dropped at
  /// dequeue (counted in expired()) instead of served -- the CoDel-style
  /// guard against burning servers on work whose client has timed out.
  kDeadline,
};

/// Server-side queue policy of one Resource.  Defaults reproduce the
/// historical unbounded-FIFO station exactly.
struct QueuePolicy {
  /// Maximum waiting jobs (not counting in-service); 0 = unbounded.
  /// A request that finds the queue full is rejected synchronously.
  std::size_t capacity = 0;
  QueueDiscipline discipline = QueueDiscipline::kFifo;
  /// kAdaptiveLifo: backlog depth strictly above which pops switch to
  /// newest-first.  0 = LIFO whenever any backlog exists.
  std::size_t lifo_threshold = 0;
  /// kDeadline: the sojourn budget; a waiter older than this at dequeue
  /// time is dropped.  Simulation time units (the cluster runs in ms).
  Time sojourn_target = 0;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// A service station with `servers` identical servers and a (by default
/// unbounded FIFO) queue.  Users call `request(service_time, on_done)`;
/// the resource queues the job if all servers are busy, serves it for
/// `service_time` simulated seconds, then invokes `on_done`.
class Resource {
 public:
  /// Completion callback: `on_done(wait, total)` fires at completion with
  /// the queueing delay and the total sojourn time.  Stored inline for
  /// closures up to 48 bytes (the cluster simulator's handle-captured
  /// completions fit); accepts nullptr for fire-and-forget requests.
  using DoneFn = InlineCallback<void(Time wait, Time total), 48>;

  Resource(Simulator& sim, std::uint32_t servers);
  Resource(Simulator& sim, std::uint32_t servers, QueuePolicy queue);

  /// Enqueue a job requiring `service_time` seconds of one server.
  /// Returns false -- and never fires `on_done` -- if the queue is
  /// bounded and full (the rejection is synchronous: in a real server
  /// this is the listen-backlog / load-shedder saying no at the door).
  /// Unbounded stations always return true.
  bool request(Time service_time, DoneFn&& on_done);

  /// Service-rate scaling -- the DVFS p-state hook.  A job *started* from
  /// now on takes `requested_service / speed` simulated time; in-flight
  /// jobs keep the rate they started at (a frequency change cannot reach
  /// back into work already scheduled).  speed = 1 reproduces the
  /// historical station bit-for-bit (IEEE division by 1.0 is exact).
  /// Throws std::invalid_argument unless speed is finite and > 0.
  void set_speed(double speed);
  double speed() const noexcept { return speed_; }

  /// Start gate -- the power-capping hook.  When set, the gate is asked
  /// `gate(effective_service)` immediately before any job would begin
  /// service (effective_service already reflects speed()).  Returning
  /// false leaves the job queued and *stalls* the station: no further
  /// starts happen (and the gate is not re-asked) until release_gate().
  /// Stalled jobs still occupy queue capacity, so a bounded queue keeps
  /// rejecting at the door.  The gate must be deterministic for the
  /// (t,seq) contract to hold.  nullptr detaches and un-stalls.
  using GateFn = std::function<bool(Time effective_service)>;
  void set_start_gate(GateFn gate);
  /// Clear a gate stall and start as many waiting jobs as free servers
  /// and the gate now permit.  Call after replenishing whatever budget
  /// made the gate refuse (e.g. at an energy-accounting window boundary)
  /// or after set_speed() raised the service rate.
  void release_gate();
  /// True while the station is refusing starts pending release_gate().
  bool gate_stalled() const noexcept { return stalled_; }
  /// Times the gate transitioned into a stall (budget-exhaustion events,
  /// not per-job refusals).
  std::uint64_t gate_stalls() const noexcept { return gate_stalls_; }

  /// Crash the station: drop all waiting jobs and abandon all in-service
  /// jobs.  Abandoned completions never fire, and busy-time accounting
  /// keeps only the service actually rendered before the crash.  The
  /// station immediately accepts new work (a recovered server).  Returns
  /// the number of jobs lost.  Jobs rejected at a full queue before the
  /// crash were never admitted, so they are not counted again here.
  std::size_t fail_all();

  std::uint32_t servers() const noexcept { return servers_; }
  std::uint32_t busy() const noexcept { return busy_; }
  std::size_t queue_length() const noexcept { return waiting_count_; }
  const QueuePolicy& queue_policy() const noexcept { return queue_; }

  /// Mean queueing delay across completed jobs.
  const OnlineStats& wait_stats() const noexcept { return wait_stats_; }
  /// Mean sojourn (wait + service) across completed jobs.
  const OnlineStats& sojourn_stats() const noexcept { return sojourn_stats_; }
  /// Completed job count.
  std::uint64_t completed() const noexcept { return completed_; }
  /// Jobs lost to fail_all() (waiting + in service at the crash).
  std::uint64_t dropped() const noexcept { return dropped_; }
  /// Jobs rejected at a full bounded queue (their on_done never fired).
  std::uint64_t rejected() const noexcept { return rejected_; }
  /// Jobs dropped at dequeue by the kDeadline discipline (sojourn target
  /// already blown when a server freed).
  std::uint64_t expired() const noexcept { return expired_; }
  /// Deepest backlog ever observed (for capacity sizing / the
  /// allocation-free audit: the ring never grows past this).
  std::size_t queue_high_water() const noexcept { return queue_high_water_; }
  /// Total busy server-seconds (for utilization = busy_time / (T*servers)).
  double busy_time() const noexcept { return busy_time_; }

  /// Attach an observability trace: each completed job emits a "serve"
  /// complete-span on track `base_tid + server_slot` (so spans on one
  /// track never overlap and nest cleanly in Perfetto), annotated with
  /// the job's queueing delay; jobs killed by fail_all() emit a
  /// truncated span annotated "killed".  Read-only -- never perturbs
  /// scheduling, accounting, or results.  nullptr detaches.
  void set_trace(obs::TraceBuffer* t, std::uint32_t base_tid);

 private:
  struct Job {
    Time arrival;
    Time service;
    DoneFn on_done;
  };
  // One in-service job per server slot.  The completion event captures
  // only (this, slot, epoch) -- well inside Simulator::Action's inline
  // capacity -- and the callback lives here, so a queued M/M/1-style run
  // still schedules allocation-free.  The epoch detects jobs killed by
  // fail_all(): a stale completion event finds a different epoch (or an
  // inactive slot) and does nothing.
  struct Slot {
    bool active = false;
    std::uint64_t epoch = 0;
    Time start = 0;
    Time wait = 0;
    Time service = 0;
    DoneFn on_done;
  };

  /// Put a job into a free server slot; `on_done` is moved once, into
  /// the slot.
  void start(Time arrival, Time service, DoneFn&& on_done);
  /// Dequeue per the discipline and start the first non-expired waiter
  /// (dropping expired ones under kDeadline).  Called when a server
  /// frees; no-op on an empty queue.  Returns without dequeuing if the
  /// start gate refuses the candidate (the station is then stalled).
  void start_next();
  /// Ask the gate about a prospective start; records the stall on refusal.
  bool gate_allows(Time effective_service);
  void on_complete(std::uint32_t slot, std::uint64_t epoch);
  /// The i-th waiter in arrival order (i < waiting_count_).
  Job& waiting_at(std::size_t i) noexcept {
    return waiting_[(waiting_head_ + i) & (waiting_.size() - 1)];
  }
  /// Append a waiter arriving now; `on_done` is moved once, into its
  /// ring slot.
  void waiting_push(Time service, DoneFn&& on_done);
  /// Remove the oldest / newest waiter, destroying its callback unless
  /// start() already moved it out.
  void waiting_pop_front() noexcept;
  void waiting_pop_back() noexcept;

  Simulator& sim_;
  std::uint32_t servers_;
  QueuePolicy queue_;
  std::uint32_t busy_ = 0;
  // FIFO ring over a flat vector: head_ walks forward, capacity is
  // retained across bursts, growth unrolls the ring in arrival order.
  // The ring's size is always a power of two, so an index wraps with a
  // mask instead of a division; a bounded queue's ring is the capacity
  // rounded up, and request() still rejects at queue_.capacity.
  // Adaptive LIFO pops the tail of the same ring, so both disciplines
  // share the allocation-free path.
  std::vector<Job> waiting_;
  std::size_t waiting_head_ = 0;
  std::size_t waiting_count_ = 0;
  std::vector<Slot> slots_;
  std::uint64_t next_epoch_ = 1;
  OnlineStats wait_stats_;
  OnlineStats sojourn_stats_;
  std::uint64_t completed_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t expired_ = 0;
  std::size_t queue_high_water_ = 0;
  double busy_time_ = 0;
  double speed_ = 1.0;
  GateFn gate_;
  bool stalled_ = false;
  std::uint64_t gate_stalls_ = 0;

  obs::TraceBuffer* trace_ = nullptr;
  std::uint32_t trace_base_tid_ = 0;
  std::uint32_t tr_serve_ = 0;     // interned "serve"
  std::uint32_t tr_wait_arg_ = 0;  // interned "wait"
  std::uint32_t tr_kill_arg_ = 0;  // interned "killed"
};

}  // namespace arch21::des
