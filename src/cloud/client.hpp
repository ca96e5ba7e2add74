#pragma once
// The client-policy core, written once and shared by every serving
// engine: the cluster engine (cluster_pdes.cpp, one class template whose
// transport is a direct call on a single kernel at zero latency and a
// message between LPs otherwise) and the multi-region balancer
// (region.cpp).
//
//   * BreakerBank -- per-replica bit-window circuit breakers, their
//     counters, and their own Rng stream;
//   * TokenBucket -- a bucket refilled over simulated time (cluster
//     admission, region caps);
//   * RetryBudgetBucket -- credited on first attempts, debited on retries;
//   * ClusterClient<Engine> -- everything the cluster root decides: the
//     query/call slabs, admission, budget, hedging, retries, timeouts,
//     the quorum deadline, breaker short-circuits and redirects, the gray
//     detector's send/evict hooks, goodput windows, trace markers, the
//     cluster.* metrics and the result epilogue.
//
// An engine derives from ClusterClient<Engine> (CRTP, so the send path
// stays a direct, inlinable call) and keeps only its transport and its
// server side.  It provides:
//   des::Simulator& client_sim();  -- the kernel the root runs on
//   void transmit(const QueryRef&, const CallRef&, double service_ms,
//                 unsigned leaf);  -- deliver one attempt to a leaf
//   bool engine_admits();          -- optional pre-admission gate
// and it resolves replies and rejects through note_reply(),
// call_answered() and note_reject().  The engine calls the setup steps
// (init_client, schedule_gray_evals, schedule_queries) itself, because
// the order of same-instant events depends on where they fall among its
// own injection events; the cluster engine uses one order for both of
// its transports.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/gray_detect.hpp"
#include "cloud/policy.hpp"
#include "des/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/slab.hpp"

namespace arch21::cloud {

/// The des.* counters of one trial's kernel: a des::Simulator, or a PDES
/// engine summing its LP kernels.
template <typename Kernel>
void publish_kernel_metrics(obs::MetricsRegistry& m, const Kernel& k) {
  m.add(m.counter("des.executed"), k.executed());
  m.add(m.counter("des.cancelled"), k.cancelled());
  m.add(m.counter("des.refits"), k.refits());
  m.add(m.counter("des.refit_moves"), k.refit_moves());
  m.add(m.counter("des.spliced"), k.spliced());
}

/// Token bucket refilled continuously over simulated milliseconds:
/// `rate_per_s` tokens per second up to `burst`, starting full.
class TokenBucket {
 public:
  TokenBucket() = default;
  TokenBucket(double rate_per_s, double burst) noexcept
      : tokens_(burst), rate_per_s_(rate_per_s), burst_(burst) {}

  /// Refill for the time since the last call (capped at burst), then
  /// take one token if a whole one is there.
  bool take(double now_ms) noexcept {
    tokens_ = std::min(
        burst_, tokens_ + (now_ms - last_ms_) * rate_per_s_ / 1000.0);
    last_ms_ = now_ms;
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

 private:
  double tokens_ = 0;
  double last_ms_ = 0;
  double rate_per_s_ = 0;
  double burst_ = 0;
};

/// Retry-budget bucket (RetryBudget semantics): every first attempt
/// credits `ratio` tokens up to `burst`, every retry takes a whole one.
class RetryBudgetBucket {
 public:
  RetryBudgetBucket() = default;
  RetryBudgetBucket(double ratio, double burst) noexcept
      : tokens_(burst), ratio_(ratio), burst_(burst) {}

  void credit() noexcept { tokens_ = std::min(tokens_ + ratio_, burst_); }
  bool take() noexcept {
    if (tokens_ < 1.0) return false;
    tokens_ -= 1.0;
    return true;
  }

 private:
  double tokens_ = 0;
  double ratio_ = 0;
  double burst_ = 0;
};

/// One circuit breaker per replica (CircuitBreakerPolicy semantics).  The
/// rolling outcome window is a bit set in one word (the policy caps the
/// window at 64), so recording an outcome is a handful of ALU ops and the
/// whole bank stays cache-resident.  Cooldown jitter and redirect draws
/// come from the bank's own Rng stream, so a disabled bank perturbs no
/// other stream.  Open -> half-open is lazy: it happens in allows() once
/// the cooldown has passed, so the bank schedules no events of its own.
class BreakerBank {
 public:
  static constexpr unsigned kNone = 0xffffffffu;
  /// Sub-stream salt of the breaker Rng, Rng(seed, kStream).
  static constexpr std::uint64_t kStream = 0xB4EA;

  /// Arm one closed breaker per replica.  A disabled policy leaves the
  /// bank empty: enabled() is false and record() is a no-op.
  void init(const CircuitBreakerPolicy& p, unsigned replicas,
            std::uint64_t seed) {
    pol_ = p;
    if (!p.enabled) return;
    b_.assign(replicas, Breaker{});
    rng_ = Rng(seed, kStream);
  }

  bool enabled() const noexcept { return pol_.enabled; }

  /// May a send go to replica `r` at `now`?  Consumes a half-open probe
  /// slot when it grants one.  Call only while enabled().
  bool allows(unsigned r, double now) {
    Breaker& b = b_[r];
    if (b.state == Breaker::kClosed) return true;
    if (b.state == Breaker::kOpen) {
      if (now < b.open_until) return false;
      open_ms_ += b.open_until - b.opened_at;
      b.state = Breaker::kHalfOpen;
      b.probes_left = pol_.half_open_probes;
      mark(tr_half_, now);
    }
    if (b.probes_left == 0) return false;
    --b.probes_left;
    ++probes_;
    return true;
  }

  /// A short-circuited send looks for another replica: up to three
  /// uniform draws from the breaker stream, the first whose breaker
  /// allows() wins.  kNone when none does.
  unsigned redirect(double now) {
    for (int k = 0; k < 3; ++k) {
      const auto alt = static_cast<unsigned>(rng_.below(b_.size()));
      if (allows(alt, now)) return alt;
    }
    return kNone;
  }

  /// Record an observed outcome against replica `r`: a reply is a
  /// success; a timeout or a rejection is a failure.  While half-open,
  /// a success closes the breaker with a fresh window and any failure
  /// re-opens it -- including a straggling timeout from before the trip,
  /// which is deliberately conservative.  While open, outcomes are
  /// ignored; the cooldown alone decides re-entry.
  void record(unsigned r, bool ok, double now) {
    if (!pol_.enabled) return;
    Breaker& b = b_[r];
    switch (b.state) {
      case Breaker::kOpen:
        return;
      case Breaker::kHalfOpen:
        if (ok) {
          b = Breaker{};
          mark(tr_close_, now);
        } else {
          open(b, now);
        }
        return;
      case Breaker::kClosed: {
        const std::uint64_t bit = std::uint64_t{1} << b.idx;
        if (b.filled == pol_.window) {
          if (b.bits & bit) --b.fails;
        } else {
          ++b.filled;
        }
        if (ok) {
          b.bits &= ~bit;
        } else {
          b.bits |= bit;
          ++b.fails;
        }
        b.idx = (b.idx + 1) % pol_.window;
        if (b.filled >= pol_.min_samples &&
            static_cast<double>(b.fails) >=
                pol_.failure_threshold * static_cast<double>(b.filled)) {
          open(b, now);
        }
        return;
      }
    }
  }

  /// Close the books at the end of the run: breakers still open count
  /// their open time up to `end` (or to their cooldown, if earlier).
  void finish(double end) {
    for (const Breaker& b : b_) {
      if (b.state == Breaker::kOpen) {
        open_ms_ += std::min(end, b.open_until) - b.opened_at;
      }
    }
  }

  std::uint64_t opens() const noexcept { return opens_; }
  std::uint64_t probes() const noexcept { return probes_; }
  /// Summed per-replica milliseconds spent open.
  double open_ms() const noexcept { return open_ms_; }

  /// Emit breaker-open / -half-open / -close instants on track 0.
  void attach_trace(obs::TraceBuffer* t) {
    trace_ = t;
    tr_open_ = t->intern("breaker-open");
    tr_half_ = t->intern("breaker-half-open");
    tr_close_ = t->intern("breaker-close");
  }

 private:
  struct Breaker {
    enum State : std::uint8_t { kClosed, kOpen, kHalfOpen };
    State state = kClosed;
    std::uint64_t bits = 0;     // rolling outcomes, 1 = failure
    std::uint32_t filled = 0;   // outcomes currently in the window
    std::uint32_t idx = 0;      // next write position
    std::uint32_t fails = 0;    // failures currently in the window
    std::uint32_t probes_left = 0;
    double opened_at = 0;
    double open_until = 0;
  };

  /// Trip a breaker open with a jittered cooldown.
  void open(Breaker& b, double now) {
    b.state = Breaker::kOpen;
    b.opened_at = now;
    b.open_until = now + pol_.open_ms * (1.0 + pol_.open_jitter_frac *
                                                   rng_.uniform(-1.0, 1.0));
    ++opens_;
    mark(tr_open_, now);
  }

  void mark(std::uint32_t name, double now) {
    if (trace_) trace_->instant(name, now, 0);
  }

  CircuitBreakerPolicy pol_;
  std::vector<Breaker> b_;
  Rng rng_{0};
  std::uint64_t opens_ = 0;
  std::uint64_t probes_ = 0;
  double open_ms_ = 0;
  std::uint32_t tr_open_ = 0, tr_half_ = 0, tr_close_ = 0;
  obs::TraceBuffer* trace_ = nullptr;
};

/// The cluster root's client engine (see the file comment).  Per-query
/// and per-call state lives in slab arenas indexed by 32-bit handles, and
/// the attempt / hedge / retry / timeout flow is plain member functions,
/// so once the slabs and the event tiers reach their high-water marks a
/// trial performs no heap allocation.  Event closures capture `this` plus
/// 16-byte RAII handle guards, which keeps every action inside the
/// Simulator's inline buffer.
template <class Engine>
class ClusterClient {
 protected:
  static constexpr std::uint32_t kNull = Slab<int>::kNull;

  struct QueryRec {
    unsigned replied = 0;
    double start_ms = 0;
    bool closed = false;
    des::EventHandle deadline{};
    /// Monotone per-trial serial keying the query's async trace span
    /// (slab handles recycle, so they cannot key overlapping spans).
    std::uint64_t trace_serial = 0;
  };
  struct CallRec {
    bool done = false;
    unsigned attempts = 0;  // non-hedge issues so far
    bool hedged = false;
    des::EventHandle timeout{};
    des::EventHandle hedge{};
    /// Counted reference to the owning query, dropped by release_call()
    /// when the call record itself dies.
    std::uint32_t query = kNull;
  };

  /// Tag: take ownership of the reference acquire() created instead of
  /// adding a new one.
  struct Adopt {};

  /// RAII counted reference to a QueryRec slot: retains on construction
  /// and copy, releases on destruction, so a closure capturing one keeps
  /// the record alive exactly as long as a captured shared_ptr would.
  /// 16 bytes (pointer + handle), the point of the exercise.
  struct QueryRef {
    ClusterClient* s = nullptr;
    std::uint32_t h = kNull;
    QueryRef(ClusterClient* sim, std::uint32_t handle) : s(sim), h(handle) {
      s->queries_.retain(h);
    }
    QueryRef(Adopt, ClusterClient* sim, std::uint32_t handle) noexcept
        : s(sim), h(handle) {}
    QueryRef(const QueryRef& o) : s(o.s), h(o.h) {
      if (s) s->queries_.retain(h);
    }
    QueryRef(QueryRef&& o) noexcept : s(o.s), h(o.h) { o.s = nullptr; }
    QueryRef& operator=(const QueryRef&) = delete;
    QueryRef& operator=(QueryRef&&) = delete;
    ~QueryRef() {
      if (s) s->queries_.release(h);
    }
    QueryRec* operator->() const noexcept { return &s->queries_[h]; }
  };

  /// RAII counted reference to a CallRec slot (see QueryRef).
  struct CallRef {
    ClusterClient* s = nullptr;
    std::uint32_t h = kNull;
    CallRef(Adopt, ClusterClient* sim, std::uint32_t handle) noexcept
        : s(sim), h(handle) {}
    CallRef(const CallRef& o) : s(o.s), h(o.h) {
      if (s) s->calls_.retain(h);
    }
    CallRef(CallRef&& o) noexcept : s(o.s), h(o.h) { o.s = nullptr; }
    CallRef& operator=(const CallRef&) = delete;
    CallRef& operator=(CallRef&&) = delete;
    ~CallRef() {
      if (s) s->release_call(h);
    }
    CallRec* operator->() const noexcept { return &s->calls_[h]; }
  };

  explicit ClusterClient(const ClusterConfig& cfg)
      : cfg_(cfg), pol_(cfg.policy) {}

  Engine& self() noexcept { return static_cast<Engine&>(*this); }
  des::Simulator& csim() noexcept { return self().client_sim(); }

  /// Default pre-admission hook: admit everything.
  bool engine_admits() { return true; }

  // ------------------------------------------------------------ setup

  /// Horizon, goodput windows, breakers and the metrics timer.  Draws
  /// nothing and schedules nothing.
  void init_client() {
    horizon_ms_ = cfg_.duration_s * 1000.0;
    window_ms_ = cfg_.goodput_window_s * 1000.0;
    res_.goodput_window_s = cfg_.goodput_window_s;
    if (window_ms_ > 0) {
      // Completions can straggle a little past the horizon; headroom
      // keeps note_answered()'s resize from reallocating in steady state.
      res_.answered_per_window.reserve(
          static_cast<std::size_t>(horizon_ms_ / window_ms_) + 4);
    }
    breakers_.init(pol_.breaker, cfg_.leaves, cfg_.seed);
    auto& mreg = obs::MetricsRegistry::global();
    if (mreg.enabled()) {
      mreg_ = &mreg;
      // Same layout as ClusterResult::query_ms so quantiles agree.
      m_query_ms_ = mreg.timer("cluster.query_ms", 1e-2, 1e5, 90);
    }
  }

  /// Arm the gray detector and schedule its eval cadence on the root.
  void schedule_gray_evals() {
    if (!pol_.gray.enabled) return;
    gdet_.init(pol_.gray, cfg_.leaves, pol_.retry.timeout_ms);
    const double step = pol_.gray.eval_interval_ms;
    const auto evals =
        static_cast<std::uint64_t>(std::ceil(horizon_ms_ / step));
    for (std::uint64_t k = 1; k <= evals; ++k) {
      csim().schedule_at(static_cast<double>(k) * step,
                         [this] { gdet_.eval(csim().now()); });
    }
  }

  /// Split the query-plan and client streams off `rng` (after the
  /// engine's background splits), fill the buckets, and schedule every
  /// query start.  Per-leaf service times are pre-drawn so the workload
  /// is identical across policy/fault variants of the same seed.
  void schedule_queries(Rng& rng) {
    const double mu_log = std::log(cfg_.leaf_service_ms) -
                          0.5 * cfg_.service_sigma * cfg_.service_sigma;
    Rng qrng = rng.split();
    crng_ = rng.split();
    budget_ = RetryBudgetBucket(pol_.budget.ratio, pol_.budget.burst);
    admission_ = TokenBucket(pol_.admission.rate_qps, pol_.admission.burst);
    quorum_needed_ = static_cast<unsigned>(std::ceil(
        pol_.quorum.quorum_fraction * static_cast<double>(cfg_.leaves)));
    double qt = 0;
    while (true) {
      qt += qrng.exponential(1000.0 / cfg_.query_rate_hz);
      if (qt >= horizon_ms_) break;
      // One flat vector for all queries; the start event just remembers
      // its slice's base index.
      const std::size_t base = services_.size();
      for (unsigned l = 0; l < cfg_.leaves; ++l) {
        services_.push_back(qrng.lognormal(mu_log, cfg_.service_sigma));
      }
      csim().schedule_at(qt, [this, base] { on_query_start(base); });
    }
  }

  // ------------------------------------------------------ query flow

  /// A query's start event: the engine's gate, then admission (a shed
  /// query touches no per-query state and issues nothing -- its pre-drawn
  /// service times are simply never used, which keeps workload draws
  /// aligned across protected/unprotected configs); then create the
  /// record, arm the quorum deadline, and issue the first attempt on
  /// every leaf.
  void on_query_start(std::size_t services_base) {
    if (!self().engine_admits()) return;
    if (pol_.admission.enabled && !admit()) {
      ++res_.shed_queries;
      mark(tr_shed_);
      return;
    }
    QueryRef q(Adopt{}, this, queries_.acquire());
    q->start_ms = csim().now();
    ++started_;
    if (trace_) {
      q->trace_serial = started_;
      trace_->async_begin(tr_query_, q->trace_serial, csim().now());
    }
    if (pol_.quorum.enabled()) {
      q->deadline = csim().schedule_cancellable(
          pol_.quorum.deadline_ms, [this, q] { on_deadline(q); });
    }
    for (unsigned l = 0; l < cfg_.leaves; ++l) {
      const std::uint32_t ch = calls_.acquire();
      queries_.retain(q.h);
      calls_[ch].query = q.h;
      CallRef call(Adopt{}, this, ch);
      issue(q, call, services_[services_base + l], l, false);
    }
  }

  /// Admission for one arriving query: the concurrency cap first (a full
  /// root burns no rate tokens), then the token bucket.  An admitted
  /// query holds an in-flight slot until it closes.
  bool admit() {
    const AdmissionPolicy& a = pol_.admission;
    if (a.max_in_flight > 0 && in_flight_ >= a.max_in_flight) return false;
    if (a.rate_qps > 0 && !admission_.take(csim().now())) return false;
    ++in_flight_;
    return true;
  }

  void free_in_flight() {
    if (in_flight_ > 0) --in_flight_;
  }

  /// Issue one attempt (or hedge) of a leaf call against `target`.  A
  /// gray-evicted target is steered round-robin to a healthy peer; an
  /// open breaker short-circuits the send and redirects it to a replica
  /// that admits traffic.  When neither finds one, nothing is sent and
  /// the armed timeout recovers the call.
  void issue(const QueryRef& q, const CallRef& call, double service,
             unsigned target, bool is_hedge) {
    if (call->done || q->closed) return;
    ++res_.leaf_requests;
    if (is_hedge) {
      ++res_.hedges;
    } else {
      ++call->attempts;
      if (pol_.budget.enabled && call->attempts == 1) budget_.credit();
    }

    unsigned t = target;
    bool send = true;
    if (gdet_.engaged() && gdet_.evicted(t)) {
      // Down-weighted to zero: deterministic, no redirect storm, no RNG.
      ++res_.gray_redirected_sends;
      const unsigned alt = gdet_.redirect_target(t);
      if (alt == GrayDetector::kNone) {
        send = false;
      } else {
        t = alt;
      }
    }
    if (send && breakers_.enabled() && !breakers_.allows(t, csim().now())) {
      ++res_.breaker_short_circuits;
      mark(tr_brk_short_);
      const unsigned alt = breakers_.redirect(csim().now());
      if (alt == BreakerBank::kNone) {
        send = false;
      } else {
        t = alt;
      }
    }

    if (send) {
      if (gdet_.engaged()) gdet_.on_sent(t);
      self().transmit(q, call, service, t);
    }

    if (!is_hedge && pol_.hedge_after_ms > 0 && !call->hedged &&
        call->attempts == 1) {
      auto hedge = [this, q, call, service] { on_hedge(q, call, service); };
      static_assert(sizeof(hedge) <= des::Simulator::Action::capacity(),
                    "hedge closure must fit the Action inline buffer");
      call->hedge =
          csim().schedule_cancellable(pol_.hedge_after_ms, std::move(hedge));
    }
    if (!is_hedge && pol_.retry.timeout_ms > 0) {
      // The adaptive deadline (when on) replaces the fixed per-attempt
      // timeout with the detector's tracked p99-based value, clamped to
      // [deadline_min_ms, the fixed timeout].
      const double to = gdet_.engaged() && pol_.gray.adaptive_deadline
                            ? gdet_.timeout_ms()
                            : pol_.retry.timeout_ms;
      auto timeout = [this, q, call, service, t] {
        on_timeout(q, call, service, t);
      };
      static_assert(sizeof(timeout) <= des::Simulator::Action::capacity(),
                    "timeout closure must fit the Action inline buffer");
      call->timeout = csim().schedule_cancellable(to, std::move(timeout));
    }
  }

  /// The engine resolved a reply to a call that is not done yet: close
  /// the call, and the query once every leaf has answered.  (The breaker
  /// success and the gray score are the engine's: each engine has its
  /// own rule for which replies count.)
  void call_answered(const QueryRef& q, const CallRef& call) {
    call->done = true;
    csim().cancel(call->timeout);
    csim().cancel(call->hedge);
    const double lat = csim().now() - q->start_ms;
    res_.leaf_ms.add(lat);
    if (q->closed) return;  // degraded/failed; reply arrived late
    if (++q->replied == cfg_.leaves) {
      q->closed = true;
      free_in_flight();
      csim().cancel(q->deadline);
      ++res_.ok_queries;
      res_.sum_result_quality += 1.0;
      res_.query_ms.add(lat);
      note_answered();
      if (mreg_) mreg_->record(m_query_ms_, lat);
      if (trace_) {
        trace_->async_end(tr_query_, q->trace_serial, csim().now(),
                          tr_quality_arg_, 1.0);
      }
    }
  }

  /// A reply from `leaf` reached the root: a breaker success, counted
  /// before the engine resolves which call (if any) it answers.
  void note_reply(unsigned leaf) {
    breakers_.record(leaf, true, csim().now());
  }

  /// A leaf bounced an attempt off its full bounded queue.  A rejecting
  /// replica is an overloaded one (a breaker failure), but for the gray
  /// detector the bounce is a LOUD refusal, not a silent non-reply: it
  /// must not count toward the reply-rate check, or redirect-concentrated
  /// load evicts the healthy majority.  The armed timeout recovers the
  /// call itself.
  void note_reject(unsigned leaf) {
    breakers_.record(leaf, false, csim().now());
    if (gdet_.engaged()) gdet_.on_rejected(leaf);
  }

  /// Quorum deadline: close the query with whatever has replied.
  void on_deadline(const QueryRef& q) {
    if (q->closed) return;
    q->closed = true;
    free_in_flight();
    mark(tr_deadline_);
    if (q->replied >= quorum_needed_) {
      ++res_.degraded_queries;
      const double quality = static_cast<double>(q->replied) /
                             static_cast<double>(cfg_.leaves);
      res_.sum_result_quality += quality;
      res_.query_ms.add(csim().now() - q->start_ms);
      note_answered();
      if (mreg_) mreg_->record(m_query_ms_, csim().now() - q->start_ms);
      if (trace_) {
        trace_->async_end(tr_query_, q->trace_serial, csim().now(),
                          tr_quality_arg_, quality);
      }
    } else {
      ++res_.failed_queries;
      if (trace_) {
        trace_->async_end(tr_query_, q->trace_serial, csim().now(),
                          tr_quality_arg_, 0.0);
      }
    }
  }

  void on_hedge(const QueryRef& q, const CallRef& call, double service) {
    if (call->done || q->closed) return;
    call->hedged = true;
    mark(tr_hedge_);
    issue(q, call, service, static_cast<unsigned>(crng_.below(cfg_.leaves)),
          true);
  }

  void on_timeout(const QueryRef& q, const CallRef& call, double service,
                  unsigned target) {
    // The attempt against `target` got no reply in time: a failure
    // observation whether or not we still care about the query.
    breakers_.record(target, false, csim().now());
    if (call->done || q->closed) return;
    ++res_.timeouts;
    mark(tr_timeout_);
    if (call->attempts > pol_.retry.max_retries) return;
    if (pol_.budget.enabled && !budget_.take()) {
      ++res_.budget_denials;
      mark(tr_denied_);
      return;
    }
    ++res_.retries;
    mark(tr_retry_);
    const double backoff = pol_.retry.backoff_ms(call->attempts - 1, crng_);
    // Retry against a random replica, like the hedge path.
    const unsigned alt = static_cast<unsigned>(crng_.below(cfg_.leaves));
    auto retry = [this, q, call, service, alt] {
      issue(q, call, service, alt, false);
    };
    static_assert(sizeof(retry) <= des::Simulator::Action::capacity(),
                  "retry closure must fit the Action inline buffer");
    csim().schedule(backoff, std::move(retry));
  }

  /// Count an answered (ok or degraded) query into its goodput window.
  void note_answered() {
    if (window_ms_ <= 0) return;
    const auto idx = static_cast<std::size_t>(csim().now() / window_ms_);
    if (idx >= res_.answered_per_window.size()) {
      res_.answered_per_window.resize(idx + 1, 0);
    }
    ++res_.answered_per_window[idx];
  }

  /// Emit a client lifecycle instant on track 0.
  void mark(std::uint32_t name) {
    if (trace_) trace_->instant(name, csim().now(), 0);
  }

  // --------------------------------------------------------- epilogue

  /// Client-side books, once the run has drained: queries that neither
  /// completed nor resolved at a deadline (e.g. a reply lost to a crash
  /// with no timeout armed) are failures too; breakers still open close
  /// their books at `end_ms`; the gray detector's counters fold in; and
  /// the per-trial ratios are taken, with `util` the engine's summed
  /// per-leaf busy_time / horizon.
  void finish_client(double end_ms, double util) {
    res_.queries = started_;
    res_.failed_queries += started_ - res_.ok_queries -
                           res_.degraded_queries - res_.failed_queries;
    breakers_.finish(end_ms);
    res_.breaker_open_transitions = breakers_.opens();
    res_.breaker_probes = breakers_.probes();
    res_.breaker_open_ms = breakers_.open_ms();
    if (gdet_.engaged()) {
      res_.gray_evictions = gdet_.evictions();
      res_.gray_probations = gdet_.probations();
      res_.gray_zombies = gdet_.zombies();
      res_.adaptive_deadline_ms =
          pol_.gray.adaptive_deadline ? gdet_.timeout_ms() : 0;
    }
    res_.mean_leaf_utilization = util / static_cast<double>(cfg_.leaves);
    res_.hedge_fraction =
        res_.leaf_requests ? static_cast<double>(res_.hedges) /
                                 static_cast<double>(res_.leaf_requests)
                           : 0;
    res_.retry_amplification =
        started_ ? static_cast<double>(res_.leaf_requests) /
                       (static_cast<double>(started_) *
                        static_cast<double>(cfg_.leaves))
                 : 0;
    res_.goodput_qps =
        static_cast<double>(res_.ok_queries + res_.degraded_queries) /
        cfg_.duration_s;
    res_.frac_over_leaf_p99 =
        res_.query_ms.fraction_above(res_.leaf_ms.quantile(0.99));
  }

  /// Intern the client's trace markers; the engine names its tracks.
  void attach_client_trace(obs::TraceBuffer* t) {
    trace_ = t;
    tr_query_ = t->intern("query");
    tr_retry_ = t->intern("retry");
    tr_hedge_ = t->intern("hedge");
    tr_timeout_ = t->intern("timeout");
    tr_lost_ = t->intern("lost");
    tr_denied_ = t->intern("budget-denied");
    tr_deadline_ = t->intern("deadline");
    tr_quality_arg_ = t->intern("quality");
    tr_shed_ = t->intern("shed");
    tr_rejected_ = t->intern("rejected");
    breakers_.attach_trace(t);
    tr_brk_short_ = t->intern("breaker-short-circuit");
  }

  /// The cluster.* counters of this trial (the engine adds its server
  /// side, des.*, and then publish_slab_metrics()).
  void publish_client_metrics(obs::MetricsRegistry& m) {
    m.add(m.counter("cluster.queries"), res_.queries);
    m.add(m.counter("cluster.retries"), res_.retries);
    m.add(m.counter("cluster.hedges"), res_.hedges);
    m.add(m.counter("cluster.timeouts"), res_.timeouts);
    m.add(m.counter("cluster.lost_requests"), res_.lost_requests);
    m.add(m.counter("cluster.budget_denials"), res_.budget_denials);
    m.add(m.counter("cluster.shed.queries"), res_.shed_queries);
    m.add(m.counter("cluster.shed.rejected"), res_.rejected_requests);
    m.add(m.counter("cluster.shed.expired"), res_.expired_drops);
    m.add(m.counter("cluster.breaker.opens"), res_.breaker_open_transitions);
    m.add(m.counter("cluster.breaker.short_circuits"),
          res_.breaker_short_circuits);
    m.add(m.counter("cluster.breaker.probes"), res_.breaker_probes);
    m.gauge_max(m.gauge("cluster.breaker.open_ms"), res_.breaker_open_ms);
  }

  void publish_slab_metrics(obs::MetricsRegistry& m) {
    m.gauge_max(m.gauge("slab.queries.hwm"),
                static_cast<double>(queries_.high_water()));
    m.gauge_max(m.gauge("slab.calls.hwm"),
                static_cast<double>(calls_.high_water()));
  }

  const ClusterConfig& cfg_;
  const ResiliencePolicy& pol_;
  ClusterResult res_;
  // The slabs live in this base, so they outlive the engine's kernel:
  // pending actions destroyed during Simulator/Resource teardown (e.g.
  // after an exception) can still release the handle guards they
  // captured.
  Slab<QueryRec> queries_;
  Slab<CallRec> calls_;
  BreakerBank breakers_;
  TokenBucket admission_;   // admission rate gate
  RetryBudgetBucket budget_;
  GrayDetector gdet_;       // client-side fail-slow detector (no RNG)
  std::vector<double> services_;  // pre-drawn per-(query,leaf) service times
  Rng crng_{0};  // client-side picks: hedge/retry targets, jitter
  unsigned in_flight_ = 0;  // queries open at the root
  double window_ms_ = 0;    // goodput window size (0 = off)
  unsigned quorum_needed_ = 0;
  double horizon_ms_ = 0;
  std::uint64_t started_ = 0;

  std::uint32_t tr_query_ = 0, tr_retry_ = 0, tr_hedge_ = 0, tr_timeout_ = 0,
                tr_lost_ = 0, tr_denied_ = 0, tr_deadline_ = 0,
                tr_quality_arg_ = 0, tr_shed_ = 0, tr_rejected_ = 0,
                tr_brk_short_ = 0;
  obs::TraceBuffer* trace_ = nullptr;
  obs::MetricsRegistry* mreg_ = nullptr;  // set iff enabled at trial start
  obs::MetricsRegistry::MetricId m_query_ms_ = 0;

 private:
  /// Drop one reference to a call record; when it was the last, also drop
  /// the record's reference to its query (read out *before* release()
  /// resets the slot -- the cross-slab pattern slab.hpp documents).
  void release_call(std::uint32_t h) {
    const std::uint32_t q = calls_[h].query;
    if (calls_.release(h) && q != kNull) queries_.release(q);
  }
};

}  // namespace arch21::cloud
