// The cluster scenario, written ONCE and templated over the DES engine it
// runs on.  The engine type decides the transport, and simulate_cluster()
// picks the engine from the config, so no option names either:
//
//   net_latency_ms == 0  des::Simulator -- the zero-latency model on one
//                        kernel; a send is a direct in-kernel call.
//   net_latency_ms  > 0  des::LoopbackEngine (workers == 0: one serial
//                        kernel, the differential reference) or
//                        des::ParallelEngine (workers >= 1: conservative
//                        window synchronization on the thread pool); a
//                        send is a message, and the two are bit-identical
//                        (tests/test_pdes.cpp).
//
// Partitioning: LP 0 is the root -- query arrivals plus the client-policy
// core (ClusterClient, cloud/client.hpp: deadlines, hedges, retries,
// budgets, admission, per-replica breakers, gray detection).  This file
// adds only the transport and the server side.  LPs 1..G each own a
// contiguous group of leaves: their des::Resource queues, their
// background load, and their fault transitions.  On the single kernel
// every leaf is in one group and root and group share the kernel.
//
// The two transports differ where a network makes a difference:
//   * Direct: a request to a down leaf is lost at send time; a
//     bounded-queue bounce is a synchronous reject; the gray detector
//     scores every reply, late and duplicate ones too.  Gray injection
//     (leaf speed, reply loss and jitter) and the power-cap runtime
//     (window events, pre-admission, the energy contract) exist only
//     here, which is why validate() requires net_latency_ms == 0 for them.
//   * Messages: every root<->leaf exchange travels net_latency_ms one
//     way, which is exactly the engine's conservative lookahead.  A
//     request to a down leaf is counted lost at the LEAF when it arrives
//     (the root only learns through its timeout); a reject reaches the
//     root as a message after the return latency; the detector scores
//     only replies the root can still attribute to a call; leaf_ms and
//     query latencies include two network hops.
//
// Setup order is one for every engine, the zero-latency one: power-cap
// windows, fault trace, fault burst, gray trace, gray burst, gray evals,
// background, queries.  On the single kernel ties between these events
// decide outcomes (a power window edge can fall on a burst edge), so the
// order is part of the model.  On the sharded engines root and group
// state only interact through messages, so the order of root events
// against group events at one instant cannot change results.
//
// Determinism: all client-side state (slabs, breakers, budget/admission
// buckets, histograms, client/breaker draws) is touched only by root-LP
// events; each group's state only by that group's events; cross-LP
// effects only via engine messages.  Every RNG is either consumed at
// setup (background, query plan, services, fault trace) in a fixed order
// or owned by one LP, so a fixed partition replays identically on any
// engine and any worker count.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cloud/client.hpp"
#include "cloud/cluster.hpp"
#include "cloud/powercap.hpp"
#include "des/partition.hpp"
#include "des/pdes.hpp"
#include "des/resource.hpp"
#include "des/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reliab/failure_trace.hpp"
#include "reliab/gray.hpp"
#include "util/thread_pool.hpp"

namespace arch21::cloud {

namespace {

constexpr double kMsPerHour = 3.6e6;

/// True for the single-kernel engine, whose transport is a direct call.
template <class Engine>
constexpr bool kDirect = std::is_same_v<Engine, des::Simulator>;

/// The LP type of a PDES engine (an empty stand-in for the bare kernel).
template <class Engine>
struct LpOf {
  using type = std::remove_reference_t<decltype(std::declval<Engine&>().lp(0))>;
};
template <>
struct LpOf<des::Simulator> {
  struct type {};
};

/// One raw fail-stop record: a trace event or an edge of the crash burst.
struct FaultStep {
  enum Kind : std::uint8_t { kTrace, kBurstDown, kBurstUp };
  double t_ms = 0;
  reliab::FailureEvent ev{};
  Kind kind = kTrace;
};

/// The fail-stop state machine, written once: a leaf is effectively up
/// iff it and its rack domain are both up.  step() applies one raw record
/// and calls on_change(leaf, up) for every leaf whose effective state
/// flips.  The single kernel drives it at run time, one event per record;
/// the sharded engines drive it at setup and schedule each flip on the
/// leaf's group LP, which resolves the domain coupling before the run.
class LeafFaults {
 public:
  void init(unsigned leaves, unsigned per_domain, unsigned domains,
            unsigned burst_leaves) {
    per_domain_ = per_domain;
    burst_leaves_ = burst_leaves;
    own_.assign(leaves, 1);
    eff_.assign(leaves, 1);
    dom_.assign(std::max(domains, 1u), 1);
  }

  template <class OnChange>
  void step(const FaultStep& s, OnChange&& on_change) {
    auto set = [&](unsigned l, bool up) {
      if ((eff_[l] != 0) == up) return;
      eff_[l] = up ? 1 : 0;
      on_change(l, up);
    };
    const reliab::FailureEvent& ev = s.ev;
    switch (s.kind) {
      case FaultStep::kBurstDown:
        for (unsigned l = 0; l < burst_leaves_; ++l) {
          own_[l] = 0;
          set(l, false);
        }
        return;
      case FaultStep::kBurstUp:
        for (unsigned l = 0; l < burst_leaves_; ++l) {
          own_[l] = 1;
          set(l, domain_up(l));
        }
        return;
      case FaultStep::kTrace:
        break;
    }
    if (ev.is_domain) {
      dom_[ev.entity] = ev.up ? 1 : 0;
      const unsigned begin = ev.entity * per_domain_;
      const auto end = std::min<std::size_t>(begin + per_domain_, own_.size());
      for (unsigned l = begin; l < end; ++l) set(l, ev.up && own_[l]);
    } else {
      own_[ev.entity] = ev.up ? 1 : 0;
      set(ev.entity, ev.up && domain_up(ev.entity));
    }
  }

 private:
  bool domain_up(unsigned l) const {
    return per_domain_ == 0 || dom_[l / per_domain_];
  }

  unsigned per_domain_ = 0;
  unsigned burst_leaves_ = 0;
  std::vector<char> own_, eff_, dom_;
};

template <class Engine>
class ClusterScenario : public ClusterClient<ClusterScenario<Engine>> {
  using LpT = typename LpOf<Engine>::type;
  using Client = ClusterClient<ClusterScenario<Engine>>;
  friend Client;
  using Client::kNull;
  using typename Client::Adopt;
  using typename Client::CallRef;
  using typename Client::QueryRef;
  using Client::calls_;
  using Client::cfg_;
  using Client::gdet_;
  using Client::horizon_ms_;
  using Client::res_;
  using Client::tr_lost_;
  using Client::tr_rejected_;
  using Client::trace_;

 public:
  /// Extra arguments construct the engine in place (LoopbackEngine takes
  /// the spec; ParallelEngine takes spec + pool; the bare kernel takes
  /// none).  The engine lives INSIDE this object, after the client's
  /// slabs (in the base), so pending actions destroyed during engine
  /// teardown can still release the handle guards they captured.
  template <class... EngineArgs>
  ClusterScenario(const ClusterConfig& cfg, unsigned groups,
                  EngineArgs&&... engine_args)
      : Client(cfg),
        groups_(groups),
        eng_(std::forward<EngineArgs>(engine_args)...),
        rsim_(kernel(0)) {}

  ClusterResult run();

 private:
  /// Cross-LP message tags (des::Payload::kind).
  enum : std::uint32_t {
    kReq = 1,    ///< root -> group: u32 = leaf, a = serial, x = service_ms
    kReply = 2,  ///< group -> root: u32 = leaf, a = serial
    kReject = 3  ///< group -> root: bounced off a full leaf queue
  };

  /// One leaf group's server-side state.  Touched only by that group's
  /// events (plus serial setup/teardown).
  struct Group {
    std::vector<std::unique_ptr<des::Resource>> leaves;  // local index
    std::vector<char> up;
    std::uint64_t lost = 0;   ///< lost requests + fail_all kills
    unsigned first = 0;       ///< first global leaf id of this group
    std::uint32_t trace_tid = 0;
  };

  /// Live gray-degradation state of one leaf (injection side).
  struct LeafGray {
    reliab::GrayMode mode = reliab::GrayMode::kSlow;
    double severity = 0;
    bool active = false;
  };

  /// The kernel LP `lp` runs on (the one kernel, on the direct engine).
  des::Simulator& kernel([[maybe_unused]] unsigned lp) noexcept {
    if constexpr (kDirect<Engine>) {
      return eng_;
    } else {
      return eng_.lp(lp).sim();
    }
  }
  des::Simulator& client_sim() noexcept { return rsim_; }

  unsigned group_of_leaf(unsigned l) const noexcept {
    return des::group_of(l, cfg_.leaves, groups_);
  }

  void schedule_powercap();
  void schedule_faults();
  void schedule_gray_injection();

  // ----------------------------------------------------- leaf-group side

  void on_group_msg(unsigned g, LpT& lp, const des::Payload& p) {
    // Only kReq arrives here.
    Group& grp = grps_[g];
    const unsigned leaf = p.u32;
    const unsigned li = leaf - grp.first;
    const std::uint64_t serial = p.a;
    if (!grp.up[li]) {
      // The request vanishes into a dead leaf; only the root's timeout
      // (or the query deadline) will tell the client.
      ++grp.lost;
      if (trace_) trace_->instant(tr_lost_, lp.now(), grp.trace_tid);
      return;
    }
    LpT* lpp = &lp;
    if (!grp.leaves[li]->request(
            p.x, [this, lpp, leaf, serial](double, double) {
              des::Payload reply;
              reply.kind = kReply;
              reply.u32 = leaf;
              reply.a = serial;
              lpp->send(0, cfg_.net_latency_ms, reply);
            })) {
      // Bounced off a full bounded queue: tell the root explicitly (the
      // reject notice rides the same return latency).
      des::Payload rej;
      rej.kind = kReject;
      rej.u32 = leaf;
      rej.a = serial;
      lp.send(0, cfg_.net_latency_ms, rej);
      if (trace_) trace_->instant(tr_rejected_, lp.now(), grp.trace_tid);
    }
  }

  void on_leaf_transition(unsigned g, unsigned li, bool up) {
    Group& grp = grps_[g];
    if (grp.up[li] && !up) {
      // Crash: everything queued or in service on this leaf is lost.
      grp.lost += grp.leaves[li]->fail_all();
    }
    grp.up[li] = up ? 1 : 0;
  }

  /// Apply one gray-degradation transition to leaf `l`.  Slow mode acts
  /// through the leaf's service speed (work genuinely takes longer);
  /// lossy/zombie/jittery act on the reply path in on_leaf_reply().  A
  /// clear restores full speed and deactivates the reply effects.
  void apply_gray(unsigned l, reliab::GrayMode mode, double severity,
                  bool onset) {
    LeafGray& g = gray_[l];
    des::Resource& leaf = *grps_[0].leaves[l];  // direct: one group
    if (onset) {
      ++res_.gray_episodes;
      if (g.active && g.mode == reliab::GrayMode::kSlow &&
          mode != reliab::GrayMode::kSlow) {
        leaf.set_speed(1.0);  // mode switch out of slow
      }
      g.mode = mode;
      g.severity = severity;
      g.active = true;
      if (mode == reliab::GrayMode::kSlow) leaf.set_speed(1.0 / severity);
    } else {
      if (g.active && g.mode == reliab::GrayMode::kSlow) leaf.set_speed(1.0);
      g.active = false;
    }
  }

  // ------------------------------------------------------- root side

  /// The power cap is the primary constraint: the governor's cap-aware
  /// admission sheds BEFORE the resilience-policy admission (and long
  /// before any leaf would throttle) -- a power-shed query touches no
  /// per-query state, exactly like a policy shed.
  bool engine_admits() {
    if (pcap_ && !pcap_->admit(rsim_.now())) {
      this->mark(tr_pshed_);
      return false;
    }
    return true;
  }

  /// Deliver one attempt to leaf `t`.  Direct: straight into the leaf's
  /// Resource; a request to a down leaf vanishes (only a timeout or the
  /// query deadline will tell the client) and a full bounded queue
  /// rejects synchronously.  Messages: a kReq to the leaf's group LP,
  /// identified by a fresh per-attempt serial (slab handles recycle, so
  /// raw handles cannot ride in messages; the serial table pins the call
  /// until its response).
  void transmit([[maybe_unused]] const QueryRef& q, const CallRef& call,
                double service, unsigned t) {
    if constexpr (kDirect<Engine>) {
      Group& grp = grps_[0];
      if (!grp.up[t]) {
        ++grp.lost;
        this->mark(tr_lost_);
        return;
      }
      if (!grp.leaves[t]->request(service, [this, q, call, t](double, double) {
            on_leaf_reply(q, call, t);
          })) {
        this->note_reject(t);
        this->mark(tr_rejected_);
      }
    } else {
      const std::uint64_t serial = call_by_serial_.size();
      calls_.retain(call.h);
      call_by_serial_.push_back(call.h);
      des::Payload req;
      req.kind = kReq;
      req.u32 = t;
      req.a = serial;
      req.x = service;
      eng_.lp(0).send(1 + group_of_leaf(t), cfg_.net_latency_ms, req);
    }
  }

  /// Direct: a leaf finished serving an attempt.  Apply gray reply
  /// effects before the client sees anything: a lossy/zombie leaf eats
  /// the reply (only the client's timeout will tell it); a jittery leaf
  /// delays it by an exponential spike -- the leaf itself kept full
  /// capacity, so this is a NIC/GC hiccup, not queueing.  All coins and
  /// draws come from the dedicated gray stream, and only while an
  /// episode is active.
  void on_leaf_reply(const QueryRef& q, const CallRef& call, unsigned target) {
    if (gray_active_) {
      const LeafGray& g = gray_[target];
      if (g.active) {
        switch (g.mode) {
          case reliab::GrayMode::kZombie:
            ++res_.gray_dropped_replies;
            return;
          case reliab::GrayMode::kLossy:
            if (grng_.chance(g.severity)) {
              ++res_.gray_dropped_replies;
              return;
            }
            break;
          case reliab::GrayMode::kJittery:
            if (grng_.chance(cfg_.gray.spike_prob)) {
              auto deliver = [this, q, call, target] {
                on_leaf_done(q, call, target);
              };
              static_assert(
                  sizeof(deliver) <= des::Simulator::Action::capacity(),
                  "spiked-reply closure must fit the Action inline buffer");
              rsim_.schedule(grng_.exponential(g.severity), std::move(deliver));
              return;
            }
            break;
          case reliab::GrayMode::kSlow:
            break;  // slow acts through set_speed at onset
        }
      }
    }
    on_leaf_done(q, call, target);
  }

  void on_leaf_done(const QueryRef& q, const CallRef& call, unsigned target) {
    this->note_reply(target);
    // The detector scores every reply that reaches the client --
    // including late and duplicate ones, which are exactly the fail-slow
    // signal the breaker window launders into successes.
    if (gdet_.engaged()) gdet_.on_reply(target, rsim_.now() - q->start_ms);
    if (call->done) return;  // a faster attempt already answered
    this->call_answered(q, call);
  }

  void on_root_msg(const des::Payload& p) {
    if (p.kind == kReply) {
      on_reply(p.u32, p.a);
    } else {
      on_reject(p.u32, p.a);
    }
  }

  void on_reply(unsigned leaf, std::uint64_t serial) {
    this->note_reply(leaf);
    const std::uint32_t h = call_by_serial_[serial];
    if (h == kNull) return;  // record already resolved and freed
    call_by_serial_[serial] = kNull;
    CallRef call(Adopt{}, this, h);  // adopt the table's reference
    if (call->done) return;          // a faster attempt already answered
    QueryRef q(this, call->query);
    // The detector scores every reply it can still attribute to a query
    // (serial-resolved records lose the start time, so replies racing an
    // already-resolved record go unscored -- a bounded difference from
    // the direct transport, identical across PDES engines/worker counts).
    if (gdet_.engaged()) gdet_.on_reply(leaf, rsim_.now() - q->start_ms);
    this->call_answered(q, call);
  }

  void on_reject(unsigned leaf, std::uint64_t serial) {
    this->note_reject(leaf);
    const std::uint32_t h = call_by_serial_[serial];
    if (h == kNull) return;
    call_by_serial_[serial] = kNull;
    CallRef drop(Adopt{}, this, h);  // release the table's reference
  }

  /// One trace ring is single-writer, so attaching requires workers <= 1
  /// (enforced by ClusterConfig::validate).  Track map: 0 = root kernel
  /// + client lifecycle markers, 1 + l = leaf l's serve spans (each leaf
  /// is a single-server Resource), and, on the parallel engine,
  /// 1 + leaves + g = group g's kernel instants (per-LP event streams
  /// stay separable in the Chrome trace).
  void attach_trace(obs::TraceBuffer* t) {
    rsim_.set_trace(t, 0);
    t->name_thread(0, kDirect<Engine> ? "des-kernel" : "pdes-root");
    for (unsigned g = 0; g < groups_; ++g) {
      Group& grp = grps_[g];
      des::Simulator& gs = kernel(1 + g);
      if (&gs != &rsim_) {
        // Parallel engine: each group LP owns a kernel of its own.
        grp.trace_tid = 1 + cfg_.leaves + g;
        gs.set_trace(t, grp.trace_tid);
        t->name_thread(grp.trace_tid, "pdes-lp-" + std::to_string(1 + g));
      }
      for (unsigned li = 0; li < grp.leaves.size(); ++li) {
        const unsigned l = grp.first + li;
        t->name_thread(1 + l, "leaf-" + std::to_string(l));
        grp.leaves[li]->set_trace(t, 1 + l);
      }
    }
    this->attach_client_trace(t);
    tr_pshed_ = t->intern("power-shed");
  }

  /// Fold this trial's counters and slab high-water marks into the
  /// process-wide registry.  Called once at the end of run(); a no-op
  /// while the registry is disabled.
  void publish_metrics() {
    auto& m = obs::MetricsRegistry::global();
    if (!m.enabled()) return;
    this->publish_client_metrics(m);
    if (pcap_) {
      m.add(m.counter("cluster.power.shed"), res_.power_shed_queries);
      m.add(m.counter("cluster.power.stalls"), res_.power_gate_stalls);
      m.gauge_max(m.gauge("cluster.power.peak_window_w"), res_.peak_window_w);
    }
    std::size_t qhwm = 0;
    for (const Group& grp : grps_) {
      for (const auto& leaf : grp.leaves) {
        qhwm = std::max(qhwm, leaf->queue_high_water());
      }
    }
    m.gauge_max(m.gauge("cluster.leaf_queue.hwm"), static_cast<double>(qhwm));
    publish_kernel_metrics(m, eng_);
    this->publish_slab_metrics(m);
    if constexpr (requires { eng_.publish_metrics(); }) {
      eng_.publish_metrics();  // pdes.window.* / pdes.mailbox.*
    }
  }

  unsigned groups_ = 0;
  Engine eng_;
  des::Simulator& rsim_;
  // grps_ comes after eng_ so every Resource is torn down while its
  // owning Simulator is alive.
  std::vector<Group> grps_;
  /// Power-capped co-simulation runtime (direct only; null unless
  /// powercap.enabled).  Declared after grps_ so its gates detach before
  /// the leaves die.
  std::unique_ptr<PowercapRuntime> pcap_;
  /// serial -> call handle (kNull once resolved).  Each entry holds one
  /// counted reference from send until its reply/reject arrives; replies
  /// that never come (lost to a crash) keep their record until teardown.
  std::vector<std::uint32_t> call_by_serial_;
  reliab::FailureTraceConfig fcfg_;
  LeafFaults faults_;
  std::vector<LeafGray> gray_;
  bool gray_active_ = false;  // any gray injection configured this trial
  Rng grng_{0};  // gray-injection-only stream: loss coins, jitter spikes
  std::uint32_t tr_pshed_ = 0;
};

/// Power-capped co-simulation (p-states, window energy contract).  One
/// boundary per full window covering the horizon (the last may land past
/// it -- windows are never shortened, so every window's charged power is
/// comparable against the cap).  The final boundary also detaches the
/// gates: the post-horizon drain runs unconstrained and unmetered.  The
/// runtime draws no randomness, so none of this perturbs workload, fault
/// or policy streams.
template <class Engine>
void ClusterScenario<Engine>::schedule_powercap() {
  if (!cfg_.powercap.enabled) return;
  // Expected background busy fraction per leaf, for the governor's
  // admissible-rate estimate.
  const double bg_frac = cfg_.background_rate_hz * cfg_.background_ms * 1e-3;
  pcap_ = std::make_unique<PowercapRuntime>(cfg_.powercap, cfg_.leaves,
                                            cfg_.leaf_service_ms, bg_frac);
  pcap_->attach(grps_[0].leaves);
  res_.power_cap_w = pcap_->cap_w();
  res_.power_window_s = cfg_.powercap.window_s;
  const auto nwin =
      static_cast<std::uint64_t>(std::ceil(horizon_ms_ / pcap_->window_ms()));
  for (std::uint64_t k = 1; k <= nwin; ++k) {
    const bool last = k == nwin;
    rsim_.schedule_at(static_cast<double>(k) * pcap_->window_ms(),
                      [this, last] {
                        pcap_->on_window(rsim_.now());
                        if (last) pcap_->detach();
                      });
  }
}

/// Fail-stop injection: the seeded trace (its own 0xFA17 sub-stream, so
/// it never perturbs workload draws) and the deterministic crash burst,
/// as raw records for the LeafFaults state machine.
template <class Engine>
void ClusterScenario<Engine>::schedule_faults() {
  std::vector<FaultStep> steps;
  if (cfg_.faults.enabled) {
    fcfg_.leaves = cfg_.leaves;
    fcfg_.leaves_per_domain = cfg_.faults.leaves_per_domain;
    fcfg_.leaf = cfg_.faults.leaf;
    fcfg_.domain = cfg_.faults.domain;
    fcfg_.horizon_hours = horizon_ms_ / kMsPerHour;
    fcfg_.seed = Rng(cfg_.seed, 0xFA17).next();
    const reliab::FailureTrace trace = reliab::generate_failure_trace(fcfg_);
    res_.leaf_failures = trace.leaf_failures;
    res_.domain_failures = trace.domain_failures;
    res_.availability_measured = trace.measured_leaf_availability(fcfg_);
    res_.availability_predicted = fcfg_.predicted_leaf_availability();
    steps.reserve(trace.events.size() + 2);
    for (const reliab::FailureEvent& ev : trace.events) {
      steps.push_back({ev.t_hours * kMsPerHour, ev, FaultStep::kTrace});
    }
  }
  const unsigned burst_leaves =
      cfg_.faults.burst_enabled() ? std::min(cfg_.faults.burst_leaves,
                                             cfg_.leaves)
                                  : 0;
  if (burst_leaves > 0) {
    const double t0 = cfg_.faults.burst_start_s * 1000.0;
    steps.push_back({t0, {}, FaultStep::kBurstDown});
    steps.push_back({t0 + cfg_.faults.burst_duration_s * 1000.0, {},
                     FaultStep::kBurstUp});
    res_.leaf_failures += burst_leaves;
  }
  faults_.init(cfg_.leaves, fcfg_.leaves_per_domain, fcfg_.domains(),
               burst_leaves);

  if constexpr (kDirect<Engine>) {
    // One event per record, replayed at run time.
    for (const FaultStep& s : steps) {
      rsim_.schedule_at(s.t_ms, [this, s] {
        faults_.step(s, [this](unsigned l, bool up) {
          on_leaf_transition(0, l, up);
        });
      });
    }
  } else {
    // Replay the records at setup in the order the single kernel would
    // run them (time, then scheduling order) and schedule each effective
    // flip on its group LP: no cross-LP coordination at run time.
    std::stable_sort(steps.begin(), steps.end(),
                     [](const FaultStep& a, const FaultStep& b) {
                       return a.t_ms < b.t_ms;
                     });
    for (const FaultStep& s : steps) {
      faults_.step(s, [this, &s](unsigned l, bool up) {
        const unsigned g = group_of_leaf(l);
        const unsigned li = l - grps_[g].first;
        kernel(1 + g).schedule_at(
            s.t_ms, [this, g, li, up] { on_leaf_transition(g, li, up); });
      });
    }
  }
}

/// Gray (fail-slow) injection: the seeded episode trace and/or the
/// planted burst (the E34 trigger, mirroring E29's crash burst).  The
/// per-reply coins (loss, jitter spikes) come from a dedicated stream so
/// gray injection never perturbs workload/fault/client draws.
template <class Engine>
void ClusterScenario<Engine>::schedule_gray_injection() {
  const ClusterGrayConfig& gc = cfg_.gray;
  gray_active_ = gc.any();
  if (!gray_active_) return;
  gray_.assign(cfg_.leaves, LeafGray{});
  grng_ = Rng(cfg_.seed, 0x6417);
  if (gc.enabled) {
    reliab::GrayTraceConfig gcfg = gc.trace_config();
    gcfg.entities = cfg_.leaves;
    gcfg.horizon_hours = horizon_ms_ / kMsPerHour;
    // Its own sub-stream, like the fail-stop trace's 0xFA17.
    gcfg.seed = Rng(cfg_.seed, 0xFA51).next();
    const reliab::GrayTrace gtrace = reliab::generate_gray_trace(gcfg);
    for (const reliab::GrayEvent& ev : gtrace.events) {
      rsim_.schedule_at(ev.t_hours * kMsPerHour, [this, ev] {
        apply_gray(ev.entity, ev.mode, ev.severity, ev.onset);
      });
    }
  }
  if (gc.burst_enabled()) {
    const unsigned n = std::min(gc.burst_leaves, cfg_.leaves);
    const double t0 = gc.burst_start_s * 1000.0;
    const reliab::GrayMode mode = gc.burst_mode;
    const double sev = gc.burst_severity;
    for (const bool onset : {true, false}) {
      rsim_.schedule_at(onset ? t0 : t0 + gc.burst_duration_s * 1000.0,
                        [this, n, mode, sev, onset] {
                          for (unsigned l = 0; l < n; ++l) {
                            apply_gray(l, mode, sev, onset);
                          }
                        });
    }
  }
}

template <class Engine>
ClusterResult ClusterScenario<Engine>::run() {
  Rng rng(cfg_.seed);

  // --- leaves, LP wiring and pre-sizing ---
  grps_.resize(groups_);
  for (unsigned g = 0; g < groups_; ++g) {
    Group& grp = grps_[g];
    const auto [lo, hi] = des::group_range(g, cfg_.leaves, groups_);
    grp.first = lo;
    grp.up.assign(hi - lo, 1);
    des::Simulator& gs = kernel(1 + g);
    grp.leaves.reserve(hi - lo);
    for (unsigned l = lo; l < hi; ++l) {
      grp.leaves.push_back(
          std::make_unique<des::Resource>(gs, 1, cfg_.leaf_queue));
    }
    if constexpr (!kDirect<Engine>) {
      eng_.lp(1 + g).set_handler([this, g](LpT& lp, const des::Payload& p) {
        on_group_msg(g, lp, p);
      });
      gs.reserve(static_cast<std::size_t>(cfg_.duration_s *
                                          cfg_.background_rate_hz *
                                          static_cast<double>(hi - lo) * 1.1) +
                 2 * (hi - lo) + 64);
    }
  }
  if constexpr (kDirect<Engine>) {
    // Every background arrival and query start lands on the one kernel
    // up front; pre-size it once for all of them (plus in-flight
    // completions) so the hot loop rarely reallocates.
    rsim_.reserve(static_cast<std::size_t>(
                      cfg_.duration_s * (cfg_.background_rate_hz * cfg_.leaves +
                                         cfg_.query_rate_hz) * 1.1) +
                  2 * cfg_.leaves + 64);
  } else {
    eng_.lp(0).set_handler(
        [this](LpT&, const des::Payload& p) { on_root_msg(p); });
    rsim_.reserve(static_cast<std::size_t>(cfg_.duration_s *
                                           cfg_.query_rate_hz * 1.2) +
                  2 * cfg_.leaves + 64);
  }
  this->init_client();
  if (cfg_.trace) attach_trace(cfg_.trace);

  // --- injection, in the one setup order (see the file comment) ---
  if constexpr (kDirect<Engine>) schedule_powercap();
  schedule_faults();
  if constexpr (kDirect<Engine>) schedule_gray_injection();
  // Detection is root-LP state only (all scoring happens on replies the
  // root observes), so it needs no cross-LP coordination.
  this->schedule_gray_evals();

  // --- background load on each leaf (dropped while the leaf is down);
  // RNG split in GLOBAL leaf order so draws are partition-independent ---
  for (unsigned l = 0; l < cfg_.leaves; ++l) {
    double t = 0;
    Rng brng = rng.split();
    if (cfg_.background_rate_hz <= 0) continue;
    const unsigned g = group_of_leaf(l);
    Group& grp = grps_[g];
    const unsigned li = l - grp.first;
    des::Resource* leaf = grp.leaves[li].get();
    const char* up = &grp.up[li];
    des::Simulator& gs = kernel(1 + g);
    while (true) {
      t += brng.exponential(1000.0 / cfg_.background_rate_hz);
      if (t >= horizon_ms_) break;
      const double sz = brng.exponential(cfg_.background_ms);
      gs.schedule_at(t, [leaf, sz, up] {
        if (*up) leaf->request(sz, nullptr);
      });
    }
  }

  // --- fan-out queries through the policy engine ---
  this->schedule_queries(rng);

  eng_.run();  // drain: completions may straggle past the horizon

  // Close the breaker books at the time of the LAST event anywhere --
  // the same instant on either PDES engine (the loopback clock stops at
  // the global last event; the parallel engine's per-LP maximum equals
  // it).
  double end = rsim_.now();
  if constexpr (!kDirect<Engine>) {
    for (std::uint32_t i = 0; i < eng_.lps(); ++i) {
      end = std::max(end, eng_.lp(i).now());
    }
  }
  // Server-side folds, in global leaf order (deterministic).
  double util = 0;
  for (const Group& grp : grps_) {
    res_.lost_requests += grp.lost;
    for (const auto& leaf : grp.leaves) {
      res_.rejected_requests += leaf->rejected();
      res_.expired_drops += leaf->expired();
      util += leaf->busy_time() / horizon_ms_;
    }
  }
  if (pcap_) {
    pcap_->finish();
    const PowercapStats& ps = pcap_->stats();
    res_.power_shed_queries = ps.shed_queries;
    res_.power_gate_stalls = ps.gate_stalls;
    res_.power_overruns = ps.overruns;
    res_.energy_j = ps.energy_j;
    res_.peak_window_w = ps.peak_window_w;
    res_.energy_j_per_window = ps.energy_j_per_window;
  }
  this->finish_client(end, util);
  publish_metrics();
  return std::move(res_);
}

}  // namespace

ClusterResult simulate_cluster(const ClusterConfig& cfg) {
  cfg.validate();
  if (!(cfg.net_latency_ms > 0)) {
    ClusterScenario<des::Simulator> sim(cfg, 1);
    return sim.run();
  }
  const unsigned groups = cfg.leaf_groups
                              ? cfg.leaf_groups
                              : des::balanced_groups(cfg.leaves, 8);
  des::PartitionSpec spec;
  spec.lps = 1 + groups;
  spec.lookahead = cfg.net_latency_ms;
  // Per-LP allocation hint: the engines pre-size each LP's kernel and
  // commit buffers for the per-window message burst (a window spans the
  // lookahead, so the burst is bounded by the query rate times the
  // lookahead times the fanout, with slack for leaf answers and timer
  // events) so warm-up never grows a vector mid-run.  The scenario ctor
  // still applies its finer per-sim estimates on top.
  spec.reserve_events =
      static_cast<std::size_t>(cfg.query_rate_hz * cfg.net_latency_ms * 1e-3 *
                               static_cast<double>(cfg.leaves) * 8.0) +
      1024;
  if (cfg.workers == 0) {
    ClusterScenario<des::LoopbackEngine> sim(cfg, groups, spec);
    return sim.run();
  }
  ThreadPool pool(cfg.workers);  // outlives the engine inside `sim`
  ClusterScenario<des::ParallelEngine> sim(cfg, groups, spec, pool);
  return sim.run();
}

}  // namespace arch21::cloud
