// The LP-sharded network-latency cluster scenario, written ONCE and
// templated over the PDES engine: des::LoopbackEngine (one serial kernel
// -- the differential reference) or des::ParallelEngine (conservative
// window synchronization on the thread pool).  simulate_cluster_pdes()
// picks the engine from ClusterConfig::workers; results are bit-identical
// either way (tests/test_pdes.cpp).
//
// Partitioning: LP 0 is the root -- query arrivals plus the client-policy
// core shared with the serial engine (ClusterClient, cloud/client.hpp:
// deadlines, hedges, retries, budgets, admission, per-replica breakers,
// gray detection).  This file adds only the transport and the server
// side.  LPs 1..G each own a contiguous group of leaves: their
// des::Resource queues, their background load, and their fault
// transitions.  Every root<->leaf exchange travels net_latency_ms one
// way, which is exactly the engine's conservative lookahead.
//
// Differences from the zero-latency model (this is a separate scenario,
// gated on net_latency_ms > 0):
//   * A request sent to a down leaf is counted lost at the LEAF, when it
//     arrives -- the root only learns through its timeout, as a real
//     client would.  (The serial engine checks the leaf at send time.)
//   * A bounded-queue rejection reaches the root as an explicit reject
//     message after the return latency, and only then feeds the breaker.
//   * The gray detector scores only replies the root can still attribute
//     to a call (the serial engine also scores late and duplicate ones).
//   * leaf_ms/query latencies include two network hops.
//
// Determinism: all client-side state (slabs, breakers, budget/admission
// buckets, histograms, client/breaker draws) is touched only by root-LP
// events; each group's state only by that group's events; cross-LP
// effects only via engine messages.  Every RNG is either consumed at
// setup (background, query plan, services, fault trace) in a fixed order
// or owned by one LP, so a fixed partition replays identically on any
// engine and any worker count.

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cloud/client.hpp"
#include "cloud/cluster.hpp"
#include "des/partition.hpp"
#include "des/pdes.hpp"
#include "des/resource.hpp"
#include "reliab/failure_trace.hpp"
#include "util/thread_pool.hpp"

#if ARCH21_OBS_ENABLED
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#endif

namespace arch21::cloud {

namespace {

constexpr double kMsPerHour = 3.6e6;

template <class Engine>
class PdesClusterSim : public ClusterClient<PdesClusterSim<Engine>> {
  using LpT = std::remove_reference_t<decltype(std::declval<Engine&>().lp(0))>;
  using Client = ClusterClient<PdesClusterSim<Engine>>;
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
#if ARCH21_OBS_ENABLED
  using Client::trace_;
#endif

 public:
  /// Extra arguments construct the engine in place (LoopbackEngine takes
  /// the spec; ParallelEngine takes spec + pool).  The engine lives
  /// INSIDE this object, after the client's slabs (in the base), so
  /// pending actions destroyed during engine teardown can still release
  /// the handle guards they captured.
  template <class... EngineArgs>
  PdesClusterSim(const ClusterConfig& cfg, unsigned groups,
                 EngineArgs&&... engine_args)
      : Client(cfg),
        groups_(groups),
        eng_(std::forward<EngineArgs>(engine_args)...),
        root_(eng_.lp(0)),
        rsim_(eng_.lp(0).sim()) {}

  ClusterResult run();

 private:
  /// Cross-LP message tags (des::Payload::kind).
  enum : std::uint32_t {
    kReq = 1,    ///< root -> group: u32 = leaf, a = serial, x = service_ms
    kReply = 2,  ///< group -> root: u32 = leaf, a = serial
    kReject = 3  ///< group -> root: bounced off a full leaf queue
  };

  /// One leaf-group LP's server-side state.  Touched only by that
  /// group's events (plus serial setup/teardown).
  struct Group {
    std::vector<std::unique_ptr<des::Resource>> leaves;  // local index
    std::vector<char> up;
    std::uint64_t lost = 0;   ///< arrivals at a down leaf + fail_all kills
    unsigned first = 0;       ///< first global leaf id of this group
    std::uint32_t trace_tid = 0;
  };

  des::Simulator& client_sim() noexcept { return rsim_; }

  unsigned group_of_leaf(unsigned l) const noexcept {
    return des::group_of(l, cfg_.leaves, groups_);
  }

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
#if ARCH21_OBS_ENABLED
      if (trace_) trace_->instant(tr_lost_, lp.now(), grp.trace_tid);
#endif
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
#if ARCH21_OBS_ENABLED
      if (trace_) trace_->instant(tr_rejected_, lp.now(), grp.trace_tid);
#endif
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

  // ------------------------------------------------------- root side

  /// Send one attempt as a kReq message to the target's group LP,
  /// identified by a fresh per-attempt serial (slab handles recycle, so
  /// raw handles cannot ride in messages; the serial table pins the call
  /// until its response).
  void transmit(const QueryRef&, const CallRef& call, double service,
                unsigned t) {
    const std::uint64_t serial = call_by_serial_.size();
    calls_.retain(call.h);
    call_by_serial_.push_back(call.h);
    des::Payload req;
    req.kind = kReq;
    req.u32 = t;
    req.a = serial;
    req.x = service;
    root_.send(1 + group_of_leaf(t), cfg_.net_latency_ms, req);
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
    // the serial engine, identical across PDES engines/worker counts).
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

#if ARCH21_OBS_ENABLED
  /// One trace ring is single-writer, so attaching requires workers <= 1
  /// (enforced by ClusterConfig::validate).  Track map: 0 = root kernel
  /// + client lifecycle markers, 1 + l = leaf l's serve spans, and
  /// 1 + leaves + g = group g's kernel instants (per-LP event streams
  /// stay separable in the Chrome trace).
  void attach_trace(obs::TraceBuffer* t) {
    rsim_.set_trace(t, 0);
    t->name_thread(0, "pdes-root");
    for (unsigned g = 0; g < groups_; ++g) {
      Group& grp = grps_[g];
      des::Simulator& gs = eng_.lp(1 + g).sim();
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
  }

  void publish_metrics() {
    auto& m = obs::MetricsRegistry::global();
    if (!m.enabled()) return;
    this->publish_client_metrics(m);
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
#endif

  unsigned groups_ = 0;
  Engine eng_;
  LpT& root_;
  des::Simulator& rsim_;
  // grps_ comes after eng_ so every Resource is torn down while its
  // owning Simulator is alive.
  std::vector<Group> grps_;
  /// serial -> call handle (kNull once resolved).  Each entry holds one
  /// counted reference from send until its reply/reject arrives; replies
  /// that never come (lost to a crash) keep their record until teardown.
  std::vector<std::uint32_t> call_by_serial_;
  reliab::FailureTraceConfig fcfg_;
};

template <class Engine>
ClusterResult PdesClusterSim<Engine>::run() {
  Rng rng(cfg_.seed);

  // --- LP wiring: handlers, leaf resources, pre-sizing ---
  root_.set_handler(
      [this](LpT&, const des::Payload& p) { on_root_msg(p); });
  grps_.resize(groups_);
  for (unsigned g = 0; g < groups_; ++g) {
    Group& grp = grps_[g];
    const auto [lo, hi] = des::group_range(g, cfg_.leaves, groups_);
    grp.first = lo;
    grp.up.assign(hi - lo, 1);
    des::Simulator& gs = eng_.lp(1 + g).sim();
    grp.leaves.reserve(hi - lo);
    for (unsigned l = lo; l < hi; ++l) {
      grp.leaves.push_back(
          std::make_unique<des::Resource>(gs, 1, cfg_.leaf_queue));
    }
    eng_.lp(1 + g).set_handler([this, g](LpT& lp, const des::Payload& p) {
      on_group_msg(g, lp, p);
    });
    gs.reserve(static_cast<std::size_t>(cfg_.duration_s *
                                        cfg_.background_rate_hz *
                                        static_cast<double>(hi - lo) * 1.1) +
               2 * (hi - lo) + 64);
  }
  rsim_.reserve(static_cast<std::size_t>(cfg_.duration_s *
                                         cfg_.query_rate_hz * 1.2) +
                2 * cfg_.leaves + 64);
  this->init_client();
  // Detection is root-LP state only (all scoring happens on replies the
  // root observes), so it needs no cross-LP coordination.  Gray
  // INJECTION is a serial-engine feature (validate() rejects it here).
  this->schedule_gray_evals();
#if ARCH21_OBS_ENABLED
  if (cfg_.trace) attach_trace(cfg_.trace);
#endif

  // --- failure injection: expand the stochastic trace + deterministic
  // burst into per-leaf EFFECTIVE up/down transitions at setup (a serial
  // replay of the legacy own/domain state machine), then schedule each
  // leaf's transitions on its owning group LP.  No cross-LP coordination
  // is needed at runtime because the expansion already resolved the
  // domain coupling. ---
  {
    struct Raw {
      double t_ms;
      int order;  // stable tie-break: scheduling order of the legacy path
      reliab::FailureEvent ev;
      int burst = 0;  // 0 = trace event, 1 = burst down, 2 = burst up
    };
    std::vector<Raw> raw;
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
      raw.reserve(trace.events.size() + 2);
      for (const reliab::FailureEvent& ev : trace.events) {
        raw.push_back(Raw{ev.t_hours * kMsPerHour,
                          static_cast<int>(raw.size()), ev});
      }
    }
    if (cfg_.faults.burst_enabled()) {
      const double t0 = cfg_.faults.burst_start_s * 1000.0;
      raw.push_back(
          Raw{t0, static_cast<int>(raw.size()), reliab::FailureEvent{}, 1});
      raw.push_back(Raw{t0 + cfg_.faults.burst_duration_s * 1000.0,
                        static_cast<int>(raw.size()), reliab::FailureEvent{},
                        2});
      res_.leaf_failures += std::min(cfg_.faults.burst_leaves, cfg_.leaves);
    }
    std::stable_sort(raw.begin(), raw.end(), [](const Raw& a, const Raw& b) {
      return a.t_ms < b.t_ms;
    });
    std::vector<char> own(cfg_.leaves, 1);
    std::vector<char> eff(cfg_.leaves, 1);
    std::vector<char> dom(std::max(fcfg_.domains(), 1u), 1);
    auto set_eff = [&](double t_ms, unsigned l, bool up) {
      if ((eff[l] != 0) == up) return;
      eff[l] = up ? 1 : 0;
      const unsigned g = group_of_leaf(l);
      const unsigned li = l - grps_[g].first;
      eng_.lp(1 + g).sim().schedule_at(
          t_ms, [this, g, li, up] { on_leaf_transition(g, li, up); });
    };
    for (const Raw& r : raw) {
      if (r.burst == 1) {
        const unsigned n = std::min(cfg_.faults.burst_leaves, cfg_.leaves);
        for (unsigned l = 0; l < n; ++l) {
          own[l] = 0;
          set_eff(r.t_ms, l, false);
        }
      } else if (r.burst == 2) {
        const unsigned n = std::min(cfg_.faults.burst_leaves, cfg_.leaves);
        for (unsigned l = 0; l < n; ++l) {
          own[l] = 1;
          const bool dom_ok = fcfg_.leaves_per_domain == 0 ||
                              dom[l / fcfg_.leaves_per_domain];
          set_eff(r.t_ms, l, dom_ok);
        }
      } else if (r.ev.is_domain) {
        dom[r.ev.entity] = r.ev.up ? 1 : 0;
        const unsigned begin = r.ev.entity * fcfg_.leaves_per_domain;
        const unsigned end =
            std::min(begin + fcfg_.leaves_per_domain, cfg_.leaves);
        for (unsigned l = begin; l < end; ++l) {
          set_eff(r.t_ms, l, r.ev.up && own[l]);
        }
      } else {
        own[r.ev.entity] = r.ev.up ? 1 : 0;
        const bool dom_ok = fcfg_.leaves_per_domain == 0 ||
                            dom[r.ev.entity / fcfg_.leaves_per_domain];
        set_eff(r.t_ms, r.ev.entity, r.ev.up && dom_ok);
      }
    }
  }

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
    des::Simulator& gs = eng_.lp(1 + g).sim();
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
  // the same instant on either engine (the loopback clock stops at the
  // global last event; the parallel engine's per-LP maximum equals it).
  double end = 0;
  for (std::uint32_t i = 0; i < eng_.lps(); ++i) {
    end = std::max(end, eng_.lp(i).now());
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
  this->finish_client(end, util);
#if ARCH21_OBS_ENABLED
  publish_metrics();
#endif
  return std::move(res_);
}

}  // namespace

ClusterResult simulate_cluster_pdes(const ClusterConfig& cfg) {
  cfg.validate();
  if (!(cfg.net_latency_ms > 0)) {
    throw std::invalid_argument(
        "simulate_cluster_pdes: net_latency_ms must be > 0");
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
    PdesClusterSim<des::LoopbackEngine> sim(cfg, groups, spec);
    return sim.run();
  }
  ThreadPool pool(cfg.workers);  // outlives the engine inside `sim`
  PdesClusterSim<des::ParallelEngine> sim(cfg, groups, spec, pool);
  return sim.run();
}

}  // namespace arch21::cloud
