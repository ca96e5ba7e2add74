#include "cloud/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/client.hpp"
#include "des/resource.hpp"
#include "des/simulator.hpp"
#include "reliab/failure_trace.hpp"
#include "reliab/gray.hpp"

#if ARCH21_OBS_ENABLED
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#endif

namespace arch21::cloud {

// Simulation time unit: milliseconds.

namespace {

constexpr double kMsPerHour = 3.6e6;

[[noreturn]] void bad(const char* strct, const char* field) {
  throw std::invalid_argument(std::string(strct) + "::" + field);
}

}  // namespace

void ClusterFaultConfig::validate() const {
  // The burst is independent of the stochastic trace, so its fields are
  // checked whether or not `enabled` is set.
  if (!(burst_start_s >= 0)) {
    bad("ClusterFaultConfig", "burst_start_s must be >= 0");
  }
  if (!(burst_duration_s >= 0)) {
    bad("ClusterFaultConfig", "burst_duration_s must be >= 0");
  }
  if (burst_leaves > 0 && !(burst_duration_s > 0)) {
    bad("ClusterFaultConfig", "burst_leaves requires burst_duration_s > 0");
  }
  if (!enabled) return;
  if (!(leaf.mtbf_hours > 0)) {
    bad("ClusterFaultConfig", "leaf.mtbf_hours must be > 0");
  }
  if (!(leaf.mttr_hours >= 0)) {
    bad("ClusterFaultConfig", "leaf.mttr_hours must be >= 0");
  }
  if (leaves_per_domain > 0) {
    if (!(domain.mtbf_hours > 0)) {
      bad("ClusterFaultConfig", "domain.mtbf_hours must be > 0");
    }
    if (!(domain.mttr_hours >= 0)) {
      bad("ClusterFaultConfig", "domain.mttr_hours must be >= 0");
    }
  }
}

void ClusterGrayConfig::validate() const {
  // Burst fields are independent of the stochastic trace, so they are
  // checked whether or not `enabled` is set (like ClusterFaultConfig).
  if (!(burst_start_s >= 0)) {
    bad("ClusterGrayConfig", "burst_start_s must be >= 0");
  }
  if (!(burst_duration_s >= 0)) {
    bad("ClusterGrayConfig", "burst_duration_s must be >= 0");
  }
  if (burst_leaves > 0) {
    if (!(burst_duration_s > 0)) {
      bad("ClusterGrayConfig", "burst_leaves requires burst_duration_s > 0");
    }
    switch (burst_mode) {
      case reliab::GrayMode::kSlow:
        if (!(burst_severity > 1) || !std::isfinite(burst_severity)) {
          bad("ClusterGrayConfig", "slow burst_severity must be finite and > 1");
        }
        break;
      case reliab::GrayMode::kLossy:
        if (!(burst_severity > 0) || burst_severity > 1) {
          bad("ClusterGrayConfig", "lossy burst_severity must be in (0, 1]");
        }
        break;
      case reliab::GrayMode::kZombie:
        break;  // total reply loss; severity ignored
      case reliab::GrayMode::kJittery:
        if (!(burst_severity > 0) || !std::isfinite(burst_severity)) {
          bad("ClusterGrayConfig",
              "jittery burst_severity must be finite and > 0");
        }
        break;
    }
  }
  if (!(spike_prob > 0) || spike_prob > 1) {
    bad("ClusterGrayConfig", "spike_prob must be in (0, 1]");
  }
  if (!enabled) return;
  // The trace parameterization is exactly a GrayTraceConfig; delegate so
  // the two layers can never drift apart on what is legal.
  reliab::GrayTraceConfig gcfg;
  gcfg.entities = 1;
  gcfg.episode = episode;
  gcfg.w_slow = w_slow;
  gcfg.w_lossy = w_lossy;
  gcfg.w_zombie = w_zombie;
  gcfg.w_jittery = w_jittery;
  gcfg.slow_factor_min = slow_factor_min;
  gcfg.slow_factor_max = slow_factor_max;
  gcfg.loss_fraction_min = loss_fraction_min;
  gcfg.loss_fraction_max = loss_fraction_max;
  gcfg.spike_ms_min = spike_ms_min;
  gcfg.spike_ms_max = spike_ms_max;
  gcfg.spike_prob = spike_prob;
  gcfg.validate();
}

void ClusterConfig::validate() const {
  if (leaves == 0) bad("ClusterConfig", "leaves must be > 0");
  if (!(query_rate_hz > 0)) bad("ClusterConfig", "query_rate_hz must be > 0");
  if (!(leaf_service_ms > 0)) {
    bad("ClusterConfig", "leaf_service_ms must be > 0");
  }
  if (!(service_sigma > 0)) bad("ClusterConfig", "service_sigma must be > 0");
  if (!(background_rate_hz >= 0)) {
    bad("ClusterConfig", "background_rate_hz must be >= 0");
  }
  if (background_rate_hz > 0 && !(background_ms > 0)) {
    bad("ClusterConfig", "background_ms must be > 0");
  }
  if (!(duration_s > 0)) bad("ClusterConfig", "duration_s must be > 0");
  leaf_queue.validate();
  if (!(goodput_window_s >= 0)) {
    bad("ClusterConfig", "goodput_window_s must be >= 0");
  }
  if (!(net_latency_ms >= 0) || !std::isfinite(net_latency_ms)) {
    bad("ClusterConfig", "net_latency_ms must be finite and >= 0");
  }
  if (workers > 0 && !(net_latency_ms > 0)) {
    // The conservative engine needs latency to hide behind; the
    // zero-latency model stays on the (serial) legacy path.
    bad("ClusterConfig", "workers > 0 requires net_latency_ms > 0");
  }
  if (leaf_groups > leaves) {
    bad("ClusterConfig", "leaf_groups must be <= leaves");
  }
#if ARCH21_OBS_ENABLED
  if (trace != nullptr && workers > 1) {
    // The trace ring is single-writer; with one worker the parallel
    // engine runs LP phases sequentially, so one ring still works.
    bad("ClusterConfig", "trace requires workers <= 1");
  }
#endif
  faults.validate();
  if (faults.burst_leaves > leaves) {
    bad("ClusterFaultConfig", "burst_leaves must be <= leaves");
  }
  policy.validate();
  powercap.validate();
  if (powercap.enabled && net_latency_ms > 0) {
    // The window energy contract is cluster-global state; the LP-sharded
    // engine has no home for it.  (workers > 0 is excluded transitively:
    // it requires net_latency_ms > 0.)
    bad("ClusterConfig", "powercap requires net_latency_ms == 0");
  }
  gray.validate();
  if (gray.burst_leaves > leaves) {
    bad("ClusterGrayConfig", "burst_leaves must be <= leaves");
  }
  if (gray.any() && net_latency_ms > 0) {
    // The injection hooks live on the serial engine's leaves; the
    // LP-sharded path rejects the config rather than silently ignoring
    // it.  (Gray DETECTION -- policy.gray -- runs on both engines.)
    bad("ClusterConfig", "gray injection requires net_latency_ms == 0");
  }
  if (gray.any() && powercap.enabled) {
    // Both layers drive Resource::set_speed; composed, one would silently
    // overwrite the other's p-state.
    bad("ClusterConfig", "gray injection and powercap are mutually exclusive");
  }
}

void ClusterResult::merge(const ClusterResult& other) {
  const double w_self = static_cast<double>(trials);
  const double w_other = static_cast<double>(other.trials);
  const double w = w_self + w_other;
  auto avg = [&](double a, double b) { return (a * w_self + b * w_other) / w; };

  queries += other.queries;
  ok_queries += other.ok_queries;
  degraded_queries += other.degraded_queries;
  failed_queries += other.failed_queries;
  query_ms.merge(other.query_ms);
  leaf_ms.merge(other.leaf_ms);
  mean_leaf_utilization =
      avg(mean_leaf_utilization, other.mean_leaf_utilization);
  hedge_fraction = avg(hedge_fraction, other.hedge_fraction);
  leaf_requests += other.leaf_requests;
  retries += other.retries;
  hedges += other.hedges;
  timeouts += other.timeouts;
  lost_requests += other.lost_requests;
  budget_denials += other.budget_denials;
  leaf_failures += other.leaf_failures;
  domain_failures += other.domain_failures;
  shed_queries += other.shed_queries;
  rejected_requests += other.rejected_requests;
  expired_drops += other.expired_drops;
  breaker_open_transitions += other.breaker_open_transitions;
  breaker_short_circuits += other.breaker_short_circuits;
  breaker_probes += other.breaker_probes;
  breaker_open_ms += other.breaker_open_ms;
  // Goodput windows are raw counts over the same wall-clock grid in every
  // trial, so merging is an element-wise sum (trials may differ in length
  // by a window when completions straggle past the horizon).  The grids
  // must actually match: summing counts recorded on different window
  // sizes would silently corrupt the hysteresis measurement.
  if (goodput_window_s > 0 && other.goodput_window_s > 0 &&
      goodput_window_s != other.goodput_window_s) {
    throw std::invalid_argument(
        "ClusterResult::merge: goodput_window_s mismatch");
  }
  if (goodput_window_s == 0) goodput_window_s = other.goodput_window_s;
  if (answered_per_window.size() < other.answered_per_window.size()) {
    answered_per_window.resize(other.answered_per_window.size(), 0);
  }
  for (std::size_t i = 0; i < other.answered_per_window.size(); ++i) {
    answered_per_window[i] += other.answered_per_window[i];
  }
  power_shed_queries += other.power_shed_queries;
  power_gate_stalls += other.power_gate_stalls;
  power_overruns += other.power_overruns;
  energy_j += other.energy_j;
  // The max (not a mean): a merged aggregate must still certify that no
  // accounting window in ANY trial exceeded the cap.
  peak_window_w = std::max(peak_window_w, other.peak_window_w);
  if (power_cap_w > 0 && other.power_cap_w > 0 &&
      power_cap_w != other.power_cap_w) {
    throw std::invalid_argument("ClusterResult::merge: power_cap_w mismatch");
  }
  if (power_cap_w == 0) power_cap_w = other.power_cap_w;
  if (power_window_s > 0 && other.power_window_s > 0 &&
      power_window_s != other.power_window_s) {
    throw std::invalid_argument(
        "ClusterResult::merge: power_window_s mismatch");
  }
  if (power_window_s == 0) power_window_s = other.power_window_s;
  if (energy_j_per_window.size() < other.energy_j_per_window.size()) {
    energy_j_per_window.resize(other.energy_j_per_window.size(), 0.0);
  }
  for (std::size_t i = 0; i < other.energy_j_per_window.size(); ++i) {
    energy_j_per_window[i] += other.energy_j_per_window[i];
  }
  gray_episodes += other.gray_episodes;
  gray_dropped_replies += other.gray_dropped_replies;
  gray_evictions += other.gray_evictions;
  gray_probations += other.gray_probations;
  gray_zombies += other.gray_zombies;
  gray_redirected_sends += other.gray_redirected_sends;
  adaptive_deadline_ms = avg(adaptive_deadline_ms, other.adaptive_deadline_ms);
  retry_amplification = avg(retry_amplification, other.retry_amplification);
  goodput_qps = avg(goodput_qps, other.goodput_qps);
  availability_measured =
      avg(availability_measured, other.availability_measured);
  availability_predicted =
      avg(availability_predicted, other.availability_predicted);
  sum_result_quality += other.sum_result_quality;
  trials += other.trials;
  frac_over_leaf_p99 = query_ms.fraction_above(leaf_ms.quantile(0.99));
}

namespace {

// One trial of the serial zero-latency cluster.  The client policy is the
// shared ClusterClient core (cloud/client.hpp); this engine owns only its
// transport and its server side: a send is a direct Resource::request,
// loss is decided at send time from the leaf's up state, a bounded-queue
// bounce is a synchronous reject, the powercap governor pre-admits
// queries, and gray injection acts on the leaves and their replies.
//
// The setup sequence, per-event operation order, and every Rng draw site
// are kept identical to the historical shared_ptr implementation, so
// results are bit-identical with pre-slab builds (locked in since by the
// GoldenDigest pins in tests/test_resilience.cpp and
// tests/test_grayfail.cpp).  The overload layer preserves that contract:
// admission sheds before any per-query state is touched, and every
// breaker draw comes from a dedicated Rng stream, so configs with the new
// policies disabled stay bit-identical too.
class ClusterSim : public ClusterClient<ClusterSim> {
  using Client = ClusterClient<ClusterSim>;
  friend Client;

 public:
  explicit ClusterSim(const ClusterConfig& cfg) : Client(cfg) {}

  ClusterResult run();

 private:
  des::Simulator& client_sim() noexcept { return sim_; }

  void set_effective(unsigned l, bool up) {
    if (leaf_up_[l] && !up) {
      // Crash: everything queued or in service on this leaf is lost.
      res_.lost_requests += leaves_[l]->fail_all();
    }
    leaf_up_[l] = up ? 1 : 0;
  }

  // leaf_up_[l] is the *effective* state: own state AND domain state.
  void apply_transition(const reliab::FailureEvent& ev) {
    if (ev.is_domain) {
      domain_up_[ev.entity] = ev.up ? 1 : 0;
      const unsigned begin = ev.entity * fcfg_.leaves_per_domain;
      const unsigned end =
          std::min(begin + fcfg_.leaves_per_domain, cfg_.leaves);
      for (unsigned l = begin; l < end; ++l) {
        set_effective(l, ev.up && own_up_[l]);
      }
    } else {
      own_up_[ev.entity] = ev.up ? 1 : 0;
      const bool dom_ok = fcfg_.leaves_per_domain == 0 ||
                          domain_up_[ev.entity / fcfg_.leaves_per_domain];
      set_effective(ev.entity, ev.up && dom_ok);
    }
  }

  /// Apply one gray-degradation transition to leaf `l`.  Slow mode acts
  /// through the leaf's service speed (work genuinely takes longer);
  /// lossy/zombie/jittery act on the reply path in on_leaf_reply().  A
  /// clear restores full speed and deactivates the reply effects.
  void apply_gray(unsigned l, reliab::GrayMode mode, double severity,
                  bool onset) {
    LeafGray& g = gray_[l];
    if (onset) {
      ++res_.gray_episodes;
      if (g.active && g.mode == reliab::GrayMode::kSlow &&
          mode != reliab::GrayMode::kSlow) {
        leaves_[l]->set_speed(1.0);  // mode switch out of slow
      }
      g.mode = mode;
      g.severity = severity;
      g.active = true;
      if (mode == reliab::GrayMode::kSlow) {
        leaves_[l]->set_speed(1.0 / severity);
      }
    } else {
      if (g.active && g.mode == reliab::GrayMode::kSlow) {
        leaves_[l]->set_speed(1.0);
      }
      g.active = false;
    }
  }

  /// The power cap is the primary constraint: the governor's cap-aware
  /// admission sheds BEFORE the resilience-policy admission (and long
  /// before any leaf would throttle) -- a power-shed query touches no
  /// per-query state, exactly like a policy shed.
  bool engine_admits() {
    if (pcap_ && !pcap_->admit(sim_.now())) {
      mark(tr_pshed_);
      return false;
    }
    return true;
  }

  /// Send one attempt straight into the target's Resource.  A request to
  /// a down leaf vanishes (only a timeout or the query deadline will tell
  /// the client); a request bounced off a full bounded queue is rejected
  /// synchronously.
  void transmit(const QueryRef& q, const CallRef& call, double service,
                unsigned t) {
    if (!leaf_up_[t]) {
      ++res_.lost_requests;
      mark(tr_lost_);
      return;
    }
    if (!leaves_[t]->request(service, [this, q, call, t](double, double) {
          on_leaf_reply(q, call, t);
        })) {
      note_reject(t);
      mark(tr_rejected_);
    }
  }

  /// A leaf finished serving an attempt: apply gray reply effects before
  /// the client sees anything.  A lossy/zombie leaf eats the reply (only
  /// the client's timeout will tell it); a jittery leaf delays it by an
  /// exponential spike -- the leaf itself kept full capacity, so this is
  /// a NIC/GC hiccup, not queueing.  All coins/draws come from the
  /// dedicated gray stream, and only while an episode is active.
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
              sim_.schedule(grng_.exponential(g.severity), std::move(deliver));
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
    note_reply(target);
    // The detector scores every reply that reaches the client --
    // including late and duplicate ones, which are exactly the fail-slow
    // signal the breaker window launders into successes.
    if (gdet_.engaged()) gdet_.on_reply(target, sim_.now() - q->start_ms);
    if (call->done) return;  // a faster attempt already answered
    call_answered(q, call);
  }

#if ARCH21_OBS_ENABLED
  /// Wire the trace sink into every layer of this trial: DES kernel
  /// instants on track 0, leaf l's serve spans on track 1 + l (each leaf
  /// is a single-server Resource, so one track per leaf suffices), and
  /// the client's query/retry/hedge lifecycle markers.
  void attach_trace(obs::TraceBuffer* t) {
    sim_.set_trace(t);
    t->name_thread(0, "des-kernel");
    for (unsigned l = 0; l < cfg_.leaves; ++l) {
      t->name_thread(1 + l, "leaf-" + std::to_string(l));
      leaves_[l]->set_trace(t, 1 + l);
    }
    attach_client_trace(t);
    tr_pshed_ = t->intern("power-shed");
  }

  /// Fold this trial's counters and slab high-water marks into the
  /// process-wide registry.  Called once at the end of run(); a no-op
  /// while the registry is disabled.
  void publish_metrics() {
    auto& m = obs::MetricsRegistry::global();
    if (!m.enabled()) return;
    publish_client_metrics(m);
    if (pcap_) {
      m.add(m.counter("cluster.power.shed"), res_.power_shed_queries);
      m.add(m.counter("cluster.power.stalls"), res_.power_gate_stalls);
      m.gauge_max(m.gauge("cluster.power.peak_window_w"),
                  res_.peak_window_w);
    }
    std::size_t qhwm = 0;
    for (const auto& leaf : leaves_) {
      qhwm = std::max(qhwm, leaf->queue_high_water());
    }
    m.gauge_max(m.gauge("cluster.leaf_queue.hwm"),
                static_cast<double>(qhwm));
    publish_kernel_metrics(m, sim_);
    publish_slab_metrics(m);
  }
#endif

  des::Simulator sim_;
  std::vector<std::unique_ptr<des::Resource>> leaves_;
  /// Power-capped co-simulation engine (null unless powercap.enabled).
  /// Declared after leaves_ so its gates detach before the leaves die.
  std::unique_ptr<PowercapRuntime> pcap_;
  std::vector<char> leaf_up_;
  std::vector<char> own_up_;
  std::vector<char> domain_up_;
  reliab::FailureTraceConfig fcfg_;
  /// Live gray-degradation state of one leaf (injection side).
  struct LeafGray {
    reliab::GrayMode mode = reliab::GrayMode::kSlow;
    double severity = 0;
    bool active = false;
  };
  std::vector<LeafGray> gray_;
  bool gray_active_ = false;  // any gray injection configured this trial
  Rng grng_{0};  // gray-injection-only stream: loss coins, jitter spikes
  std::uint32_t tr_pshed_ = 0;
};

ClusterResult ClusterSim::run() {
  Rng rng(cfg_.seed);
  leaves_.reserve(cfg_.leaves);
  for (unsigned i = 0; i < cfg_.leaves; ++i) {
    leaves_.push_back(
        std::make_unique<des::Resource>(sim_, 1, cfg_.leaf_queue));
  }
  init_client();
#if ARCH21_OBS_ENABLED
  if (cfg_.trace) attach_trace(cfg_.trace);
#endif
  // All background arrivals and query starts are scheduled up front;
  // pre-size the event tiers for them (plus in-flight completions) so the
  // hot loop rarely reallocates.
  sim_.reserve(static_cast<std::size_t>(
                   cfg_.duration_s * (cfg_.background_rate_hz * cfg_.leaves +
                                      cfg_.query_rate_hz) * 1.1) +
               2 * cfg_.leaves + 64);

  // --- power-capped co-simulation (p-states, window energy contract) ---
  if (cfg_.powercap.enabled) {
    // Expected background busy fraction per leaf, for the governor's
    // admissible-rate estimate.
    const double bg_frac =
        cfg_.background_rate_hz * cfg_.background_ms * 1e-3;
    pcap_ = std::make_unique<PowercapRuntime>(
        cfg_.powercap, cfg_.leaves, cfg_.leaf_service_ms, bg_frac);
    pcap_->attach(leaves_);
    res_.power_cap_w = pcap_->cap_w();
    res_.power_window_s = cfg_.powercap.window_s;
    // One boundary per full window covering the horizon (the last may
    // land past it -- windows are never shortened, so every window's
    // charged power is comparable against the cap).  The final boundary
    // also detaches the gates: the post-horizon drain runs unconstrained
    // and unmetered.  The runtime draws no randomness, so none of this
    // perturbs workload/fault/policy streams.
    const auto nwin = static_cast<std::uint64_t>(
        std::ceil(horizon_ms_ / pcap_->window_ms()));
    for (std::uint64_t k = 1; k <= nwin; ++k) {
      const bool last = k == nwin;
      sim_.schedule_at(static_cast<double>(k) * pcap_->window_ms(),
                       [this, last] {
                         pcap_->on_window(sim_.now());
                         if (last) pcap_->detach();
                       });
    }
  }
  // --- failure injection (seeded trace replayed onto the DES) ---
  leaf_up_.assign(cfg_.leaves, 1);
  own_up_.assign(cfg_.leaves, 1);
  if (cfg_.faults.enabled) {
    fcfg_.leaves = cfg_.leaves;
    fcfg_.leaves_per_domain = cfg_.faults.leaves_per_domain;
    fcfg_.leaf = cfg_.faults.leaf;
    fcfg_.domain = cfg_.faults.domain;
    fcfg_.horizon_hours = horizon_ms_ / kMsPerHour;
    // A dedicated sub-stream so the trace never perturbs workload draws.
    fcfg_.seed = Rng(cfg_.seed, 0xFA17).next();
    const reliab::FailureTrace trace = reliab::generate_failure_trace(fcfg_);
    res_.leaf_failures = trace.leaf_failures;
    res_.domain_failures = trace.domain_failures;
    res_.availability_measured = trace.measured_leaf_availability(fcfg_);
    res_.availability_predicted = fcfg_.predicted_leaf_availability();
    domain_up_.assign(std::max(fcfg_.domains(), 1u), 1);
    for (const reliab::FailureEvent& ev : trace.events) {
      sim_.schedule_at(ev.t_hours * kMsPerHour,
                       [this, ev] { apply_transition(ev); });
    }
  }

  // --- deterministic transient fault burst (the E29 trigger) ---
  if (cfg_.faults.burst_enabled()) {
    const unsigned n = std::min(cfg_.faults.burst_leaves, cfg_.leaves);
    const double t0 = cfg_.faults.burst_start_s * 1000.0;
    sim_.schedule_at(t0, [this, n] {
      for (unsigned l = 0; l < n; ++l) {
        own_up_[l] = 0;
        set_effective(l, false);
      }
    });
    sim_.schedule_at(t0 + cfg_.faults.burst_duration_s * 1000.0, [this, n] {
      for (unsigned l = 0; l < n; ++l) {
        own_up_[l] = 1;
        const bool dom_ok = fcfg_.leaves_per_domain == 0 ||
                            domain_up_.empty() ||
                            domain_up_[l / fcfg_.leaves_per_domain];
        set_effective(l, dom_ok);
      }
    });
    res_.leaf_failures += n;
  }

  // --- gray (fail-slow) injection: seeded trace and/or planted burst ---
  gray_active_ = cfg_.gray.any();
  if (gray_active_) {
    gray_.assign(cfg_.leaves, LeafGray{});
    // Dedicated stream for the per-reply coins (loss, jitter spikes) so
    // gray injection never perturbs workload/fault/client draws.
    grng_ = Rng(cfg_.seed, 0x6417);
  }
  if (cfg_.gray.enabled) {
    reliab::GrayTraceConfig gcfg;
    gcfg.entities = cfg_.leaves;
    gcfg.episode = cfg_.gray.episode;
    gcfg.w_slow = cfg_.gray.w_slow;
    gcfg.w_lossy = cfg_.gray.w_lossy;
    gcfg.w_zombie = cfg_.gray.w_zombie;
    gcfg.w_jittery = cfg_.gray.w_jittery;
    gcfg.slow_factor_min = cfg_.gray.slow_factor_min;
    gcfg.slow_factor_max = cfg_.gray.slow_factor_max;
    gcfg.loss_fraction_min = cfg_.gray.loss_fraction_min;
    gcfg.loss_fraction_max = cfg_.gray.loss_fraction_max;
    gcfg.spike_ms_min = cfg_.gray.spike_ms_min;
    gcfg.spike_ms_max = cfg_.gray.spike_ms_max;
    gcfg.spike_prob = cfg_.gray.spike_prob;
    gcfg.horizon_hours = horizon_ms_ / kMsPerHour;
    // Its own sub-stream, like the fail-stop trace's 0xFA17.
    gcfg.seed = Rng(cfg_.seed, 0xFA51).next();
    const reliab::GrayTrace gtrace = reliab::generate_gray_trace(gcfg);
    for (const reliab::GrayEvent& ev : gtrace.events) {
      sim_.schedule_at(ev.t_hours * kMsPerHour, [this, ev] {
        apply_gray(ev.entity, ev.mode, ev.severity, ev.onset);
      });
    }
  }

  // --- deterministic gray burst (the E34 trigger, mirrors E29's) ---
  if (cfg_.gray.burst_enabled()) {
    const unsigned n = std::min(cfg_.gray.burst_leaves, cfg_.leaves);
    const double t0 = cfg_.gray.burst_start_s * 1000.0;
    const reliab::GrayMode mode = cfg_.gray.burst_mode;
    const double sev = cfg_.gray.burst_severity;
    sim_.schedule_at(t0, [this, n, mode, sev] {
      for (unsigned l = 0; l < n; ++l) apply_gray(l, mode, sev, true);
    });
    sim_.schedule_at(t0 + cfg_.gray.burst_duration_s * 1000.0,
                     [this, n, mode, sev] {
                       for (unsigned l = 0; l < n; ++l) {
                         apply_gray(l, mode, sev, false);
                       }
                     });
  }

  // --- client-side gray detection (eval cadence on the root) ---
  schedule_gray_evals();

  // --- background load on each leaf (dropped while the leaf is down) ---
  for (unsigned l = 0; l < cfg_.leaves; ++l) {
    double t = 0;
    Rng brng = rng.split();
    if (cfg_.background_rate_hz <= 0) continue;
    while (true) {
      t += brng.exponential(1000.0 / cfg_.background_rate_hz);
      if (t >= horizon_ms_) break;
      const double sz = brng.exponential(cfg_.background_ms);
      des::Resource* leaf = leaves_[l].get();
      const char* up = &leaf_up_[l];
      sim_.schedule_at(t, [leaf, sz, up] {
        if (*up) leaf->request(sz, nullptr);
      });
    }
  }

  // --- fan-out queries through the policy engine ---
  schedule_queries(rng);

  sim_.run();

  // Server-side drop totals live in the leaves; fold them in once.
  double util = 0;
  for (const auto& leaf : leaves_) {
    res_.rejected_requests += leaf->rejected();
    res_.expired_drops += leaf->expired();
    util += leaf->busy_time() / horizon_ms_;
  }
  // Fold the powercap engine's telemetry in once.
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
  finish_client(sim_.now(), util);
#if ARCH21_OBS_ENABLED
  publish_metrics();
#endif
  return std::move(res_);
}

}  // namespace

ClusterResult simulate_cluster(const ClusterConfig& cfg) {
  cfg.validate();
  if (cfg.net_latency_ms > 0) return simulate_cluster_pdes(cfg);
  ClusterSim trial(cfg);
  return trial.run();
}

}  // namespace arch21::cloud
