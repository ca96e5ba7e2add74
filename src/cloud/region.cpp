#include "cloud/region.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "cloud/client.hpp"
#include "cloud/qos.hpp"
#include "cloud/queueing.hpp"
#include "cloud/tail.hpp"
#include "cloud/trials.hpp"
#include "des/simulator.hpp"

namespace arch21::cloud {

// Simulation time unit: milliseconds (as in the cluster engine).

namespace {

[[noreturn]] void bad(const char* strct, const char* field) {
  throw std::invalid_argument(std::string(strct) + "::" + field);
}

// Dedicated Rng sub-stream salts (the breaker bank and the cluster's
// 0xFA17 work the same way): each stochastic component draws from its
// own stream so enabling one never perturbs the draws of another.
constexpr std::uint64_t kTrafficStream = 0x7F1C;
constexpr std::uint64_t kWanTraceStream = 0xAB1E;
constexpr std::uint64_t kWanJitterStream = 0x1A7E;
constexpr std::uint64_t kServiceStreamBase = 0x5E00;  // + region index

}  // namespace

const char* to_string(RoutePolicy p) noexcept {
  switch (p) {
    case RoutePolicy::kLatencyWeighted:
      return "latency-weighted";
    case RoutePolicy::kCapacityAware:
      return "capacity-aware";
    case RoutePolicy::kStickySpillover:
      return "sticky-spillover";
  }
  return "?";
}

double RegionConfig::qos_inflation() const noexcept {
  // The cloud/qos.hpp colocation model's interference coefficients:
  // service inflates linearly with colocated BE pressure, sharply when
  // the LLC/bandwidth are shared, mildly under hardware partitioning.
  const QosConfig q;
  const double coeff =
      qos_partitioned ? q.interference_partitioned : q.interference_shared;
  return 1.0 + be_utilization * coeff;
}

double RegionConfig::mean_service_ms() const noexcept {
  // Lognormal body mean = median * exp(sigma^2 / 2); Pareto straggler
  // mean = scale * alpha / (alpha - 1) (alpha > 1 by validate()).
  const double body =
      service_median_ms * std::exp(0.5 * service_sigma * service_sigma);
  const double straggler =
      straggler_scale_ms * straggler_alpha / (straggler_alpha - 1.0);
  return ((1.0 - p_straggler) * body + p_straggler * straggler) *
         qos_inflation();
}

double RegionConfig::predicted_sojourn_ms(double rate_qps) const {
  const MmkResult m = mmk(rate_qps, 1000.0 / mean_service_ms(), servers);
  if (!m.stable) return std::numeric_limits<double>::infinity();
  return m.mean_sojourn * 1000.0;
}

void RegionConfig::validate() const {
  if (servers == 0) bad("RegionConfig", "servers must be > 0");
  if (!(service_median_ms > 0)) {
    bad("RegionConfig", "service_median_ms must be > 0");
  }
  if (!(service_sigma > 0)) bad("RegionConfig", "service_sigma must be > 0");
  if (!(p_straggler >= 0) || !(p_straggler <= 1)) {
    bad("RegionConfig", "p_straggler must be in [0, 1]");
  }
  if (!(straggler_scale_ms > 0)) {
    bad("RegionConfig", "straggler_scale_ms must be > 0");
  }
  if (!(straggler_alpha > 1)) {
    // alpha <= 1 makes the straggler mean (and capacity_qps) undefined.
    bad("RegionConfig", "straggler_alpha must be > 1");
  }
  if (!(be_utilization >= 0) || !(be_utilization <= 1)) {
    bad("RegionConfig", "be_utilization must be in [0, 1]");
  }
  queue.validate();
}

void FailoverPolicy::validate() const {
  if (!(health_interval_s > 0)) {
    bad("FailoverPolicy", "health_interval_s must be > 0");
  }
  if (!(probe_timeout_ms > 0)) {
    bad("FailoverPolicy", "probe_timeout_ms must be > 0");
  }
  if (unhealthy_after == 0) {
    bad("FailoverPolicy", "unhealthy_after must be >= 1");
  }
  if (healthy_after == 0) bad("FailoverPolicy", "healthy_after must be >= 1");
  if (!(admission_cap_frac >= 0)) {
    bad("FailoverPolicy", "admission_cap_frac must be >= 0");
  }
  if (admission_cap_frac > 0 && !(admission_burst > 0)) {
    bad("FailoverPolicy", "admission_burst must be > 0 when caps are on");
  }
  if (!(timeout_ms > 0)) bad("FailoverPolicy", "timeout_ms must be > 0");
  if (budget_enabled) {
    if (!(budget_ratio > 0)) {
      bad("FailoverPolicy", "budget_ratio must be > 0");
    }
    if (!(budget_burst > 0)) {
      bad("FailoverPolicy", "budget_burst must be > 0");
    }
  }
  breaker.validate();
}

double MultiRegionConfig::total_capacity_qps() const noexcept {
  double sum = 0;
  for (const RegionConfig& r : regions) sum += r.capacity_qps();
  return sum;
}

void MultiRegionConfig::validate() const {
  if (regions.size() < 2) bad("MultiRegionConfig", "regions must hold >= 2");
  if (regions.size() > 32) {
    // The retry ladder tracks tried regions in a 32-bit mask.
    bad("MultiRegionConfig", "regions must hold <= 32");
  }
  for (const RegionConfig& r : regions) r.validate();
  if (wan.regions != regions.size()) {
    bad("MultiRegionConfig", "wan.regions must equal regions.size()");
  }
  wan.validate();
  traffic.validate();
  failover.validate();
  if (!(duration_s > 0)) bad("MultiRegionConfig", "duration_s must be > 0");
  if (!(goodput_window_s >= 0)) {
    bad("MultiRegionConfig", "goodput_window_s must be >= 0");
  }
  if (blackout_region != kNoBlackout) {
    if (blackout_region >= regions.size()) {
      bad("MultiRegionConfig", "blackout_region must index regions");
    }
    if (!(blackout_start_s >= 0)) {
      bad("MultiRegionConfig", "blackout_start_s must be >= 0");
    }
    if (!(blackout_duration_s >= 0)) {
      bad("MultiRegionConfig", "blackout_duration_s must be >= 0");
    }
  }
  if (grayout_region != kNoBlackout) {
    if (grayout_region >= regions.size()) {
      bad("MultiRegionConfig", "grayout_region must index regions");
    }
    if (!(grayout_start_s >= 0)) {
      bad("MultiRegionConfig", "grayout_start_s must be >= 0");
    }
    if (!(grayout_duration_s >= 0)) {
      bad("MultiRegionConfig", "grayout_duration_s must be >= 0");
    }
    if (!(std::isfinite(grayout_slow_factor) && grayout_slow_factor > 1)) {
      bad("MultiRegionConfig", "grayout_slow_factor must be finite and > 1");
    }
  }
  if (blackout_enabled() && grayout_enabled()) {
    bad("MultiRegionConfig",
        "blackout and grayout are mutually exclusive (the hysteresis "
        "windows measure around a single disruption)");
  }
}

void MultiRegionResult::merge(const MultiRegionResult& other) {
  if (regions.size() != other.regions.size() ||
      classes.size() != other.classes.size()) {
    throw std::invalid_argument(
        "MultiRegionResult::merge: region/class shape mismatch");
  }
  // Summing per-window counts recorded on different grids would silently
  // corrupt the hysteresis measurement, so mismatched window sizes are a
  // hard error (a windowless result adopts the other's grid).
  if (goodput_window_s > 0 && other.goodput_window_s > 0 &&
      goodput_window_s != other.goodput_window_s) {
    throw std::invalid_argument(
        "MultiRegionResult::merge: goodput_window_s mismatch");
  }
  if (goodput_window_s == 0) goodput_window_s = other.goodput_window_s;

  const double w_self = static_cast<double>(trials);
  const double w_other = static_cast<double>(other.trials);
  const double w = w_self + w_other;
  auto avg = [&](double a, double b) { return (a * w_self + b * w_other) / w; };

  requests += other.requests;
  answered += other.answered;
  failed += other.failed;
  shed += other.shed;
  attempts += other.attempts;
  retries += other.retries;
  timeouts += other.timeouts;
  budget_denials += other.budget_denials;
  lost_requests += other.lost_requests;
  breaker_open_transitions += other.breaker_open_transitions;
  breaker_short_circuits += other.breaker_short_circuits;
  link_failures += other.link_failures;
  request_ms.merge(other.request_ms);
  service_ms.merge(other.service_ms);
  goodput_qps = avg(goodput_qps, other.goodput_qps);
  attempt_amplification =
      avg(attempt_amplification, other.attempt_amplification);

  for (std::size_t r = 0; r < regions.size(); ++r) {
    RegionStats& a = regions[r];
    const RegionStats& b = other.regions[r];
    a.routed += b.routed;
    a.capped += b.capped;
    a.rejected += b.rejected;
    a.expired += b.expired;
    a.completed += b.completed;
    a.lost += b.lost;
    a.probes += b.probes;
    a.probe_failures += b.probe_failures;
    a.evictions += b.evictions;
    a.readmissions += b.readmissions;
    a.busy_ms += b.busy_ms;
    a.utilization = avg(a.utilization, b.utilization);
  }
  for (std::size_t c = 0; c < classes.size(); ++c) {
    classes[c].answered += other.classes[c].answered;
    classes[c].slo_met += other.classes[c].slo_met;
  }

  auto sum_windows = [](std::vector<std::uint64_t>& a,
                        const std::vector<std::uint64_t>& b) {
    if (a.size() < b.size()) a.resize(b.size(), 0);
    for (std::size_t i = 0; i < b.size(); ++i) a[i] += b[i];
  };
  sum_windows(answered_per_window, other.answered_per_window);
  if (region_answered_per_window.size() <
      other.region_answered_per_window.size()) {
    region_answered_per_window.resize(other.region_answered_per_window.size());
  }
  for (std::size_t r = 0; r < other.region_answered_per_window.size(); ++r) {
    sum_windows(region_answered_per_window[r],
                other.region_answered_per_window[r]);
  }

  trials += other.trials;
  frac_over_service_p99 = request_ms.fraction_above(service_ms.quantile(0.99));
}

namespace {

// One multi-region trial: a serial DES over pre-generated open-loop
// traffic, streamed into the kernel one arrival at a time under
// reserved sequence numbers.  Per-request state lives in a
// generation-checked slab (epochs advance on every retry AND on slot
// reuse, so in-flight WAN / completion events for an abandoned attempt
// always miss), and every event closure captures at most (this, handle,
// epoch, region) -- inside both Simulator::Action's and
// Resource::DoneFn's inline buffers, so the steady-state request flow
// allocates nothing.
class MultiRegionSim {
 public:
  explicit MultiRegionSim(const MultiRegionConfig& cfg)
      : cfg_(cfg),
        fo_(cfg.failover),
        horizon_ms_(cfg.duration_s * 1000.0),
        wan_(cfg.wan, cfg.duration_s * 1000.0,
             Rng(cfg.seed, kWanTraceStream).next()),
        wrng_(cfg.seed, kWanJitterStream),
        budget_(fo_.budget_ratio, fo_.budget_burst) {
    const auto nr = static_cast<unsigned>(cfg_.regions.size());
    stations_.reserve(nr);
    dists_.reserve(nr);
    srng_.reserve(nr);
    caps_.reserve(nr);
    for (unsigned r = 0; r < nr; ++r) {
      const RegionConfig& rc = cfg_.regions[r];
      stations_.push_back(
          std::make_unique<des::Resource>(sim_, rc.servers, rc.queue));
      dists_.push_back(make_leaf_distribution(
          rc.service_median_ms, rc.service_sigma, rc.p_straggler,
          rc.straggler_scale_ms, rc.straggler_alpha));
      srng_.emplace_back(cfg_.seed, kServiceStreamBase + r);
      qos_mult_.push_back(rc.qos_inflation());
      caps_.emplace_back(fo_.admission_cap_frac * rc.capacity_qps(),
                         fo_.admission_burst);
      mean_service_ms_.push_back(rc.mean_service_ms());
    }
    down_.assign(nr, 0);
    healthy_.assign(nr, 1);
    consec_fail_.assign(nr, 0);
    consec_ok_.assign(nr, 0);
    breakers_.init(fo_.breaker, nr, cfg_.seed);

    // Static preference orders: region indices by base origin->region
    // latency (ties by index).  Sticky routing pins the home region
    // (origin zone i is near region i) in front of the same order.
    pref_.resize(nr);
    sticky_pref_.resize(nr);
    for (unsigned o = 0; o < nr; ++o) {
      std::vector<unsigned>& p = pref_[o];
      p.resize(nr);
      for (unsigned r = 0; r < nr; ++r) p[r] = r;
      std::sort(p.begin(), p.end(), [&](unsigned a, unsigned b) {
        const double la = cfg_.wan.base_latency(o, a);
        const double lb = cfg_.wan.base_latency(o, b);
        if (la != lb) return la < lb;
        return a < b;
      });
      std::vector<unsigned>& s = sticky_pref_[o];
      s.reserve(nr);
      s.push_back(o);
      for (unsigned r : p) {
        if (r != o) s.push_back(r);
      }
    }

    res_.regions.assign(nr, RegionStats{});
    res_.classes.assign(cfg_.traffic.classes.size(), ClassStats{});
    res_.region_answered_per_window.assign(nr, {});
    res_.goodput_window_s = cfg_.goodput_window_s;
    window_ms_ = cfg_.goodput_window_s * 1000.0;
  }

  MultiRegionResult run() {
    traffic_ = generate_traffic(cfg_.traffic, cfg_.duration_s,
                                static_cast<unsigned>(down_.size()),
                                Rng(cfg_.seed, kTrafficStream).next());
    res_.requests = traffic_.size();
    recs_.reserve(1024);
    free_.reserve(1024);
    sim_.reserve(1024);  // streamed arrivals keep the queue small

    wan_.install(sim_);
    res_.link_failures = wan_.link_failures();

    if (cfg_.blackout_enabled()) {
      const unsigned br = cfg_.blackout_region;
      sim_.schedule_at(cfg_.blackout_start_s * 1000.0, [this, br] {
        down_[br] = 1;
        // Everything queued or in service in the region dies with it;
        // client timeouts recover the survivors' copies.
        const std::size_t n = stations_[br]->fail_all();
        res_.regions[br].lost += n;
        res_.lost_requests += n;
      });
      sim_.schedule_at(
          (cfg_.blackout_start_s + cfg_.blackout_duration_s) * 1000.0,
          [this, br] { down_[br] = 0; });
    }

    if (cfg_.grayout_enabled()) {
      const unsigned gr = cfg_.grayout_region;
      // Fail-slow, not fail-stop: the station keeps accepting work and
      // answering -- just grayout_slow_factor x later.  Nothing is lost
      // and no RNG stream is touched, so a disabled grayout leaves the
      // run byte-identical; only the probe's sojourn estimate (which
      // reads the station speed) can notice the degradation.
      sim_.schedule_at(cfg_.grayout_start_s * 1000.0, [this, gr] {
        stations_[gr]->set_speed(1.0 / cfg_.grayout_slow_factor);
      });
      sim_.schedule_at(
          (cfg_.grayout_start_s + cfg_.grayout_duration_s) * 1000.0,
          [this, gr] { stations_[gr]->set_speed(1.0); });
    }

    const double interval_ms = fo_.health_interval_s * 1000.0;
    for (unsigned r = 0; r < down_.size(); ++r) {
      schedule_probe(r, interval_ms);
    }

    // Arrivals stream in one at a time (schedule_arrival) under seqs
    // reserved here, where scheduling them all up front would have
    // numbered them: same keys, same order, one arrival pending.
    arrival_seq0_ = sim_.reserve_seqs(traffic_.size());
    if (!traffic_.empty()) schedule_arrival(0);

    // Probes and WAN events end at the horizon; requests resolve via
    // timeouts, so the queue drains on its own.
    sim_.run();
    auto& m = obs::MetricsRegistry::global();
    if (m.enabled()) publish_kernel_metrics(m, sim_);

    for (std::size_t r = 0; r < stations_.size(); ++r) {
      RegionStats& s = res_.regions[r];
      s.expired = stations_[r]->expired();
      s.busy_ms = stations_[r]->busy_time();
      s.utilization =
          s.busy_ms /
          (horizon_ms_ * static_cast<double>(cfg_.regions[r].servers));
    }
    res_.breaker_open_transitions = breakers_.opens();
    res_.goodput_qps = static_cast<double>(res_.answered) / cfg_.duration_s;
    res_.attempt_amplification =
        res_.requests > 0 ? static_cast<double>(res_.attempts) /
                                static_cast<double>(res_.requests)
                          : 0.0;
    res_.frac_over_service_p99 =
        res_.request_ms.fraction_above(res_.service_ms.quantile(0.99));
    return std::move(res_);
  }

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct ReqRec {
    double t_arrival = 0;
    // Attempt parity: bumped on every retry and on slot reuse, so a
    // deliver/serve/reply/NACK event from an abandoned attempt (or a
    // previous occupant of the slot) compares stale and does nothing.
    std::uint64_t epoch = 0;
    std::uint32_t cls = 0;
    std::uint32_t origin = 0;
    std::uint32_t tried = 0;   // bitmask of regions attempted
    std::uint32_t region = 0;  // current attempt's target
    std::uint32_t attempts = 0;
    des::EventHandle timeout;
  };

  std::uint32_t alloc_rec() {
    if (!free_.empty()) {
      const std::uint32_t h = free_.back();
      free_.pop_back();
      return h;
    }
    recs_.emplace_back();
    return static_cast<std::uint32_t>(recs_.size() - 1);
  }

  void free_rec(std::uint32_t h) {
    ReqRec& rec = recs_[h];
    sim_.cancel(rec.timeout);
    rec.timeout = {};
    ++rec.epoch;  // epochs never reset, so stale events can never match
    free_.push_back(h);
  }

  /// Arrival i under its reserved seq.  Its action first schedules
  /// arrival i+1 -- the traffic is sorted, so that key is strictly after
  /// the firing one -- then starts request i.
  void schedule_arrival(std::size_t i) {
    sim_.schedule_reserved(traffic_[i].t_ms, arrival_seq0_ + i, [this, i] {
      if (i + 1 < traffic_.size()) schedule_arrival(i + 1);
      start_request(traffic_[i]);
    });
  }

  // --- failover machinery ------------------------------------------

  void schedule_probe(unsigned r, double t_ms) {
    if (t_ms > horizon_ms_) return;
    sim_.schedule_at(t_ms, [this, r, t_ms] {
      probe(r);
      schedule_probe(r, t_ms + fo_.health_interval_s * 1000.0);
    });
  }

  /// One health check against region r from the balancer's vantage
  /// (region 0): fails when the region is dark, its link is down, or its
  /// estimated queue sojourn blows the probe budget -- an overloaded
  /// region is an unhealthy region, which is what lets eviction act on
  /// overload, not just on blackouts.
  void probe(unsigned r) {
    RegionStats& s = res_.regions[r];
    ++s.probes;
    // The probe estimates sojourn from the *delivered* service rate:
    // a grayed-out station at speed 1/k serves k x slower, so the same
    // queue depth means k x the wait.  Dividing by speed() is what lets
    // the health check see a fail-SLOW region (speed 1.0 divides
    // exactly, so pre-grayout runs are bit-identical).
    const double est_sojourn =
        mean_service_ms_[r] / stations_[r]->speed() *
        (1.0 + static_cast<double>(stations_[r]->queue_length()) /
                   static_cast<double>(cfg_.regions[r].servers));
    const bool ok =
        !down_[r] && wan_.link_up(0, r) && est_sojourn <= fo_.probe_timeout_ms;
    if (ok) {
      consec_fail_[r] = 0;
      if (!healthy_[r] && ++consec_ok_[r] >= fo_.healthy_after) {
        healthy_[r] = 1;
        ++s.readmissions;
      }
    } else {
      ++s.probe_failures;
      consec_ok_[r] = 0;
      if (healthy_[r] && ++consec_fail_[r] >= fo_.unhealthy_after) {
        healthy_[r] = 0;
        ++s.evictions;
      }
    }
  }

  bool caps_on() const noexcept { return fo_.admission_cap_frac > 0; }

  // --- routing ------------------------------------------------------

  /// Candidate preference order for one request.  Latency/sticky use the
  /// precomputed static orders; capacity-aware sorts by instantaneous
  /// in-flight-per-server (ties by origin latency, then index) -- a
  /// pure function of simulation state, so determinism holds.
  const std::vector<unsigned>& candidate_order(const ReqRec& rec) {
    switch (cfg_.route) {
      case RoutePolicy::kLatencyWeighted:
        return pref_[rec.origin];
      case RoutePolicy::kStickySpillover:
        return sticky_pref_[rec.origin];
      case RoutePolicy::kCapacityAware:
        break;
    }
    scratch_order_ = pref_[rec.origin];
    const unsigned o = rec.origin;
    std::sort(scratch_order_.begin(), scratch_order_.end(),
              [&](unsigned a, unsigned b) {
                const double la = load_of(a);
                const double lb = load_of(b);
                if (la != lb) return la < lb;
                const double wa = cfg_.wan.base_latency(o, a);
                const double wb = cfg_.wan.base_latency(o, b);
                if (wa != wb) return wa < wb;
                return a < b;
              });
    return scratch_order_;
  }

  double load_of(unsigned r) const {
    return (static_cast<double>(stations_[r]->busy()) +
            static_cast<double>(stations_[r]->queue_length())) /
           static_cast<double>(cfg_.regions[r].servers);
  }

  /// Pick the region for one attempt: the first untried healthy
  /// candidate with admission tokens whose breaker admits traffic.  When
  /// nothing qualifies: with caps on the request is shed (return kNone);
  /// with caps off the balancer FAILS OPEN -- it routes to the first
  /// untried candidate ignoring health and breakers.  Fail-open is what
  /// an uncapped balancer really does (it has nowhere to shed to), and
  /// it is the behaviour that lets the rung-1 cascade happen at all.
  std::uint32_t pick_region(const ReqRec& rec) {
    const std::vector<unsigned>& order = candidate_order(rec);
    for (unsigned r : order) {
      if (rec.tried & (1u << r)) continue;
      if (!healthy_[r]) continue;
      if (caps_on() && !caps_[r].take(sim_.now())) {
        ++res_.regions[r].capped;
        continue;
      }
      if (breakers_.enabled() && !breakers_.allows(r, sim_.now())) {
        ++res_.breaker_short_circuits;
        continue;
      }
      return r;
    }
    if (!caps_on()) {
      for (unsigned r : order) {
        if (!(rec.tried & (1u << r))) return r;
      }
    }
    return kNone;
  }

  // --- request flow -------------------------------------------------

  void start_request(const TrafficRequest& rq) {
    const std::uint32_t h = alloc_rec();
    ReqRec& rec = recs_[h];
    rec.t_arrival = sim_.now();
    rec.cls = rq.cls;
    rec.origin = rq.origin;
    rec.tried = 0;
    rec.attempts = 0;
    // First attempts fund the retry budget.
    if (fo_.budget_enabled) budget_.credit();
    route_and_send(h);
  }

  void route_and_send(std::uint32_t h) {
    ReqRec& rec = recs_[h];
    const std::uint32_t r = pick_region(rec);
    if (r == kNone) {
      ++res_.shed;
      free_rec(h);
      return;
    }
    send(h, r);
  }

  void send(std::uint32_t h, std::uint32_t r) {
    ReqRec& rec = recs_[h];
    rec.region = r;
    rec.tried |= 1u << r;
    ++rec.attempts;
    ++res_.attempts;
    if (rec.attempts > 1) ++res_.retries;
    ++res_.regions[r].routed;
    const std::uint64_t epoch = rec.epoch;
    rec.timeout = sim_.schedule_cancellable(
        fo_.timeout_ms, [this, h, epoch] { on_timeout(h, epoch); });
    if (down_[r] || !wan_.link_up(rec.origin, r)) {
      // Lost in transit / at a dark region: only the timeout tells us.
      ++res_.regions[r].lost;
      ++res_.lost_requests;
      return;
    }
    const double hop = wan_.sample_latency_ms(rec.origin, r, wrng_);
    sim_.schedule(hop, [this, h, epoch] { deliver(h, epoch); });
  }

  void deliver(std::uint32_t h, std::uint64_t epoch) {
    ReqRec& rec = recs_[h];
    if (rec.epoch != epoch) return;
    const std::uint32_t r = rec.region;
    if (down_[r]) {  // went dark while the request was in flight
      ++res_.regions[r].lost;
      ++res_.lost_requests;
      return;
    }
    const double svc = dists_[r](srng_[r]) *
                       cfg_.traffic.classes[rec.cls].service_scale *
                       qos_mult_[r];
    res_.service_ms.add(svc);
    const bool ok = stations_[r]->request(
        svc, [this, h, epoch, r](des::Time, des::Time) {
          on_served(h, epoch, r);
        });
    if (!ok) {
      // Bounded queue full: synchronous NACK, heard after the return hop
      // -- much sooner than the timeout, which is the point of bounding.
      ++res_.regions[r].rejected;
      const double back = wan_.sample_latency_ms(r, rec.origin, wrng_);
      sim_.schedule(back, [this, h, epoch] { on_nack(h, epoch); });
    }
  }

  void on_served(std::uint32_t h, std::uint64_t epoch, std::uint32_t r) {
    ++res_.regions[r].completed;
    ReqRec& rec = recs_[h];
    if (rec.epoch != epoch) return;  // client moved on: wasted work
    const double back = wan_.sample_latency_ms(r, rec.origin, wrng_);
    sim_.schedule(back, [this, h, epoch] { on_reply(h, epoch); });
  }

  void on_reply(std::uint32_t h, std::uint64_t epoch) {
    ReqRec& rec = recs_[h];
    if (rec.epoch != epoch) return;
    sim_.cancel(rec.timeout);
    rec.timeout = {};
    const std::uint32_t r = rec.region;
    breakers_.record(r, true, sim_.now());
    const double latency = sim_.now() - rec.t_arrival;
    res_.request_ms.add(latency);
    ++res_.answered;
    ClassStats& cs = res_.classes[rec.cls];
    ++cs.answered;
    if (latency <= cfg_.traffic.classes[rec.cls].slo_ms) ++cs.slo_met;
    note_answered(r);
    free_rec(h);
  }

  void on_nack(std::uint32_t h, std::uint64_t epoch) {
    ReqRec& rec = recs_[h];
    if (rec.epoch != epoch) return;
    sim_.cancel(rec.timeout);
    rec.timeout = {};
    ++rec.epoch;
    breakers_.record(rec.region, false, sim_.now());
    retry(h);
  }

  void on_timeout(std::uint32_t h, std::uint64_t epoch) {
    ReqRec& rec = recs_[h];
    if (rec.epoch != epoch) return;
    rec.timeout = {};
    ++res_.timeouts;
    ++rec.epoch;  // abandon the in-flight attempt
    breakers_.record(rec.region, false, sim_.now());
    retry(h);
  }

  void retry(std::uint32_t h) {
    ReqRec& rec = recs_[h];
    if (rec.attempts > fo_.max_retries) {
      ++res_.failed;
      free_rec(h);
      return;
    }
    if (fo_.budget_enabled && !budget_.take()) {
      ++res_.budget_denials;
      ++res_.failed;
      free_rec(h);
      return;
    }
    // Prefer an untried region; once every region has been tried, the
    // ladder starts over (the blackout may have cleared).
    if (rec.tried == (1u << down_.size()) - 1u) rec.tried = 0;
    route_and_send(h);
  }

  void note_answered(std::uint32_t serving_region) {
    if (window_ms_ <= 0) return;
    const auto idx = static_cast<std::size_t>(sim_.now() / window_ms_);
    if (idx >= res_.answered_per_window.size()) {
      res_.answered_per_window.resize(idx + 1, 0);
    }
    ++res_.answered_per_window[idx];
    std::vector<std::uint64_t>& rw =
        res_.region_answered_per_window[serving_region];
    if (idx >= rw.size()) rw.resize(idx + 1, 0);
    ++rw[idx];
  }

  const MultiRegionConfig& cfg_;
  const FailoverPolicy& fo_;
  const double horizon_ms_;
  des::Simulator sim_;
  Wan wan_;
  Rng wrng_;  // WAN jitter only
  std::vector<std::unique_ptr<des::Resource>> stations_;
  std::vector<LatencyDist> dists_;
  std::vector<Rng> srng_;  // per-region service draws
  std::vector<double> qos_mult_;
  std::vector<TokenBucket> caps_;  // per-region admission caps
  std::vector<double> mean_service_ms_;
  std::vector<char> down_;
  std::vector<char> healthy_;
  std::vector<unsigned> consec_fail_;
  std::vector<unsigned> consec_ok_;
  BreakerBank breakers_;  // per-region breakers (own Rng stream)
  RetryBudgetBucket budget_;
  std::vector<std::vector<unsigned>> pref_;
  std::vector<std::vector<unsigned>> sticky_pref_;
  std::vector<unsigned> scratch_order_;
  std::vector<ReqRec> recs_;
  std::vector<std::uint32_t> free_;
  std::vector<TrafficRequest> traffic_;  // sorted open-loop arrivals
  std::uint64_t arrival_seq0_ = 0;       // seq reserved for traffic_[0]
  double window_ms_ = 0;
  MultiRegionResult res_;
};

}  // namespace

MultiRegionResult simulate_multiregion(const MultiRegionConfig& cfg) {
  cfg.validate();
  MultiRegionSim sim(cfg);
  return sim.run();
}

MultiRegionResult run_multiregion_trials(const MultiRegionConfig& cfg,
                                         unsigned trials, ThreadPool* pool) {
  return run_trials(cfg, trials, pool, simulate_multiregion);
}

std::vector<MultiRegionScenario> failover_scenarios(
    const MultiRegionConfig& base, unsigned trials, ThreadPool* pool) {
  // `base` carries the FULL protection stack (rung 3); lower rungs strip
  // it so every rung shares the same workload, WAN, and blackout draws.
  MultiRegionConfig full = base;
  if (full.failover.admission_cap_frac <= 0) {
    full.failover.admission_cap_frac = 0.9;
  }

  MultiRegionConfig naked = full;
  for (RegionConfig& r : naked.regions) r.queue = {};  // unbounded FIFO
  naked.failover.admission_cap_frac = 0;
  naked.failover.budget_enabled = false;
  naked.failover.breaker.enabled = false;
  naked.failover.healthy_after = 1;

  MultiRegionConfig capped = full;
  capped.failover.budget_enabled = false;
  capped.failover.breaker.enabled = false;
  capped.failover.healthy_after = 1;

  std::vector<MultiRegionScenario> out;
  out.push_back({"no caps (fail-open)", naked,
                 run_multiregion_trials(naked, trials, pool)});
  out.push_back({"admission caps + bounded queues", capped,
                 run_multiregion_trials(capped, trials, pool)});
  out.push_back({"caps + hysteresis + breakers", full,
                 run_multiregion_trials(full, trials, pool)});

  // Rung 4: the same disruption window as a GRAY failure -- the region
  // does not go dark, it goes fail-slow (E34's fault model at region
  // scale).  Breakers cannot see it (a slow region still replies), so
  // containment rides on the probe's speed-aware sojourn estimate
  // feeding the same eviction/re-admission hysteresis as the blackout.
  if (full.blackout_enabled()) {
    MultiRegionConfig gray = full;
    gray.grayout_region = gray.blackout_region;
    gray.grayout_start_s = gray.blackout_start_s;
    gray.grayout_duration_s = gray.blackout_duration_s;
    gray.blackout_region = MultiRegionConfig::kNoBlackout;
    gray.blackout_start_s = 0;
    gray.blackout_duration_s = 0;
    out.push_back({"gray-out (fail-slow region) + full stack", gray,
                   run_multiregion_trials(gray, trials, pool)});
  }
  return out;
}

RegionalHysteresis multiregion_hysteresis(const MultiRegionResult& r,
                                          const MultiRegionConfig& cfg,
                                          bool surviving_only,
                                          double settle_s) {
  RegionalHysteresis h;
  const double w = cfg.goodput_window_s;
  if (w <= 0 || !(cfg.blackout_enabled() || cfg.grayout_enabled())) return h;

  // The measured disruption: blackout or grayout, whichever is enabled
  // (validate() rejects both at once).
  const bool black = cfg.blackout_enabled();
  const unsigned ev_region = black ? cfg.blackout_region : cfg.grayout_region;
  const double ev_start = black ? cfg.blackout_start_s : cfg.grayout_start_s;
  const double ev_duration =
      black ? cfg.blackout_duration_s : cfg.grayout_duration_s;

  auto count = [&](std::size_t i) -> double {
    if (!surviving_only) {
      return i < r.answered_per_window.size()
                 ? static_cast<double>(r.answered_per_window[i])
                 : 0.0;
    }
    double sum = 0;
    for (std::size_t reg = 0; reg < r.region_answered_per_window.size();
         ++reg) {
      if (reg == ev_region) continue;
      const auto& win = r.region_answered_per_window[reg];
      if (i < win.size()) sum += static_cast<double>(win[i]);
    }
    return sum;
  };

  // Complete windows strictly before the disruption; window 0 is warmup.
  h.pre_qps = windowed_mean_qps(1, static_cast<std::size_t>(ev_start / w), w,
                                r.trials, count);
  // Complete windows inside the horizon, after the disruption plus settle.
  const auto post_begin = static_cast<std::size_t>(
      std::ceil((ev_start + ev_duration + settle_s) / w));
  h.post_qps = windowed_mean_qps(
      post_begin, static_cast<std::size_t>(cfg.duration_s / w), w, r.trials,
      count);
  return h;
}

}  // namespace arch21::cloud
