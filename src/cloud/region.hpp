#pragma once
// Multi-region failover simulator (E31): 3-5 geo-distributed serving
// regions behind a global load balancer, connected by the seeded WAN
// model (cloud/wan.hpp) and fed by the open-loop traffic generator
// (cloud/traffic.hpp).
//
// This is ROADMAP item 2 -- the paper's datacenter/tail-at-scale agenda
// at its stated regional scale.  Each region is an M/G/k station
// (des::Resource with `servers` servers) whose per-query service times
// come from cloud/tail.hpp's make_leaf_distribution (lognormal body +
// Pareto stragglers, the production leaf shape) inflated by colocated
// best-effort load through the cloud/qos.hpp interference model, and
// whose queueing knee is predicted by cloud/queueing.hpp's Erlang-C
// closed form.  The previously underexercised qos/queueing/tail modules
// are the per-region physics here.
//
// The global load balancer routes each arriving query by a pluggable
// policy (latency-weighted, capacity-aware, sticky-with-spillover),
// drives health-check eviction of unhealthy regions with hysteresis on
// re-admission, enforces optional per-region admission caps (so failover
// traffic cannot metastabilize a healthy region), and runs per-region
// circuit breakers + a retry budget on the client side.  When every
// candidate region is unhealthy the balancer *fails open* (routes by
// preference anyway) unless caps are on -- capped excess is shed fast.
//
// The headline drill (bench_multiregion): blackout one region
// mid-diurnal-peak and sweep the failover-policy ladder.  Without caps
// the failover wave overloads the survivors, retry amplification keeps
// the queues full of work nobody is waiting for, and goodput stays
// collapsed long after the region returns -- the regional metastable
// cascade.  With caps + hysteresis + breakers the excess is shed at the
// edge and global goodput snaps back.
//
// Determinism: one simulation is a serial DES; every stochastic
// component (traffic, WAN jitter, link faults, service draws, breaker
// jitter) draws from a dedicated Rng sub-stream of the config seed, and
// run_multiregion_trials() aggregates Rng(seed, i)-reseeded trials in
// trial order on the work-stealing pool -- bit-identical for any pool
// size, the contract every bench in this repo gates on.

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/policy.hpp"
#include "cloud/traffic.hpp"
#include "cloud/wan.hpp"
#include "des/resource.hpp"
#include "util/histogram.hpp"
#include "util/thread_pool.hpp"

namespace arch21::cloud {

/// Global load-balancer routing policy.
enum class RoutePolicy : std::uint8_t {
  /// Prefer the region with the lowest WAN latency from the query's
  /// origin zone (ties by region index).
  kLatencyWeighted,
  /// Prefer the region with the most spare serving capacity right now
  /// (lowest in-flight-per-server), ties by origin latency.
  kCapacityAware,
  /// Pin each origin zone to its home region; spill to the latency
  /// order only when the home region is unhealthy, capped, or tried.
  kStickySpillover,
};

const char* to_string(RoutePolicy p) noexcept;

/// One serving region: an M/G/k station whose service-time shape is the
/// cloud/tail.hpp leaf distribution, degraded by colocated best-effort
/// work per the cloud/qos.hpp interference model.
struct RegionConfig {
  std::string name = "region";
  unsigned servers = 8;
  double service_median_ms = 3.0;  ///< lognormal body median
  double service_sigma = 0.4;
  double p_straggler = 0.01;       ///< Pareto straggler fraction
  double straggler_scale_ms = 30.0;
  double straggler_alpha = 1.5;    ///< straggler tail shape, > 1
  /// Colocated best-effort utilization (0 = dedicated machines) and
  /// whether hardware QoS partitioning caps its interference -- the
  /// cloud/qos.hpp model applied per region.
  double be_utilization = 0.0;
  bool qos_partitioned = true;
  /// Per-region server queue (shared by the `servers` servers).
  /// Defaults to the unbounded FIFO station.
  des::QueuePolicy queue;

  /// QoS service-time inflation factor (>= 1) from be_utilization.
  double qos_inflation() const noexcept;
  /// Mean per-query service time: lognormal-body mean + straggler mean,
  /// times the QoS inflation.
  double mean_service_ms() const noexcept;
  /// Steady-state serving capacity, queries/s (servers / mean service).
  double capacity_qps() const noexcept {
    return static_cast<double>(servers) * 1000.0 / mean_service_ms();
  }
  /// Erlang-C predicted mean sojourn at `rate_qps` (cloud/queueing.hpp);
  /// +inf when the rate exceeds capacity.
  double predicted_sojourn_ms(double rate_qps) const;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Global-balancer failover behaviour: health checks, eviction
/// hysteresis, per-region admission caps, client retries + budget, and
/// per-region circuit breakers.
struct FailoverPolicy {
  // --- health checking ---
  double health_interval_s = 0.25;  ///< probe period per region
  /// A probe fails when the region is down, its link from the balancer's
  /// vantage (region 0) is down, or the region's estimated queue sojourn
  /// exceeds this budget -- an overloaded region is an unhealthy region.
  double probe_timeout_ms = 60;
  unsigned unhealthy_after = 2;  ///< consecutive failures -> evict
  /// Consecutive successes before an evicted region is re-admitted.
  /// 1 = immediate re-admission; > 1 is the hysteresis that stops a
  /// recovering region from being slammed and re-evicted in a flap loop.
  unsigned healthy_after = 1;

  // --- per-region admission caps (0 = uncapped) ---
  /// Token-bucket rate per region = admission_cap_frac * capacity_qps().
  /// A capped region NACKs at the balancer (no WAN round trip) and the
  /// query spills to the next candidate; if every region refuses, the
  /// query is shed.  This is the cap that keeps failover traffic from
  /// metastabilizing the surviving regions.
  double admission_cap_frac = 0;
  double admission_burst = 32;  ///< token-bucket depth

  // --- client behaviour at the balancer ---
  double timeout_ms = 120;    ///< per-attempt timeout
  unsigned max_retries = 2;   ///< re-routes after the first attempt
  /// Retry budget (token bucket, cloud/policy.hpp semantics): first
  /// attempts credit `budget_ratio` tokens, retries debit one.
  bool budget_enabled = false;
  double budget_ratio = 0.1;
  double budget_burst = 50;
  /// Per-region circuit breaker (reuses CircuitBreakerPolicy; failures
  /// are observed timeouts/NACKs against that region).
  CircuitBreakerPolicy breaker;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// The full multi-region scenario.
struct MultiRegionConfig {
  static constexpr unsigned kNoBlackout = 0xffffffffu;

  std::vector<RegionConfig> regions;  ///< 2..32 regions
  WanConfig wan;                      ///< wan.regions must match
  TrafficConfig traffic;              ///< origin zone i is near region i
  RoutePolicy route = RoutePolicy::kLatencyWeighted;
  FailoverPolicy failover;
  double duration_s = 60;
  /// Windowed goodput series (0 records nothing), as in ClusterConfig.
  double goodput_window_s = 1.0;
  std::uint64_t seed = 2014;

  /// Deterministic regional blackout (the E31 trigger): region
  /// `blackout_region` goes dark at blackout_start_s for
  /// blackout_duration_s -- its station crashes (fail_all) and every
  /// request sent there is lost until it recovers.
  unsigned blackout_region = kNoBlackout;
  double blackout_start_s = 0;
  double blackout_duration_s = 0;

  /// Deterministic regional GRAY-out -- the fail-slow twin of the
  /// blackout (E34's fault model at region scale): region
  /// `grayout_region` serves `grayout_slow_factor`x slower from
  /// grayout_start_s for grayout_duration_s.  Nothing crashes and no
  /// request is lost; the station keeps accepting work and answering
  /// late, so the only thing that can see it is the health probe's
  /// queue-sojourn estimate.  Mutually exclusive with the blackout
  /// (the hysteresis windows need a single disruption to measure
  /// around); draws no randomness, so a disabled grayout is
  /// byte-identical.
  unsigned grayout_region = kNoBlackout;
  double grayout_start_s = 0;
  double grayout_duration_s = 0;
  double grayout_slow_factor = 4.0;

  bool blackout_enabled() const noexcept {
    return blackout_region != kNoBlackout && blackout_duration_s > 0;
  }
  bool grayout_enabled() const noexcept {
    return grayout_region != kNoBlackout && grayout_duration_s > 0;
  }
  /// Total steady-state capacity across regions, queries/s.
  double total_capacity_qps() const noexcept;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

/// Per-region telemetry (raw counters; merge() sums).
struct RegionStats {
  std::uint64_t routed = 0;     ///< attempts the balancer aimed here
  std::uint64_t capped = 0;     ///< refused by the admission cap
  std::uint64_t rejected = 0;   ///< bounced off a full bounded queue
  std::uint64_t expired = 0;    ///< deadline-dropped at dequeue
  std::uint64_t completed = 0;  ///< served to completion
  std::uint64_t lost = 0;       ///< sent into a blackout / dead link
  std::uint64_t probes = 0;
  std::uint64_t probe_failures = 0;
  std::uint64_t evictions = 0;
  std::uint64_t readmissions = 0;
  double busy_ms = 0;          ///< server-ms of rendered service
  double utilization = 0;      ///< busy / (horizon x servers), per-trial avg

  bool operator==(const RegionStats&) const = default;
};

/// Per-traffic-class telemetry.
struct ClassStats {
  std::uint64_t answered = 0;
  std::uint64_t slo_met = 0;  ///< answered within the class SLO

  bool operator==(const ClassStats&) const = default;
};

/// Simulation output.  Counters are raw so multi-trial aggregates can
/// merge(); ratio fields are averaged per-trial.
struct MultiRegionResult {
  std::uint64_t requests = 0;  ///< offered by the traffic generator
  std::uint64_t answered = 0;
  std::uint64_t failed = 0;    ///< timed out past the retry ladder
  std::uint64_t shed = 0;      ///< fast-failed at the balancer (all capped)
  std::uint64_t attempts = 0;  ///< sends, including retries
  std::uint64_t retries = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t budget_denials = 0;
  std::uint64_t lost_requests = 0;  ///< vanished into blackouts/dead links
  std::uint64_t breaker_open_transitions = 0;
  std::uint64_t breaker_short_circuits = 0;
  std::uint64_t link_failures = 0;  ///< WAN link failure events in the trace
  LogHistogram request_ms{1e-2, 1e6, 90};  ///< end-to-end answered latency
  LogHistogram service_ms{1e-3, 1e6, 90};  ///< per-attempt service draws
  /// Fraction of answered requests at least as slow as the service p99
  /// (compare tail_amplification()'s closed form).
  double frac_over_service_p99 = 0;
  double goodput_qps = 0;  ///< answered per second, per-trial average
  /// attempts / requests: 1.0 = no extra WAN load; the storm metric.
  double attempt_amplification = 0;

  std::vector<RegionStats> regions;
  std::vector<ClassStats> classes;

  /// Window size the series below were recorded on (0 = none recorded).
  /// merge() throws std::invalid_argument when two results disagree --
  /// summing misaligned windows would silently corrupt the hysteresis
  /// measurement.
  double goodput_window_s = 0;
  /// Answered requests per window, global and by *serving* region.
  std::vector<std::uint64_t> answered_per_window;
  std::vector<std::vector<std::uint64_t>> region_answered_per_window;

  unsigned trials = 1;

  /// Fold `other` in: counters add, histograms merge, windows sum
  /// element-wise (after the window/shape checks), per-trial ratios
  /// average weighted by trial counts.
  void merge(const MultiRegionResult& other);

  /// Every field, bit for bit: the pool-size determinism contract.
  bool operator==(const MultiRegionResult&) const = default;
};

/// Run one seeded multi-region simulation.
MultiRegionResult simulate_multiregion(const MultiRegionConfig& cfg);

/// Aggregate `trials` independent simulations (trial i reseeded with
/// Rng(cfg.seed, i).next()) on `pool` (ThreadPool::global() when null),
/// merged in trial order: bit-identical for any pool size.
MultiRegionResult run_multiregion_trials(const MultiRegionConfig& cfg,
                                         unsigned trials,
                                         ThreadPool* pool = nullptr);

/// One named rung of the failover-policy ladder.
struct MultiRegionScenario {
  std::string name;
  MultiRegionConfig config;
  MultiRegionResult result;
};

/// The E31 ladder, every rung on the same seeded workload + blackout:
///   1. no caps        -- fail-open balancer, naive retries, unbounded
///                        FIFO regions (the cascade rung)
///   2. admission caps  -- per-region token caps + bounded deadline queues
///   3. caps + hysteresis + breakers -- re-admission hysteresis, retry
///                        budget, per-region circuit breakers (full)
///   4. gray-out       -- the full stack again, but the disrupted region
///                        goes fail-SLOW instead of dark (same region,
///                        start, and duration as the blackout, served at
///                        grayout_slow_factor x slower).  Appended only
///                        when `base` blacks out a region.  What contains
///                        it is the probe's sojourn estimate tripping the
///                        same eviction/re-admission hysteresis the
///                        blackout exercises.
std::vector<MultiRegionScenario> failover_scenarios(
    const MultiRegionConfig& base, unsigned trials, ThreadPool* pool = nullptr);

/// Windowed-goodput hysteresis around the regional disruption (blackout
/// or grayout, whichever the config enables), as cloud::goodput_hysteresis
/// does for E29: mean goodput over complete windows strictly before the
/// disruption (window 0 is warmup) vs complete windows after it cleared
/// plus `settle_s`.  With `surviving_only` the per-serving-region series
/// excludes the disrupted region on both sides -- the "did the failover
/// wave wreck the healthy regions" measurement.  Returns zeros unless the
/// config records windows and disrupts a region.
struct RegionalHysteresis {
  double pre_qps = 0;
  double post_qps = 0;
  double recovery_ratio() const noexcept {
    return pre_qps > 0 ? post_qps / pre_qps : 0;
  }
};

RegionalHysteresis multiregion_hysteresis(const MultiRegionResult& r,
                                          const MultiRegionConfig& cfg,
                                          bool surviving_only,
                                          double settle_s = 2.0);

}  // namespace arch21::cloud
