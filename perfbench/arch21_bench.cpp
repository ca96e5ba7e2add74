// arch21 scenario benchmark: host cost of three serving drills, measured
// end to end and attributed per layer from outside the library.
//
//   arch21_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--trace-out <file>]
//
// One process runs one workload, one simulation at a time (a closed loop
// with one client on the host; inside the model traffic stays open-loop
// at fixed simulated rates).  A run is several seeded simulations of the
// workload's fixed horizon.  Every simulation's output is checked against
// the conservation identities the public results satisfy and folded into
// a sim_digest; every run of the same seed must reproduce the first
// run's digest.
//
// --trace 0 measures the end-to-end metrics.  It prints the median host
// wall time of one run (wall_s) and simulated server requests per host
// second, and reports in the JSON line the same two normalized by a host
// reference timed after every run (wall_vs_ref, sim_requests_per_ref),
// peak RSS and set-up time.  --trace 1 is the separate traced run: it
// enables obs::MetricsRegistry around alternate runs, times the layer
// probes (a des::Simulator replay, the PDES drill at 1 and at 4 workers,
// the LoopbackEngine reproducer), records the benchmark's own spans and
// writes them at exit, and reports the per-layer metrics.  Layers are
// only ever timed from their public entry points; nothing inside the
// library is instrumented by this file.  NOTES.md has the details.
//
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// where attempted/failed count checked runs and the runs failing a check
// (check_fail_frac = failed / attempted).

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/region.hpp"
#include "cloud/resilience.hpp"
#include "des/simulator.hpp"
#include "des/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace arch21;
using Clock = std::chrono::steady_clock;

// Initialized during static initialization, i.e. just before main().
const Clock::time_point kProcessStart = Clock::now();

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in [0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

// ------------------------------------------------------------ spans

/// The benchmark's own spans, host time in microseconds since process
/// start, nested on one track (a span's parent is the span enclosing
/// it).  Kept in memory in an obs::TraceBuffer and written at exit.
class Spans {
 public:
  class Scope {
   public:
    /// Records `name` when tracing is on (`s` non-null).
    Scope(Spans* s, const char* name)
        : s_(s), name_(s ? s->buf_.intern(name) : 0), t0_(now_us()) {}
    ~Scope() {
      if (s_) s_->buf_.complete(name_, t0_, now_us() - t0_, 0);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans* s_;
    std::uint32_t name_;
    double t0_;
  };

  Spans() { buf_.name_thread(0, "arch21_bench"); }

  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    buf_.write_chrome_json(os);
    return static_cast<bool>(os);
  }
  std::size_t size() const noexcept { return buf_.size(); }

 private:
  static double now_us() {
    return 1e6 * seconds_between(kProcessStart, Clock::now());
  }
  obs::TraceBuffer buf_{std::size_t{1} << 14, 1.0};
};

// ------------------------------------------------------------ digest

/// FNV-1a over the deterministic aggregate; doubles by bit pattern, so
/// two digests agree only when every field is bit-identical.
class Digest {
 public:
  Digest& u(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
    return *this;
  }
  Digest& d(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return u(bits);
  }
  Digest& hist(const LogHistogram& h) {
    u(h.count()).u(h.invalid()).d(h.mean()).d(h.min_seen()).d(h.max_seen());
    for (double q : {0.5, 0.9, 0.99, 0.999}) d(h.quantile(q));
    return *this;
  }
  template <typename T>
  Digest& seq(const std::vector<T>& v) {
    u(v.size());
    for (const T& x : v) {
      if constexpr (std::is_floating_point_v<T>) {
        d(x);
      } else {
        u(x);
      }
    }
    return *this;
  }
  std::uint64_t value() const noexcept { return h_; }

 private:
  void byte(unsigned char c) {
    h_ ^= c;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

std::uint64_t cluster_digest(const cloud::ClusterResult& r) {
  Digest g;
  g.u(r.queries).u(r.ok_queries).u(r.degraded_queries).u(r.failed_queries);
  g.hist(r.query_ms).hist(r.leaf_ms);
  g.d(r.mean_leaf_utilization).d(r.hedge_fraction);
  g.u(r.leaf_requests).u(r.retries).u(r.hedges).u(r.timeouts);
  g.u(r.lost_requests).u(r.budget_denials).u(r.leaf_failures);
  g.u(r.domain_failures).u(r.shed_queries).u(r.rejected_requests);
  g.u(r.expired_drops).u(r.breaker_open_transitions);
  g.u(r.breaker_short_circuits).u(r.breaker_probes).d(r.breaker_open_ms);
  g.seq(r.answered_per_window).d(r.goodput_window_s);
  g.u(r.gray_episodes).u(r.gray_dropped_replies).u(r.gray_evictions);
  g.u(r.gray_probations).u(r.gray_zombies).u(r.gray_redirected_sends);
  g.d(r.adaptive_deadline_ms);
  g.u(r.power_shed_queries).u(r.power_gate_stalls).u(r.power_overruns);
  g.d(r.energy_j).d(r.peak_window_w).d(r.power_cap_w).d(r.power_window_s);
  g.seq(r.energy_j_per_window);
  g.d(r.retry_amplification).d(r.goodput_qps).d(r.availability_measured);
  g.d(r.availability_predicted).d(r.sum_result_quality);
  g.d(r.frac_over_leaf_p99).u(r.trials);
  return g.value();
}

std::uint64_t region_digest(const cloud::MultiRegionResult& r) {
  Digest g;
  g.u(r.requests).u(r.answered).u(r.failed).u(r.shed).u(r.attempts);
  g.u(r.retries).u(r.timeouts).u(r.budget_denials).u(r.lost_requests);
  g.u(r.breaker_open_transitions).u(r.breaker_short_circuits);
  g.u(r.link_failures).hist(r.request_ms).hist(r.service_ms);
  g.d(r.frac_over_service_p99).d(r.goodput_qps).d(r.attempt_amplification);
  g.u(r.regions.size());
  for (const auto& s : r.regions) {
    g.u(s.routed).u(s.capped).u(s.rejected).u(s.expired).u(s.completed);
    g.u(s.lost).u(s.probes).u(s.probe_failures).u(s.evictions);
    g.u(s.readmissions).d(s.busy_ms).d(s.utilization);
  }
  g.u(r.classes.size());
  for (const auto& c : r.classes) g.u(c.answered).u(c.slo_met);
  g.d(r.goodput_window_s).seq(r.answered_per_window);
  g.u(r.region_answered_per_window.size());
  for (const auto& w : r.region_answered_per_window) g.seq(w);
  g.u(r.trials);
  return g.value();
}

// ------------------------------------------------------------ metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Every per-layer metric, in report order, with its unit and value.
/// Each workload reports all of them; a layer the workload never enters
/// reports 0 (see NOTES.md).
class LayerValues {
 public:
  LayerValues()
      : values_{{"des.events", 0, "count"},
                {"des.cancel_frac", 0, "ratio"},
                {"des.kernel_ns_per_event", 0, "ns"},
                {"des.kernel_share", 0, "ratio"},
                {"resource.leaf_utilization", 0, "ratio"},
                {"resource.rejected_frac", 0, "ratio"},
                {"resource.gate_stalls", 0, "count"},
                {"resource.queue_hwm", 0, "count"},
                {"pdes.windows", 0, "count"},
                {"pdes.msgs_sent", 0, "count"},
                {"pdes.msgs_committed", 0, "count"},
                {"pdes.events_per_window", 0, "count"},
                {"pdes.us_per_window", 0, "us"},
                {"pdes.speedup_w4_over_w1", 0, "x"},
                {"pdes.efficiency", 0, "ratio"},
                {"pdes.loopback_identical", 0, "bool"},
                {"client.retry_amplification", 0, "x"},
                {"client.retries", 0, "count"},
                {"client.timeouts", 0, "count"},
                {"client.budget_denials", 0, "count"},
                {"client.breaker_opens", 0, "count"},
                {"client.breaker_short_circuits", 0, "count"},
                {"client.shed_queries", 0, "count"},
                {"client.answered_frac", 0, "ratio"},
                {"gray.evictions", 0, "count"},
                {"gray.probations", 0, "count"},
                {"gray.redirected_sends", 0, "count"},
                {"gray.adaptive_deadline_ms", 0, "ms"},
                {"power.energy_j", 0, "J"},
                {"power.peak_window_w", 0, "W"},
                {"power.shed_queries", 0, "count"},
                {"power.goodput_per_joule", 0, "1/J"},
                {"region.attempt_amplification", 0, "x"},
                {"region.capped", 0, "count"},
                {"region.lost", 0, "count"},
                {"region.probes", 0, "count"},
                {"region.evictions", 0, "count"},
                {"region.readmissions", 0, "count"},
                {"region.utilization", 0, "ratio"},
                {"bench.trace_overhead_frac", 0, "ratio"}} {}
  void set(const std::string& name, double v) {
    for (Metric& m : values_) {
      if (m.name == name) {
        m.value = v;
        return;
      }
    }
    std::cerr << "internal error: unknown layer metric " << name << "\n";
    std::abort();
  }
  double get(const std::string& name) const {
    for (const Metric& m : values_) {
      if (m.name == name) return m.value;
    }
    return 0;
  }
  const std::vector<Metric>& all() const noexcept { return values_; }

 private:
  std::vector<Metric> values_;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Counter value (or gauge high water) of `name` in a registry snapshot;
/// 0 when the library never published it.
double registry_value(const obs::MetricsSnapshot& snap, const char* name) {
  for (const auto& e : snap.entries) {
    if (e.name != name) continue;
    return e.kind == obs::MetricKind::kGauge ? e.value
                                             : static_cast<double>(e.count);
  }
  return 0;
}

// ------------------------------------------------------------ checks

struct Check {
  std::string name;
  bool pass = false;
};

void expect(std::vector<Check>& out, std::string name, bool pass) {
  out.push_back({std::move(name), pass});
}

template <typename T>
std::uint64_t sum_of(const std::vector<T>& v) {
  std::uint64_t s = 0;
  for (const T& x : v) s += x;
  return s;
}

std::vector<Check> check_cluster(const cloud::ClusterResult& r) {
  std::vector<Check> c;
  const std::uint64_t answered = r.ok_queries + r.degraded_queries;
  expect(c, "queries == ok + degraded + failed",
         r.queries == answered + r.failed_queries);
  expect(c, "query_ms.count == ok + degraded", r.query_ms.count() == answered);
  expect(c, "sum(answered_per_window) == answered",
         !r.answered_per_window.empty() &&
             sum_of(r.answered_per_window) == answered);
  if (r.power_cap_w > 0) {
    double e = 0;
    for (double w : r.energy_j_per_window) e += w;
    expect(c, "sum(energy_j_per_window) == energy_j",
           r.energy_j > 0 &&
               std::abs(e - r.energy_j) <= 1e-9 * std::abs(r.energy_j));
    expect(c, "peak_window_w <= power_cap_w",
           r.peak_window_w <= r.power_cap_w * (1 + 1e-9));
  }
  return c;
}

std::vector<Check> check_region(const cloud::MultiRegionResult& r,
                                const cloud::MultiRegionConfig& cfg) {
  std::vector<Check> c;
  expect(c, "requests == answered + failed + shed",
         r.requests == r.answered + r.failed + r.shed);
  expect(c, "attempts >= answered", r.attempts >= r.answered);
  expect(c, "sum(answered_per_window) == answered",
         !r.answered_per_window.empty() &&
             sum_of(r.answered_per_window) == r.answered);
  bool shape = r.regions.size() == cfg.regions.size() &&
               r.region_answered_per_window.size() == cfg.regions.size();
  std::uint64_t by_region = 0;
  bool util_ok = shape;
  if (shape) {
    for (std::size_t i = 0; i < r.regions.size(); ++i) {
      by_region += sum_of(r.region_answered_per_window[i]);
      util_ok = util_ok && r.regions[i].utilization <= 1.0;
    }
  }
  expect(c, "sum(region_answered_per_window) == answered",
         shape && by_region == r.answered);
  expect(c, "region utilization <= 1", util_ok);
  bool classes_ok = !r.classes.empty();
  for (const auto& k : r.classes) {
    classes_ok = classes_ok && k.answered > 0 && k.answered >= k.slo_met;
  }
  expect(c, "class answered >= slo_met", classes_ok);
  return c;
}

// ------------------------------------------------------------ workloads

/// The E29 overload workload sized up (bench_overload.cpp): the same
/// per-leaf rates and a crash burst on 60% of the leaves, starting a
/// third into the horizon and lasting a sixth of it.  `leaves` and the
/// horizon set the host cost.
cloud::ClusterConfig overload_base(std::uint64_t seed, unsigned leaves,
                                   double qps, double duration_s) {
  cloud::ClusterConfig cfg;
  cfg.leaves = leaves;
  cfg.query_rate_hz = qps;
  cfg.leaf_service_ms = 3.0;
  cfg.service_sigma = 0.35;
  cfg.background_rate_hz = 30;
  cfg.background_ms = 2.0;
  cfg.duration_s = duration_s;
  cfg.seed = seed;
  cfg.goodput_window_s = 1.0;
  cfg.faults.burst_leaves = leaves * 3 / 5;
  cfg.faults.burst_start_s = duration_s / 3;
  cfg.faults.burst_duration_s = duration_s / 6;
  return cfg;
}

/// cluster_powercap: serial zero-latency engine, the E33 governor rung at
/// an 80% cap with the naive unbudgeted-retry client (power_rung_config).
cloud::ClusterConfig powercap_config(std::uint64_t seed) {
  const auto base = overload_base(seed, 100, 160, 12);
  cloud::PowerLadderPolicies knobs;
  knobs.overload.timeout_ms = 25;  // as bench_power
  knobs.overload.sojourn_target_ms = 25;
  return cloud::power_rung_config(base, knobs, 0.8,
                                  cloud::PowercapPolicy::kGovernor);
}

/// The full protected client of the E34 ladder's top rung: budgeted
/// retries, quorum, admission, deadline-drop queues of depth 4, breakers
/// and gray detection with eviction.
void protect(cloud::ClusterConfig& cfg) {
  const cloud::GrayfailPolicies k;
  auto& p = cfg.policy;
  p.retry.timeout_ms = k.timeout_ms;
  p.retry.max_retries = k.max_retries;
  p.budget.enabled = true;
  p.budget.ratio = k.budget_ratio;
  p.quorum.quorum_fraction = k.quorum_fraction;
  p.quorum.deadline_ms = k.quorum_deadline_ms;
  p.admission.enabled = true;
  p.admission.rate_qps = k.admission_rate_frac * cfg.query_rate_hz;
  p.admission.max_in_flight =
      static_cast<unsigned>(2.0 * cfg.query_rate_hz * k.quorum_deadline_ms /
                            1000.0) +
      1;
  p.breaker.enabled = true;
  p.gray = k.gray;
  p.gray.enabled = true;
  p.gray.evict = true;
  cfg.leaf_queue.capacity = k.queue_capacity;
  cfg.leaf_queue.discipline = des::QueueDiscipline::kDeadline;
  cfg.leaf_queue.sojourn_target = k.sojourn_target_ms;
}

unsigned pdes_workers() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return std::min(4u, hw);
}

/// cluster_pdes_w4: the LP-sharded network-latency scenario on
/// des::ParallelEngine, 64 leaves in 8 groups, 1 ms links.
cloud::ClusterConfig pdes_config(std::uint64_t seed) {
  auto cfg = overload_base(seed, 64, 200, 6);
  cfg.leaf_groups = 8;
  cfg.net_latency_ms = 1.0;
  cfg.workers = pdes_workers();
  protect(cfg);
  return cfg;
}

/// The smallest config found on which LoopbackEngine (workers=0) and
/// ParallelEngine (workers>=1) disagree, contrary to the determinism
/// contract in cluster.hpp.  Fixed seed and size: it is a named check,
/// not a workload, and must not be tuned to pass.
cloud::ClusterConfig loopback_reproducer() {
  cloud::ClusterConfig cfg;
  cfg.leaves = 64;
  cfg.net_latency_ms = 1.0;
  cfg.leaf_groups = 8;
  cfg.query_rate_hz = 200;
  cfg.leaf_service_ms = 3.0;
  cfg.background_ms = 2.0;
  cfg.duration_s = 10;
  cfg.seed = 2014;
  cfg.policy.retry.timeout_ms = 25;
  cfg.policy.retry.max_retries = 2;
  cfg.leaf_queue.capacity = 4;
  cfg.leaf_queue.discipline = des::QueueDiscipline::kDeadline;
  cfg.leaf_queue.sojourn_target = 25;
  cfg.policy.breaker.enabled = true;
  return cfg;
}

/// multiregion_blackout: the E31 "caps + hysteresis + breakers" rung
/// (bench_multiregion.cpp base_config, full drill), 4 regions, ~3200 qps
/// open-loop diurnal sessions, blackout of region 1 across two peaks.
cloud::MultiRegionConfig region_config(std::uint64_t seed) {
  cloud::MultiRegionConfig cfg;
  const char* names[] = {"us-east", "eu-west", "ap-south", "us-west"};
  for (unsigned r = 0; r < 4; ++r) {
    cloud::RegionConfig rc;
    rc.name = names[r];
    rc.servers = 7;
    rc.service_median_ms = 3.0;
    rc.service_sigma = 0.4;
    rc.p_straggler = 0.01;
    rc.straggler_scale_ms = 30.0;
    rc.straggler_alpha = 2.5;
    if (r == 2) {
      rc.be_utilization = 0.4;
      rc.qos_partitioned = true;
    }
    rc.queue.capacity = 64;
    rc.queue.discipline = des::QueueDiscipline::kDeadline;
    rc.queue.sojourn_target = 60;
    cfg.regions.push_back(rc);
  }
  cfg.wan.regions = 4;
  cfg.wan.base_latency_ms = 40;
  cfg.wan.intra_ms = 1.0;
  cfg.wan.jitter_frac = 0.1;
  cfg.traffic.session_rate_hz = 400;
  cfg.traffic.session_mean_queries = 8;
  cfg.traffic.diurnal_amplitude = 0.3;
  cfg.traffic.diurnal_period_s = 16;
  cfg.traffic.diurnal_peak_s = 40;
  cfg.duration_s = 80;
  cfg.goodput_window_s = 1.0;
  cfg.seed = seed;
  cfg.route = cloud::RoutePolicy::kLatencyWeighted;
  cfg.blackout_region = 1;
  cfg.blackout_start_s = 38;
  cfg.blackout_duration_s = 24;
  auto& fo = cfg.failover;
  fo.health_interval_s = 0.25;
  fo.probe_timeout_ms = 60;
  fo.unhealthy_after = 2;
  fo.healthy_after = 4;
  fo.admission_cap_frac = 0.68;
  fo.admission_burst = 32;
  fo.timeout_ms = 150;
  fo.max_retries = 2;
  fo.budget_enabled = true;
  fo.budget_ratio = 0.15;
  fo.budget_burst = 60;
  fo.breaker.enabled = true;
  fo.breaker.open_ms = 250;
  return cfg;
}

/// Seed of trial `i`: the repo-wide Rng(seed, i) sub-stream convention.
std::uint64_t trial_seed(std::uint64_t seed, unsigned i) {
  return Rng(seed, i).next();
}

/// One run's outcome as the harness sees it.
struct Outcome {
  std::uint64_t digest = 0;    ///< over every trial's sim_digest, in order
  std::uint64_t requests = 0;  ///< simulated server requests, all trials
  std::vector<Check> checks;   ///< every trial's output checks
};

/// Fold one trial into a run's outcome.
void add_trial(Outcome& out, Digest& g, std::uint64_t digest,
               std::uint64_t requests, std::vector<Check> checks) {
  g.u(digest);
  out.digest = g.value();
  out.requests += requests;
  for (Check& c : checks) out.checks.push_back(std::move(c));
}

/// One workload.  A run is trials() independent seeded simulations of the
/// fixed horizon: summing several sample paths keeps the host cost of a
/// run from swinging with the fault dynamics of a single seed.
class Drill {
 public:
  explicit Drill(int trials) : trials_(trials) {}
  virtual ~Drill() = default;
  int trials() const noexcept { return trials_; }
  /// Generate the config from the seed and validate it (the set-up the
  /// harness times; construction of any pool the drill needs included).
  virtual void setup(std::uint64_t seed) = 0;
  /// One run: trials() simulations of the fixed horizon, one at a time,
  /// calling `after_trial` (when set) after each.  `workers` overrides the
  /// PDES worker count (cluster PDES drill only; kKeep keeps the config's).
  virtual Outcome run(unsigned workers = kKeep,
                      const std::function<void()>& after_trial = {}) = 0;
  virtual std::string describe() const = 0;
  /// Shape of the des::Simulator replay sized to this workload.
  virtual std::pair<std::uint32_t, std::uint32_t> replay_shape() const = 0;
  /// Fill the layer counts from the last run's merged result and the
  /// registry (both summed over the run's trials).
  virtual void layers(const obs::MetricsSnapshot& snap,
                      LayerValues& out) const = 0;
  virtual bool is_pdes() const { return false; }

  static constexpr unsigned kKeep = ~0u;

 private:
  int trials_;
};

class ClusterDrill final : public Drill {
 public:
  using Make = cloud::ClusterConfig (*)(std::uint64_t);
  ClusterDrill(Make make, int trials) : Drill(trials), make_(make) {}

  void setup(std::uint64_t seed) override {
    cfg_ = make_(seed);
    cfg_.validate();
    // simulate_cluster_pdes() builds a pool of this size on every call;
    // construction and teardown are its part of the set-up.
    if (cfg_.workers > 0) ThreadPool pool(cfg_.workers);
  }

  Outcome run(unsigned workers,
              const std::function<void()>& after_trial) override {
    Outcome out;
    Digest g;
    for (int i = 0; i < trials(); ++i) {
      cloud::ClusterConfig c = cfg_;
      c.seed = trial_seed(cfg_.seed, i);
      if (workers != kKeep) c.workers = workers;
      cloud::ClusterResult r = cloud::simulate_cluster(c);
      add_trial(out, g, cluster_digest(r), r.leaf_requests, check_cluster(r));
      if (i == 0) {
        last_ = std::move(r);
      } else {
        last_.merge(r);
      }
      if (after_trial) after_trial();
    }
    return out;
  }

  std::string describe() const override {
    std::ostringstream os;
    os << trials() << " trials x " << cfg_.duration_s << " s simulated, "
       << cfg_.leaves << " leaves, " << cfg_.query_rate_hz << " qps, burst " << cfg_.faults.burst_leaves
       << " leaves down for " << cfg_.faults.burst_duration_s << " s";
    if (cfg_.net_latency_ms > 0) {
      os << ", PDES " << cfg_.leaf_groups << " leaf groups, "
         << cfg_.net_latency_ms << " ms links, workers=" << cfg_.workers;
    } else {
      os << ", serial engine";
    }
    if (cfg_.powercap.enabled) {
      os << ", powercap governor at " << cfg_.powercap.cap_fraction * 100
         << "% cap";
    }
    os << ", seed " << cfg_.seed;
    return os.str();
  }

  std::pair<std::uint32_t, std::uint32_t> replay_shape() const override {
    return {static_cast<std::uint32_t>(last_.queries), cfg_.leaves};
  }

  void layers(const obs::MetricsSnapshot& snap,
              LayerValues& out) const override {
    const auto& r = last_;
    const double executed = registry_value(snap, "des.executed");
    const double cancelled = registry_value(snap, "des.cancelled");
    out.set("des.events", executed + cancelled);
    out.set("des.cancel_frac", ratio(cancelled, executed + cancelled));
    out.set("resource.leaf_utilization", r.mean_leaf_utilization);
    out.set("resource.rejected_frac",
            ratio(static_cast<double>(r.rejected_requests),
                  static_cast<double>(r.leaf_requests)));
    out.set("resource.gate_stalls", static_cast<double>(r.power_gate_stalls));
    out.set("resource.queue_hwm",
            registry_value(snap, "cluster.leaf_queue.hwm"));
    const double windows = registry_value(snap, "pdes.window.count");
    out.set("pdes.windows", windows);
    out.set("pdes.msgs_sent", registry_value(snap, "pdes.mailbox.sent"));
    out.set("pdes.msgs_committed",
            registry_value(snap, "pdes.mailbox.committed"));
    out.set("pdes.events_per_window", ratio(executed, windows));
    out.set("client.retry_amplification", r.retry_amplification);
    out.set("client.retries", static_cast<double>(r.retries));
    out.set("client.timeouts", static_cast<double>(r.timeouts));
    out.set("client.budget_denials", static_cast<double>(r.budget_denials));
    out.set("client.breaker_opens",
            static_cast<double>(r.breaker_open_transitions));
    out.set("client.breaker_short_circuits",
            static_cast<double>(r.breaker_short_circuits));
    out.set("client.shed_queries", static_cast<double>(r.shed_queries));
    const double offered = static_cast<double>(r.queries + r.shed_queries +
                                               r.power_shed_queries);
    out.set("client.answered_frac",
            ratio(static_cast<double>(r.ok_queries + r.degraded_queries),
                  offered));
    out.set("gray.evictions", static_cast<double>(r.gray_evictions));
    out.set("gray.probations", static_cast<double>(r.gray_probations));
    out.set("gray.redirected_sends",
            static_cast<double>(r.gray_redirected_sends));
    out.set("gray.adaptive_deadline_ms", r.adaptive_deadline_ms);
    out.set("power.energy_j", r.energy_j);
    out.set("power.peak_window_w", r.peak_window_w);
    out.set("power.shed_queries", static_cast<double>(r.power_shed_queries));
    out.set("power.goodput_per_joule", r.goodput_per_joule());
  }

  bool is_pdes() const override { return cfg_.net_latency_ms > 0; }

 private:
  Make make_;
  cloud::ClusterConfig cfg_;
  cloud::ClusterResult last_;
};

class RegionDrill final : public Drill {
 public:
  void setup(std::uint64_t seed) override {
    cfg_ = region_config(seed);
    cfg_.validate();
  }

  RegionDrill() : Drill(4) {}

  Outcome run(unsigned, const std::function<void()>& after_trial) override {
    Outcome out;
    Digest g;
    for (int i = 0; i < trials(); ++i) {
      cloud::MultiRegionConfig c = cfg_;
      c.seed = trial_seed(cfg_.seed, i);
      cloud::MultiRegionResult r = cloud::simulate_multiregion(c);
      add_trial(out, g, region_digest(r), r.attempts, check_region(r, c));
      if (i == 0) {
        last_ = std::move(r);
      } else {
        last_.merge(r);
      }
      if (after_trial) after_trial();
    }
    return out;
  }

  std::string describe() const override {
    std::ostringstream os;
    os << trials() << " trials x " << cfg_.duration_s << " s simulated, "
       << cfg_.regions.size() << " regions, "
       << cfg_.traffic.mean_query_rate_hz() << " qps mean offered ("
       << cfg_.traffic.diurnal_period_s
       << " s diurnal day), blackout of region " << cfg_.blackout_region
       << " for " << cfg_.blackout_duration_s
       << " s, caps + hysteresis + breakers, seed " << cfg_.seed;
    return os.str();
  }

  std::pair<std::uint32_t, std::uint32_t> replay_shape() const override {
    return {static_cast<std::uint32_t>(last_.requests), 1};
  }

  void layers(const obs::MetricsSnapshot&, LayerValues& out) const override {
    // simulate_multiregion publishes nothing into the registry, so the
    // kernel event count and queue high water stay 0 here (NOTES.md).
    const auto& r = last_;
    std::uint64_t rejected = 0, capped = 0, lost = 0, probes = 0;
    std::uint64_t evictions = 0, readmissions = 0;
    double util = 0;
    for (const auto& s : r.regions) {
      rejected += s.rejected;
      capped += s.capped;
      lost += s.lost;
      probes += s.probes;
      evictions += s.evictions;
      readmissions += s.readmissions;
      util += s.utilization;
    }
    const double mean_util = ratio(util, static_cast<double>(r.regions.size()));
    out.set("resource.leaf_utilization", mean_util);
    out.set("resource.rejected_frac",
            ratio(static_cast<double>(rejected),
                  static_cast<double>(r.attempts)));
    out.set("client.retry_amplification", r.attempt_amplification);
    out.set("client.retries", static_cast<double>(r.retries));
    out.set("client.timeouts", static_cast<double>(r.timeouts));
    out.set("client.budget_denials", static_cast<double>(r.budget_denials));
    out.set("client.breaker_opens",
            static_cast<double>(r.breaker_open_transitions));
    out.set("client.breaker_short_circuits",
            static_cast<double>(r.breaker_short_circuits));
    out.set("client.shed_queries", static_cast<double>(r.shed));
    out.set("client.answered_frac",
            ratio(static_cast<double>(r.answered),
                  static_cast<double>(r.requests)));
    out.set("region.attempt_amplification", r.attempt_amplification);
    out.set("region.capped", static_cast<double>(capped));
    out.set("region.lost", static_cast<double>(lost));
    out.set("region.probes", static_cast<double>(probes));
    out.set("region.evictions", static_cast<double>(evictions));
    out.set("region.readmissions", static_cast<double>(readmissions));
    out.set("region.utilization", mean_util);
  }

 private:
  cloud::MultiRegionConfig cfg_;
  cloud::MultiRegionResult last_;
};

std::unique_ptr<Drill> make_drill(const std::string& name) {
  // cluster_powercap gets twice the trials: its cheap trials vary most
  // from seed to seed with the retry storm the crash burst sets off.
  if (name == "cluster_powercap") {
    return std::make_unique<ClusterDrill>(&powercap_config, 8);
  }
  if (name == "cluster_pdes_w4") {
    return std::make_unique<ClusterDrill>(&pdes_config, 4);
  }
  if (name == "multiregion_blackout") return std::make_unique<RegionDrill>();
  return nullptr;
}

// ------------------------------------------------------------ harness

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    char* end = nullptr;
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      have_seed = !v.empty() && *end == '\0' && v[0] != '-';
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0') return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      a.trace = v == "1";
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && have_seed && a.trace >= 0 &&
         std::isfinite(a.seconds) && a.seconds > 0 && a.seconds <= 3600;
}

/// Tally of checked runs; check_fail_frac = failed / attempted.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::set<std::string> failed_checks;  ///< names that failed at least once
  std::vector<std::string> failures;    ///< first few, for the report

  /// Count one checked run.  `extra` are checks made across runs
  /// (digest agreement); a run fails when any of its checks fails.
  void record(const std::string& label, const Outcome& o,
              std::initializer_list<Check> extra = {}) {
    ++attempted;
    bool ok = true;
    auto note = [&](const Check& c) {
      if (c.pass) return;
      ok = false;
      failed_checks.insert(c.name);
      if (failures.size() < 16) failures.push_back(label + ": " + c.name);
    };
    for (const Check& c : o.checks) note(c);
    for (const Check& c : extra) note(c);
    if (!ok) ++failed;
  }
  bool passed(const std::string& check) const {
    return failed_checks.count(check) == 0;
  }
};

const std::string kDigestCheck = "sim_digest == first run";
const std::string kTracedCheck = "traced sim_digest == untraced";

std::string workers1_check() {
  return "workers=1 sim_digest == workers=" + std::to_string(pdes_workers());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string fmt(double v) {
  std::ostringstream os;
  os << std::setprecision(10) << v;
  return os.str();
}

void print_metric(const Metric& m) {
  std::cout << "  " << std::left << std::setw(32) << m.name << std::right
            << std::setw(18) << fmt(m.value) << " " << m.unit << "\n";
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::ostringstream os;
  os << std::setprecision(17) << "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    os << (i ? ", " : "") << "\"" << ms[i].name
       << "\": {\"value\": " << ms[i].value << ", \"unit\": \"" << ms[i].unit
       << "\"}";
  }
  os << "}";
  return os.str();
}

// ------------------------------------------------------------ references
//
// Host-speed references, private to this file: no library code runs in
// them, so no change to the library can move them.  What moves them is the
// host -- clock speed, the cache and memory bandwidth other tenants leave
// free, and how fast a sleeping thread is woken.  A share of the
// reference runs after every trial, so each run and its reference sample
// the host at the same moments, and host drift becomes a common factor of
// the pair (wall_vs_ref).

/// Where the references leave their results, so the loops cannot be
/// optimized away.  Atomic: the window reference's workers all store here.
std::atomic<std::uint64_t> reference_sink{0};

/// Serial reference: an event-queue loop (std::priority_queue over a
/// 4 MiB state table, driven by its own splitmix64 stream).  A full
/// reference is kSteps steps; the queue and table persist between shares.
class SerialReference {
 public:
  static constexpr int kSteps = 600000;

  SerialReference() : state_(kSlots) {
    for (int i = 0; i < kPending; ++i) q_.push({0.0, next()});
  }

  double time_steps(int steps) {
    const auto t0 = Clock::now();
    for (int i = 0; i < steps; ++i) {
      const Ev e = q_.top();
      q_.pop();
      std::uint64_t& cell = state_[e.second & (kSlots - 1)];
      cell += e.second;
      acc_ ^= cell;
      const std::uint64_t r = next();
      q_.push({e.first + static_cast<double>(r >> 40) * 1e-6, r ^ acc_});
    }
    const double t = seconds_between(t0, Clock::now());
    reference_sink.store(acc_, std::memory_order_relaxed);
    return t;
  }

 private:
  static constexpr std::size_t kSlots = std::size_t{1} << 19;
  static constexpr int kPending = 1 << 14;
  using Ev = std::pair<double, std::uint64_t>;

  std::uint64_t next() {
    std::uint64_t z = (x_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::vector<std::uint64_t> state_;
  std::priority_queue<Ev, std::vector<Ev>, std::greater<>> q_;
  std::uint64_t x_ = 0x2014;
  std::uint64_t acc_ = 0;
};

/// Window reference for the PDES workload: rounds of small tasks, one per
/// LP of the workload (8 leaf groups + the root), handed to `workers`
/// threads asleep on a condition variable while the caller sleeps until
/// the round completes -- the wake-up pattern of one conservative window.
/// A full reference is kRounds rounds.
class WindowReference {
 public:
  static constexpr int kRounds = 6000;

  explicit WindowReference(unsigned workers) {
    try {
      for (unsigned w = 0; w < workers; ++w) {
        threads_.emplace_back([this] { work_loop(); });
      }
    } catch (...) {
      shutdown();
      throw;
    }
  }
  ~WindowReference() { shutdown(); }
  WindowReference(const WindowReference&) = delete;
  WindowReference& operator=(const WindowReference&) = delete;

  double time_rounds(int rounds) {
    const auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        queued_ = remaining_ = kTasksPerRound;
      }
      cv_task_.notify_all();
      std::unique_lock<std::mutex> lk(mu_);
      cv_done_.wait(lk, [this] { return remaining_ == 0; });
    }
    return seconds_between(t0, Clock::now());
  }

 private:
  static constexpr int kTasksPerRound = 9;
  static constexpr int kTaskSteps = 3000;

  void work_loop() {
    std::uint64_t a = 0x2014;
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_task_.wait(lk, [this] { return stop_ || queued_ > 0; });
        if (stop_) break;
        --queued_;
      }
      for (int i = 0; i < kTaskSteps; ++i) {
        a = a * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      std::lock_guard<std::mutex> lk(mu_);
      if (--remaining_ == 0) cv_done_.notify_all();
    }
    reference_sink.store(a, std::memory_order_relaxed);
  }

  void shutdown() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_task_.notify_all();
    for (std::thread& t : threads_) t.join();
    threads_.clear();
  }

  std::mutex mu_;  // guards queued_, remaining_, stop_
  std::condition_variable cv_task_;
  std::condition_variable cv_done_;
  int queued_ = 0;
  int remaining_ = 0;
  bool stop_ = false;
  std::vector<std::thread> threads_;  // last: joined before the rest dies
};

/// The reference matching a workload's execution pattern; share() times
/// one trial's share of a full reference.
class HostReference {
 public:
  explicit HostReference(const Drill& drill) : trials_(drill.trials()) {
    if (drill.is_pdes()) {
      window_.emplace(pdes_workers());
    } else {
      serial_.emplace();
    }
  }
  double share() {
    return window_ ? window_->time_rounds(WindowReference::kRounds / trials_)
                   : serial_->time_steps(SerialReference::kSteps / trials_);
  }

 private:
  int trials_;
  std::optional<SerialReference> serial_;
  std::optional<WindowReference> window_;
};

/// Median of `reps` timings of `fn` (seconds).
template <typename Fn>
double median_time(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_between(t0, Clock::now()));
  }
  return median(t);
}

constexpr int kSetupBatch = 100;  // set-ups timed together per sample
constexpr int kMinReps = 5;       // timed runs, at least

/// One set-up sample: kSetupBatch set-ups timed together, per set-up.
double setup_sample(Drill& drill, std::uint64_t seed) {
  const auto t0 = Clock::now();
  for (int b = 0; b < kSetupBatch; ++b) drill.setup(seed);
  return seconds_between(t0, Clock::now()) / kSetupBatch;
}

/// pdes.loopback_identical on the reproducer: LoopbackEngine (workers=0)
/// against ParallelEngine (workers=1).
struct LoopbackCheck {
  bool identical = false;
  std::string detail;
};

LoopbackCheck check_loopback() {
  cloud::ClusterConfig c = loopback_reproducer();
  c.workers = 0;
  const auto r0 = cloud::simulate_cluster(c);
  c.workers = 1;
  const auto r1 = cloud::simulate_cluster(c);
  std::ostringstream os;
  os << "reproducer: 64 leaves, net_latency_ms=1, 8 groups, 200 qps, "
        "leaf_service_ms=3, background_ms=2, 10 s, seed 2014, "
        "timeout_ms=25, max_retries=2, deadline-drop queue capacity 4, "
        "breakers; leaf_requests "
     << r0.leaf_requests << " (workers=0) vs " << r1.leaf_requests
     << " (workers=1), rejected " << r0.rejected_requests << " vs "
     << r1.rejected_requests;
  return {cluster_digest(r0) == cluster_digest(r1), os.str()};
}

/// Everything the measurement loop collects.
struct Samples {
  std::vector<double> wall, rate, setup;          // every run
  std::vector<double> vs_ref, rate_vs_ref;        // untraced run only
  std::vector<double> traced_wall, overhead, speedup;  // traced run only
  obs::MetricsSnapshot snap;  ///< registry after the last traced run
};

/// Timed runs until `seconds` have passed (at least kMinReps).  Untraced:
/// a share of the workload's host reference runs after every trial, and a
/// set-up sample after every run.  Traced: each untraced run is paired
/// with a traced one and, on the PDES workload, a workers=1 run.
Samples measure(Drill& drill, const Args& args, const Outcome& ref,
                Tally& tally, Spans* sp) {
  Samples s;
  auto& reg = obs::MetricsRegistry::global();
  std::optional<HostReference> host;
  double ref_s = 0;  // reference time inside the current run
  std::function<void()> after_trial;
  if (!args.trace) {
    host.emplace(drill);
    after_trial = [&] { ref_s += host->share(); };
  }
  const auto loop_t0 = Clock::now();
  for (int rep = 0; rep < kMinReps ||
                    seconds_between(loop_t0, Clock::now()) < args.seconds;
       ++rep) {
    const std::string label = "run " + std::to_string(rep);
    Outcome o;
    double wall = 0;
    {
      Spans::Scope span(sp, "sim.run");
      ref_s = 0;
      const auto t0 = Clock::now();
      o = drill.run(Drill::kKeep, after_trial);
      wall = seconds_between(t0, Clock::now()) - ref_s;
    }
    {
      Spans::Scope span(sp, "check");
      tally.record(label, o,
                   {Check{kDigestCheck, o.digest == ref.digest}});
    }
    s.wall.push_back(wall);
    s.rate.push_back(static_cast<double>(o.requests) / wall);

    if (!args.trace) {
      s.vs_ref.push_back(wall / ref_s);
      s.rate_vs_ref.push_back(static_cast<double>(o.requests) * ref_s / wall);
      s.setup.push_back(setup_sample(drill, args.seed));
      continue;
    }

    Outcome t;
    double traced_wall = 0;
    {
      Spans::Scope span(sp, "sim.run.traced");
      reg.reset();
      reg.set_enabled(true);
      const auto t0 = Clock::now();
      t = drill.run();
      traced_wall = seconds_between(t0, Clock::now());
      reg.set_enabled(false);
      s.snap = reg.snapshot();
    }
    {
      Spans::Scope span(sp, "check");
      tally.record("traced " + label, t,
                   {Check{kTracedCheck, t.digest == ref.digest}});
    }
    s.traced_wall.push_back(traced_wall);
    s.overhead.push_back(traced_wall / wall);

    if (drill.is_pdes()) {
      // The same events on one worker: the PDES speedup's denominator.
      Spans::Scope span(sp, "probe.pdes_w1");
      const auto t0 = Clock::now();
      const Outcome w1 = drill.run(1);
      const double w1_wall = seconds_between(t0, Clock::now());
      tally.record("workers=1 " + label, w1,
                   {Check{workers1_check(), w1.digest == ref.digest}});
      s.speedup.push_back(w1_wall / wall);
    }
  }
  return s;
}

std::vector<Metric> end_to_end_report(const Drill& drill, const Samples& s,
                                      std::uint64_t requests,
                                      double check_fail_frac) {
  const double wall_s = median(s.wall);
  std::cout << "\nend-to-end (host time; median of " << s.wall.size()
            << " timed runs after 1 warm-up, " << requests
            << " simulated requests per run):\n";
  print_metric({"wall_s", wall_s, "s"});
  print_metric({"sim_requests_per_s", median(s.rate), "1/s"});
  // The JSON carries the metrics steady enough to gate on: host time
  // normalized by the paired reference, memory and set-up.  Raw host time
  // swings with the host by more than any bound (NOTES.md), so it is
  // printed but not gated.
  std::vector<Metric> metrics = {
      {"wall_vs_ref", median(s.vs_ref), "x"},
      {"sim_requests_per_ref", median(s.rate_vs_ref), "1/ref"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"setup_s", median(s.setup), "s"}};
  for (const Metric& m : metrics) print_metric(m);
  print_metric({"check_fail_frac", check_fail_frac, "ratio"});
  std::cout << "  wall_s quartiles " << fmt(percentile(s.wall, 0.25))
            << " / " << fmt(wall_s) << " / " << fmt(percentile(s.wall, 0.75))
            << " s, min " << fmt(percentile(s.wall, 0)) << " s\n";
  if (s.wall.size() >= 11) {
    const double q = 1.0 - 10.0 / static_cast<double>(s.wall.size());
    std::cout << "  wall_s p" << fmt(100 * q) << " "
              << fmt(percentile(s.wall, q)) << " s (10 runs above it)\n";
  }
  std::cout << "  reference: "
            << (drill.is_pdes() ? "window rounds on " +
                                      std::to_string(pdes_workers()) +
                                      " workers"
                                : std::string("serial event loop"))
            << ", a share timed after every trial; setup_s is the median of "
            << s.setup.size() << " samples of " << kSetupBatch
            << " set-ups\n";
  return metrics;
}

std::vector<Metric> layer_report(const Drill& drill, const Samples& s,
                                 std::uint64_t seed, bool loopback_identical,
                                 double check_fail_frac, Spans* sp) {
  const double wall_s = median(s.wall);
  LayerValues lv;
  drill.layers(s.snap, lv);
  {
    // des::Simulator replay sized to the workload: host cost per kernel
    // event with nothing else running.
    Spans::Scope span(sp, "probe.kernel_replay");
    const auto [queries, fanout] = drill.replay_shape();
    std::uint64_t events = 0;
    const double t = median_time(3, [&] {
      events =
          des::replay_cluster_like<des::Simulator>(seed, queries, fanout)
              .events();
    });
    const double ns_per_event = 1e9 * ratio(t, static_cast<double>(events));
    lv.set("des.kernel_ns_per_event", ns_per_event);
    lv.set("des.kernel_share",
           ratio(ns_per_event * 1e-9 * lv.get("des.events"), wall_s));
  }
  if (drill.is_pdes()) {
    lv.set("pdes.us_per_window", 1e6 * ratio(wall_s, lv.get("pdes.windows")));
    const double speedup = median(s.speedup);
    lv.set("pdes.speedup_w4_over_w1", speedup);
    lv.set("pdes.efficiency", speedup / pdes_workers());
  }
  lv.set("pdes.loopback_identical", loopback_identical ? 1 : 0);
  lv.set("bench.trace_overhead_frac", median(s.overhead) - 1.0);
  std::cout << "\nper-layer (traced run; " << s.wall.size()
            << " untraced/traced pairs; counts from the last traced run,"
               " summed over its "
            << drill.trials()
            << " trials; 0 = layer not entered or not published):\n";
  for (const Metric& m : lv.all()) print_metric(m);
  print_metric({"check_fail_frac", check_fail_frac, "ratio"});
  std::cout << "  untraced wall_s " << fmt(wall_s) << " s, traced wall_s "
            << fmt(median(s.traced_wall)) << " s\n";
  return lv.all();
}

void print_check(bool pass, const std::string& what) {
  std::cout << "  [" << (pass ? "PASS" : "FAIL") << "] " << what << "\n";
}

int run_bench(const Args& args) {
  auto drill = make_drill(args.workload);
  if (!drill) {
    std::cerr << "unknown workload '" << args.workload
              << "' (cluster_powercap | cluster_pdes_w4 | "
                 "multiregion_blackout)\n";
    return 2;
  }
  std::unique_ptr<Spans> spans;
  if (args.trace) spans = std::make_unique<Spans>();
  Spans* sp = spans.get();
  std::optional<Spans::Scope> root(std::in_place, sp, "bench");

  double first_setup_s = 0;
  {
    Spans::Scope span(sp, "setup");
    first_setup_s = setup_sample(*drill, args.seed);
  }
  std::cout << "arch21 scenario benchmark: workload " << args.workload
            << (args.trace ? " (traced run)" : "") << "\n  "
            << drill->describe() << "\n  host threads "
            << std::thread::hardware_concurrency() << ", run budget "
            << args.seconds << " s, process start -> first run "
            << fmt(seconds_between(kProcessStart, Clock::now())) << " s\n";

  // Warm-up: the first run fills allocator and cache state; it is checked
  // but not timed.  Every later run must reproduce its digest.
  Tally tally;
  Outcome ref;
  {
    Spans::Scope span(sp, "warmup");
    ref = drill->run();
  }
  tally.record("warm-up", ref);

  Samples s = measure(*drill, args, ref, tally, sp);
  s.setup.push_back(first_setup_s);

  if (drill->is_pdes() && !args.trace) {
    Spans::Scope span(sp, "probe.pdes_w1");
    const Outcome w1 = drill->run(1);
    tally.record("workers=1", w1,
                 {Check{workers1_check(), w1.digest == ref.digest}});
  }
  // Reported, never counted as a run failure: a known defect of the
  // library, not of this run's output.
  std::optional<LoopbackCheck> loopback;
  if (drill->is_pdes() || args.trace) {
    Spans::Scope span(sp, "probe.loopback");
    loopback = check_loopback();
  }

  std::cout << "\nchecks (" << tally.attempted << " runs of " << drill->trials()
            << " trials):\n";
  for (std::size_t i = 0; i < ref.checks.size() / drill->trials(); ++i) {
    print_check(tally.passed(ref.checks[i].name),
                "every trial: " + ref.checks[i].name);
  }
  print_check(tally.passed(kDigestCheck),
              "every run: " + kDigestCheck + " (" + hex(ref.digest) + ")");
  if (drill->is_pdes()) {
    print_check(tally.passed(workers1_check()), workers1_check());
  }
  if (args.trace) print_check(tally.passed(kTracedCheck), kTracedCheck);
  if (loopback) {
    print_check(loopback->identical,
                "pdes.loopback_identical (reported, not counted in "
                "check_fail_frac)\n        " +
                    loopback->detail);
  }
  for (const auto& f : tally.failures) std::cout << "  failed: " << f << "\n";
  std::cout << "sim_digest " << hex(ref.digest) << "\n";

  const double check_fail_frac = ratio(static_cast<double>(tally.failed),
                                       static_cast<double>(tally.attempted));
  const std::vector<Metric> metrics =
      args.trace ? layer_report(*drill, s, args.seed,
                                loopback && loopback->identical,
                                check_fail_frac, sp)
                 : end_to_end_report(*drill, s, ref.requests, check_fail_frac);

  root.reset();
  if (sp && !args.trace_out.empty()) {
    if (!sp->write(args.trace_out)) {
      std::cerr << "cannot write trace to " << args.trace_out << "\n";
      return 1;
    }
    std::cout << "wrote " << sp->size() << " spans to " << args.trace_out
              << "\n";
  }

  std::cout << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << json_metrics(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold turns off glibc's adaptive one, which otherwise
  // keeps freed trial-sized blocks on the heap in a seed-dependent pattern:
  // peak RSS then swings by a quarter between seeds with the same live
  // memory.  With it fixed, peak_rss_mb tracks the live peak.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: arch21_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--trace-out <file>]\n";
    return 2;
  }
  try {
    return run_bench(args);
  } catch (const std::exception& e) {
    std::cerr << "arch21_bench: " << e.what() << "\n";
    return 1;
  }
}
