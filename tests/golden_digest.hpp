#pragma once
// Golden digests: an FNV-1a hash over every deterministic field of a
// scenario result, so one 64-bit constant pins a whole ClusterResult or
// MultiRegionResult bit for bit.  Doubles hash by bit pattern and
// histograms by count, invalid bin, mean, min, max and four quantiles, so
// two digests agree only when the runs are bit-identical.
//
// The pinned constants in the tests were recorded once and are never
// re-recorded to make a refactor pass: a digest that moves means the
// refactor changed results.  The config builders below are shared by the
// pins that live in more than one test binary.

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/region.hpp"
#include "util/histogram.hpp"
#include "util/rng.hpp"

namespace arch21::golden {

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

inline std::uint64_t digest(const cloud::ClusterResult& r) {
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

inline std::uint64_t digest(const cloud::MultiRegionResult& r) {
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

/// The zero-latency model with every fail-stop and client-policy feature
/// on at once: stochastic leaf faults with rack domains, a crash burst,
/// budgeted retries, hedging, a quorum deadline, admission (rate gate and
/// concurrency cap), breakers and deadline-drop leaf queues.
inline cloud::ClusterConfig full_stack_config() {
  cloud::ClusterConfig cfg;
  cfg.leaves = 16;
  cfg.query_rate_hz = 90;
  cfg.leaf_service_ms = 3.0;
  cfg.background_rate_hz = 30;
  cfg.background_ms = 2.0;
  cfg.duration_s = 5;
  cfg.seed = 2014;
  cfg.goodput_window_s = 0.5;
  cfg.leaf_queue.capacity = 6;
  cfg.leaf_queue.discipline = des::QueueDiscipline::kDeadline;
  cfg.leaf_queue.sojourn_target = 25;
  cfg.faults.enabled = true;
  cfg.faults.leaf = {.mtbf_hours = 20.0 / 3600, .mttr_hours = 0.5 / 3600};
  cfg.faults.leaves_per_domain = 4;
  cfg.faults.domain = {.mtbf_hours = 8.0 / 3600, .mttr_hours = 0.5 / 3600};
  cfg.faults.burst_leaves = 8;
  cfg.faults.burst_start_s = 1.5;
  cfg.faults.burst_duration_s = 1.0;
  auto& p = cfg.policy;
  p.retry.timeout_ms = 20;
  p.retry.max_retries = 3;
  p.budget.enabled = true;
  p.budget.ratio = 0.2;
  p.budget.burst = 30;
  p.hedge_after_ms = 15;
  p.quorum = {.quorum_fraction = 0.75, .deadline_ms = 70};
  p.admission.enabled = true;
  p.admission.rate_qps = 80;
  p.admission.burst = 8;
  p.admission.max_in_flight = 12;
  p.breaker.enabled = true;
  p.breaker.min_samples = 6;
  p.breaker.open_ms = 40;
  return cfg;
}

/// full_stack_config() plus gray injection (a stochastic episode trace
/// and a planted jittery burst) and gray detection with eviction and the
/// adaptive deadline.
inline cloud::ClusterConfig full_stack_gray_config() {
  cloud::ClusterConfig cfg = full_stack_config();
  cfg.gray.enabled = true;
  cfg.gray.episode = {.mtbf_hours = 6.0 / 3600, .mttr_hours = 1.5 / 3600};
  cfg.gray.burst_leaves = 4;
  cfg.gray.burst_start_s = 2.0;
  cfg.gray.burst_duration_s = 2.0;
  cfg.gray.burst_mode = reliab::GrayMode::kJittery;
  cfg.gray.burst_severity = 60.0;
  cfg.policy.gray.enabled = true;
  cfg.policy.gray.eval_interval_ms = 100;
  cfg.policy.gray.evict_ms = 400;
  return cfg;
}

/// One random valid config over the feature union a network latency
/// allows, drawn from `g`.  Every latency gets stochastic faults with
/// rack domains, crash bursts, every queue discipline with and without a
/// capacity bound, admission, a retry budget, breakers, hedges, a quorum
/// and gray detection, each switched on by a coin.  At zero latency,
/// `variant` also picks one of the two layers that run only there (they
/// are mutually exclusive): variant % 3 == 0 adds a power cap under
/// policy (variant / 3) % 4; otherwise gray injection adds a burst in
/// mode (variant / 3) % 4, plus a stochastic episode trace when
/// variant % 3 == 2.  Sizes stay small so a table of these runs fast.
inline cloud::ClusterConfig generated_cluster_config(
    Rng& g, double net_latency_ms, unsigned variant) {
  cloud::ClusterConfig cfg;
  cfg.leaves = 4 + static_cast<unsigned>(g.below(13));
  cfg.query_rate_hz = g.uniform(40, 140);
  cfg.leaf_service_ms = g.uniform(1.5, 5.0);
  cfg.service_sigma = g.uniform(0.2, 0.6);
  cfg.background_rate_hz = g.chance(0.2) ? 0 : g.uniform(10, 50);
  cfg.background_ms = g.uniform(1.0, 4.0);
  cfg.duration_s = g.uniform(1.0, 2.5);
  cfg.seed = g.next();
  cfg.goodput_window_s = g.chance(0.5) ? 0.25 : 0;
  cfg.net_latency_ms = net_latency_ms;
  if (net_latency_ms > 0) {
    cfg.leaf_groups = static_cast<unsigned>(g.below(cfg.leaves + 1));
  }

  switch (g.below(3)) {
    case 0:
      cfg.leaf_queue.discipline = des::QueueDiscipline::kFifo;
      break;
    case 1:
      cfg.leaf_queue.discipline = des::QueueDiscipline::kAdaptiveLifo;
      cfg.leaf_queue.lifo_threshold = 1 + g.below(4);
      break;
    default:
      cfg.leaf_queue.discipline = des::QueueDiscipline::kDeadline;
      cfg.leaf_queue.sojourn_target = g.uniform(10, 40);
      break;
  }
  if (g.chance(0.6)) cfg.leaf_queue.capacity = 2 + g.below(10);

  auto& f = cfg.faults;
  if (g.chance(0.6)) {
    f.enabled = true;
    f.leaf = {.mtbf_hours = g.uniform(5, 30) / 3600,
              .mttr_hours = g.uniform(0.1, 0.6) / 3600};
    if (g.chance(0.6)) {
      f.leaves_per_domain = 2 + static_cast<unsigned>(g.below(4));
      f.domain = {.mtbf_hours = g.uniform(3, 12) / 3600,
                  .mttr_hours = g.uniform(0.2, 0.6) / 3600};
    }
  }
  if (g.chance(0.5)) {
    f.burst_leaves = 1 + static_cast<unsigned>(g.below(cfg.leaves));
    f.burst_start_s = g.uniform(0.1, 0.6) * cfg.duration_s;
    f.burst_duration_s = g.uniform(0.1, 0.6);
  }

  auto& p = cfg.policy;
  if (g.chance(0.75)) {
    p.retry.timeout_ms = g.uniform(10, 40);
    p.retry.max_retries = static_cast<unsigned>(g.below(4));
  }
  if (g.chance(0.5)) {
    p.budget.enabled = true;
    p.budget.ratio = g.uniform(0.05, 0.3);
    p.budget.burst = g.uniform(5, 50);
  }
  if (g.chance(0.4)) p.hedge_after_ms = g.uniform(5, 25);
  if (g.chance(0.5)) {
    p.quorum = {.quorum_fraction = g.uniform(0.5, 0.95),
                .deadline_ms = g.uniform(30, 90)};
  }
  if (g.chance(0.4)) {
    p.admission.enabled = true;
    if (g.chance(0.7)) {
      p.admission.rate_qps = g.uniform(30, 120);
      p.admission.burst = g.uniform(2, 12);
    }
    if (p.admission.rate_qps == 0 || g.chance(0.5)) {
      p.admission.max_in_flight = 2 + static_cast<unsigned>(g.below(20));
    }
  }
  // Breakers and detection only see failures through timeouts, and
  // detection needs a quorum to close queries around evicted leaves.
  if (p.retry.timeout_ms > 0 && g.chance(0.5)) {
    p.breaker.enabled = true;
    p.breaker.min_samples = 4 + static_cast<unsigned>(g.below(6));
    p.breaker.open_ms = g.uniform(20, 80);
  }
  if (p.retry.timeout_ms > 0 && p.quorum.enabled() && g.chance(0.6)) {
    p.gray.enabled = true;
    p.gray.eval_interval_ms = g.uniform(50, 200);
    p.gray.evict_ms = g.uniform(200, 800);
    p.gray.adaptive_deadline = g.chance(0.5);
  }

  if (net_latency_ms > 0) return cfg;
  if (variant % 3 == 0) {
    auto& pc = cfg.powercap;
    pc.enabled = true;
    pc.policy = static_cast<cloud::PowercapPolicy>((variant / 3) % 4);
    pc.cap_fraction = g.uniform(0.55, 1.0);
    pc.window_s = g.uniform(0.1, 0.5);
    return cfg;
  }
  auto& gr = cfg.gray;
  if (variant % 3 == 2) {
    gr.enabled = true;
    gr.episode = {.mtbf_hours = g.uniform(3, 10) / 3600,
                  .mttr_hours = g.uniform(0.5, 2) / 3600};
  }
  const auto gray_mode = static_cast<reliab::GrayMode>((variant / 3) % 4);
  gr.burst_leaves = 1 + static_cast<unsigned>(g.below(cfg.leaves));
  gr.burst_start_s = g.uniform(0.1, 0.5) * cfg.duration_s;
  gr.burst_duration_s = g.uniform(0.2, 1.0);
  gr.burst_mode = gray_mode;
  switch (gray_mode) {
    case reliab::GrayMode::kSlow:
      gr.burst_severity = g.uniform(2, 8);
      break;
    case reliab::GrayMode::kLossy:
      gr.burst_severity = g.uniform(0.2, 1.0);
      break;
    case reliab::GrayMode::kZombie:
      break;
    case reliab::GrayMode::kJittery:
      gr.burst_severity = g.uniform(10, 80);
      break;
  }
  return cfg;
}

}  // namespace arch21::golden
