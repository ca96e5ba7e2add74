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

/// The serial engine with every fail-stop and client-policy feature on
/// at once: stochastic leaf faults with rack domains, a crash burst,
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

}  // namespace arch21::golden
