#include "cloud/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace arch21::cloud {

namespace {

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
  reliab::GrayTraceConfig gcfg = trace_config();
  gcfg.entities = 1;
  gcfg.validate();
}

reliab::GrayTraceConfig ClusterGrayConfig::trace_config() const {
  reliab::GrayTraceConfig gcfg;
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
  return gcfg;
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
    // zero-latency model runs on one kernel.
    bad("ClusterConfig", "workers > 0 requires net_latency_ms > 0");
  }
  if (leaf_groups > leaves) {
    bad("ClusterConfig", "leaf_groups must be <= leaves");
  }
  if (trace != nullptr && workers > 1) {
    // The trace ring is single-writer; with one worker the parallel
    // engine runs LP phases sequentially, so one ring still works.
    bad("ClusterConfig", "trace requires workers <= 1");
  }
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
    // The injection hooks live on the single-kernel transport; the
    // LP-sharded path rejects the config rather than silently ignoring
    // it.  (Gray DETECTION -- policy.gray -- runs on both transports.)
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

}  // namespace arch21::cloud
