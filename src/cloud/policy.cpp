#include "cloud/policy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"

namespace arch21::cloud {

namespace {

[[noreturn]] void bad(const char* strct, const char* field) {
  throw std::invalid_argument(std::string(strct) + "::" + field);
}

}  // namespace

double RetryPolicy::backoff_ms(unsigned retry_index, Rng& rng) const {
  const double base =
      backoff_base_ms * std::pow(backoff_mult, static_cast<double>(retry_index));
  // Clamp after jitter: validate() keeps jitter_frac < 1, so the product
  // stays positive in exact arithmetic, but the clamp makes "never
  // schedule into the past" unconditional (jitter_frac at the top of its
  // range leaves delays within rounding of zero).
  const double delay =
      std::max(0.0, base * (1.0 + jitter_frac * rng.uniform(-1.0, 1.0)));
  auto& m = obs::MetricsRegistry::global();
  if (m.enabled()) {
    // Registration is idempotent; the id lookup is mutex-protected but
    // retries are rare by design (the budget bounds them), so this stays
    // off the per-request hot path.
    m.record(m.timer("policy.backoff_ms", 1e-2, 1e5, 30), delay);
  }
  return delay;
}

void RetryPolicy::validate() const {
  if (timeout_ms < 0) bad("RetryPolicy", "timeout_ms must be >= 0");
  if (max_retries > 0 && timeout_ms == 0) {
    bad("RetryPolicy", "max_retries requires timeout_ms > 0");
  }
  if (backoff_base_ms < 0) bad("RetryPolicy", "backoff_base_ms must be >= 0");
  if (backoff_mult < 1.0) bad("RetryPolicy", "backoff_mult must be >= 1");
  if (jitter_frac < 0 || jitter_frac >= 1.0) {
    bad("RetryPolicy", "jitter_frac must be in [0, 1)");
  }
}

void RetryBudget::validate() const {
  if (!enabled) return;
  if (ratio <= 0) bad("RetryBudget", "ratio must be > 0 when enabled");
  if (burst < 1.0) bad("RetryBudget", "burst must be >= 1 when enabled");
}

void QuorumPolicy::validate() const {
  if (deadline_ms < 0) bad("QuorumPolicy", "deadline_ms must be >= 0");
  if (quorum_fraction <= 0 || quorum_fraction > 1.0) {
    bad("QuorumPolicy", "quorum_fraction must be in (0, 1]");
  }
}

void AdmissionPolicy::validate() const {
  if (!enabled) return;
  if (rate_qps < 0) bad("AdmissionPolicy", "rate_qps must be >= 0");
  if (rate_qps > 0 && burst < 1.0) {
    bad("AdmissionPolicy", "burst must be >= 1 when rate_qps > 0");
  }
  if (rate_qps == 0 && max_in_flight == 0) {
    bad("AdmissionPolicy",
        "enabled admission needs rate_qps > 0 or max_in_flight > 0");
  }
}

void CircuitBreakerPolicy::validate() const {
  if (!enabled) return;
  if (window < 1 || window > 64) {
    bad("CircuitBreakerPolicy", "window must be in [1, 64]");
  }
  if (failure_threshold <= 0 || failure_threshold > 1.0) {
    bad("CircuitBreakerPolicy", "failure_threshold must be in (0, 1]");
  }
  if (min_samples < 1 || min_samples > window) {
    bad("CircuitBreakerPolicy", "min_samples must be in [1, window]");
  }
  if (!(open_ms > 0)) bad("CircuitBreakerPolicy", "open_ms must be > 0");
  if (open_jitter_frac < 0 || open_jitter_frac >= 1.0) {
    bad("CircuitBreakerPolicy", "open_jitter_frac must be in [0, 1)");
  }
  if (half_open_probes < 1) {
    bad("CircuitBreakerPolicy", "half_open_probes must be >= 1");
  }
}

void GrayDetectionPolicy::validate() const {
  if (!enabled) return;
  if (!(eval_interval_ms > 0) || !std::isfinite(eval_interval_ms)) {
    bad("GrayDetectionPolicy", "eval_interval_ms must be finite and > 0");
  }
  if (!(ewma_alpha > 0) || ewma_alpha > 1.0) {
    bad("GrayDetectionPolicy", "ewma_alpha must be in (0, 1]");
  }
  if (min_samples < 1) {
    bad("GrayDetectionPolicy", "min_samples must be >= 1");
  }
  if (!(outlier_factor > 1)) {
    bad("GrayDetectionPolicy", "outlier_factor must be > 1");
  }
  if (!(floor_ms >= 0)) bad("GrayDetectionPolicy", "floor_ms must be >= 0");
  if (outlier_strikes < 1) {
    bad("GrayDetectionPolicy", "outlier_strikes must be >= 1");
  }
  if (evict && !(evict_ms > 0)) {
    bad("GrayDetectionPolicy", "evict_ms must be > 0 when evict is set");
  }
  if (probation_samples < 1) {
    bad("GrayDetectionPolicy", "probation_samples must be >= 1");
  }
  if (!(reply_rate_floor >= 0) || reply_rate_floor > 1.0) {
    bad("GrayDetectionPolicy", "reply_rate_floor must be in [0, 1]");
  }
  if (min_rate_sends < 1) {
    bad("GrayDetectionPolicy", "min_rate_sends must be >= 1");
  }
  if (zombie_strikes < 1) {
    bad("GrayDetectionPolicy", "zombie_strikes must be >= 1");
  }
  if (adaptive_deadline) {
    if (!(deadline_factor > 0) || !std::isfinite(deadline_factor)) {
      bad("GrayDetectionPolicy", "deadline_factor must be finite and > 0");
    }
    if (!(deadline_min_ms > 0)) {
      bad("GrayDetectionPolicy", "deadline_min_ms must be > 0");
    }
    if (min_window_samples < 1) {
      bad("GrayDetectionPolicy", "min_window_samples must be >= 1");
    }
  }
}

void ResiliencePolicy::validate() const {
  retry.validate();
  budget.validate();
  if (!(hedge_after_ms >= 0)) {
    bad("ResiliencePolicy", "hedge_after_ms must be >= 0");
  }
  quorum.validate();
  admission.validate();
  breaker.validate();
  gray.validate();
  if (breaker.enabled && retry.timeout_ms == 0) {
    // Failures reach the breaker only through timeouts; without them the
    // window never records a failure and the breaker is dead weight.
    bad("ResiliencePolicy", "breaker requires retry.timeout_ms > 0");
  }
  if (gray.enabled && retry.timeout_ms == 0) {
    // The adaptive deadline replaces the fixed timeout; with timeouts off
    // there is nothing to adapt and zombie sends would dangle forever.
    bad("ResiliencePolicy", "gray detection requires retry.timeout_ms > 0");
  }
  if (gray.enabled && !quorum.enabled()) {
    // Eviction down-weights replicas to zero traffic; only quorum-based
    // degradation lets queries close without every leaf's reply.
    bad("ResiliencePolicy", "gray detection requires an enabled quorum");
  }
}

}  // namespace arch21::cloud
