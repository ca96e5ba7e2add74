#include "cloud/resilience.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "cloud/trials.hpp"

namespace arch21::cloud {

ClusterResult run_cluster_trials(const ClusterConfig& cfg, unsigned trials,
                                 ThreadPool* pool) {
  if (cfg.workers > 0) {
    // Trials already parallelize across the pool; nesting a PDES worker
    // pool inside each trial would oversubscribe it.  Shard ACROSS
    // trials here, or WITHIN one big scenario via cfg.workers -- not
    // both.
    throw std::invalid_argument(
        "run_cluster_trials: cfg.workers must be 0 (trials are the "
        "parallelism axis here)");
  }
  if (cfg.trace) {
    // One TraceBuffer cannot absorb trials running concurrently on the
    // pool (the ring is single-writer); trace a single simulate_cluster()
    // call instead.
    throw std::invalid_argument(
        "run_cluster_trials: cfg.trace is only valid for a single "
        "simulate_cluster() run");
  }
  return run_trials(cfg, trials, pool, simulate_cluster);
}

ScenarioResult run_scenario(std::string name, const ClusterConfig& cfg,
                            unsigned trials, ThreadPool* pool) {
  return ScenarioResult{std::move(name), cfg,
                        run_cluster_trials(cfg, trials, pool)};
}

std::vector<ScenarioResult> resilience_scenarios(const ClusterConfig& base,
                                                 unsigned trials,
                                                 const ScenarioPolicies& knobs,
                                                 ThreadPool* pool) {
  std::vector<ScenarioResult> out;

  ClusterConfig baseline = base;
  baseline.faults.enabled = false;
  baseline.policy = {};
  out.push_back(run_scenario("baseline (no faults)", baseline, trials, pool));

  ClusterConfig injected = base;
  injected.faults.enabled = true;
  injected.policy = {};
  out.push_back(run_scenario("failures, no mitigation", injected, trials,
                             pool));

  ClusterConfig naive = injected;
  naive.policy.retry.timeout_ms = knobs.timeout_ms;
  naive.policy.retry.max_retries = knobs.naive_max_retries;
  naive.policy.budget.enabled = false;
  out.push_back(run_scenario("naive retries (no budget)", naive, trials,
                             pool));

  ClusterConfig budgeted = injected;
  budgeted.policy.retry.timeout_ms = knobs.timeout_ms;
  budgeted.policy.retry.max_retries = knobs.budget_max_retries;
  budgeted.policy.budget.enabled = true;
  budgeted.policy.budget.ratio = knobs.budget_ratio;
  out.push_back(run_scenario("retry budget", budgeted, trials, pool));

  ClusterConfig hedged = budgeted;
  hedged.policy.hedge_after_ms = knobs.hedge_after_ms;
  out.push_back(run_scenario("budget + hedging", hedged, trials, pool));

  ClusterConfig quorum = hedged;
  quorum.policy.quorum.quorum_fraction = knobs.quorum_fraction;
  quorum.policy.quorum.deadline_ms = knobs.quorum_deadline_ms;
  out.push_back(
      run_scenario("budget + hedge + quorum", quorum, trials, pool));

  return out;
}

std::vector<ScenarioResult> overload_scenarios(const ClusterConfig& base,
                                               unsigned trials,
                                               const OverloadPolicies& knobs,
                                               ThreadPool* pool) {
  // Every rung shares the naive client so rungs 1-2 isolate the bounded
  // queue; the quorum deadline guarantees each query closes, which the
  // admission concurrency gate (rung 3+) relies on.
  ClusterConfig unprotected = base;
  unprotected.policy.retry.timeout_ms = knobs.timeout_ms;
  unprotected.policy.retry.max_retries = knobs.naive_max_retries;
  unprotected.policy.budget.enabled = false;
  unprotected.policy.quorum.quorum_fraction = knobs.quorum_fraction;
  unprotected.policy.quorum.deadline_ms = knobs.quorum_deadline_ms;
  unprotected.leaf_queue = {};  // unbounded FIFO

  std::vector<ScenarioResult> out;
  out.push_back(
      run_scenario("unprotected (unbounded FIFO)", unprotected, trials, pool));

  ClusterConfig bounded = unprotected;
  bounded.leaf_queue.capacity = knobs.queue_capacity;
  bounded.leaf_queue.discipline = des::QueueDiscipline::kDeadline;
  bounded.leaf_queue.sojourn_target = knobs.sojourn_target_ms;
  out.push_back(
      run_scenario("bounded queue + deadline drop", bounded, trials, pool));

  ClusterConfig admitted = bounded;
  admitted.policy.retry.max_retries = knobs.protected_max_retries;
  admitted.policy.budget.enabled = true;
  admitted.policy.budget.ratio = knobs.budget_ratio;
  admitted.policy.admission.enabled = true;
  admitted.policy.admission.rate_qps =
      knobs.admission_rate_frac * base.query_rate_hz;
  admitted.policy.admission.max_in_flight =
      knobs.max_in_flight > 0
          ? knobs.max_in_flight
          : static_cast<unsigned>(2.0 * base.query_rate_hz *
                                  knobs.quorum_deadline_ms / 1000.0) +
                1;
  out.push_back(
      run_scenario("+ admission + retry budget", admitted, trials, pool));

  ClusterConfig breakered = admitted;
  breakered.policy.breaker.enabled = true;
  out.push_back(
      run_scenario("+ circuit breakers", breakered, trials, pool));

  return out;
}

std::vector<ScenarioResult> grayfail_scenarios(const ClusterConfig& base,
                                               unsigned trials,
                                               const GrayfailPolicies& knobs,
                                               ThreadPool* pool) {
  // Every rung carries the full E29 fail-stop stack, so rungs 2-4 cannot
  // be accused of losing to the burst for lack of fail-stop protection.
  ClusterConfig prot = base;
  prot.policy.retry.timeout_ms = knobs.timeout_ms;
  prot.policy.retry.max_retries = knobs.max_retries;
  prot.policy.budget.enabled = true;
  prot.policy.budget.ratio = knobs.budget_ratio;
  prot.policy.quorum.quorum_fraction = knobs.quorum_fraction;
  prot.policy.quorum.deadline_ms = knobs.quorum_deadline_ms;
  prot.policy.admission.enabled = true;
  prot.policy.admission.rate_qps =
      knobs.admission_rate_frac * base.query_rate_hz;
  prot.policy.admission.max_in_flight =
      knobs.max_in_flight > 0
          ? knobs.max_in_flight
          : static_cast<unsigned>(2.0 * base.query_rate_hz *
                                  knobs.quorum_deadline_ms / 1000.0) +
                1;
  prot.policy.breaker.enabled = true;
  prot.leaf_queue.capacity = knobs.queue_capacity;
  prot.leaf_queue.discipline = des::QueueDiscipline::kDeadline;
  prot.leaf_queue.sojourn_target = knobs.sojourn_target_ms;

  std::vector<ScenarioResult> out;

  ClusterConfig control = prot;
  control.gray = {};  // same stack, nothing gray to contain
  out.push_back(run_scenario("control (no gray burst)", control, trials,
                             pool));

  out.push_back(run_scenario("fail-stop ladder (E29)", prot, trials, pool));

  ClusterConfig deadline_only = prot;
  deadline_only.policy.gray = knobs.gray;
  deadline_only.policy.gray.enabled = true;
  deadline_only.policy.gray.evict = false;
  out.push_back(
      run_scenario("+ adaptive deadline", deadline_only, trials, pool));

  ClusterConfig adaptive = prot;
  adaptive.policy.gray = knobs.gray;
  adaptive.policy.gray.enabled = true;
  adaptive.policy.gray.evict = true;
  out.push_back(
      run_scenario("+ eviction + probation", adaptive, trials, pool));

  return out;
}

ClusterConfig power_rung_config(const ClusterConfig& base,
                                const PowerLadderPolicies& knobs,
                                double cap_fraction, PowercapPolicy policy) {
  const OverloadPolicies& ov = knobs.overload;
  ClusterConfig cfg = base;
  // The E29 unprotected client (overload_scenarios rung 1): tight
  // timeout, naive unbudgeted retries, a quorum deadline so every query
  // closes, unbounded FIFO leaves.  The power ladder varies ONLY how the
  // cap is spent -- the cap-aware governor's root shedding is the sole
  // protection in play, which is exactly the comparison E33 wants.
  cfg.policy.retry.timeout_ms = ov.timeout_ms;
  cfg.policy.retry.max_retries = ov.naive_max_retries;
  cfg.policy.budget.enabled = false;
  cfg.policy.quorum.quorum_fraction = ov.quorum_fraction;
  cfg.policy.quorum.deadline_ms = ov.quorum_deadline_ms;
  cfg.leaf_queue = {};  // unbounded FIFO
  cfg.powercap = knobs.powercap;
  cfg.powercap.enabled = true;
  cfg.powercap.cap_fraction = cap_fraction;
  cfg.powercap.policy = policy;
  return cfg;
}

std::vector<ScenarioResult> power_scenarios(const ClusterConfig& base,
                                            unsigned trials,
                                            const PowerLadderPolicies& knobs,
                                            ThreadPool* pool) {
  std::vector<ScenarioResult> out;
  // Uncapped reference: same protection, power model off entirely (this
  // is the config whose results must stay byte-identical to pre-powercap
  // builds).
  ClusterConfig uncapped =
      power_rung_config(base, knobs, 1.0, PowercapPolicy::kGovernor);
  uncapped.powercap = PowercapConfig{};
  out.push_back(run_scenario("uncapped", uncapped, trials, pool));

  auto pct = [](double f) {
    return std::to_string(static_cast<int>(std::lround(f * 100)));
  };
  for (std::size_t i = 0; i < knobs.cap_fractions.size(); ++i) {
    const double cap = knobs.cap_fractions[i];
    const std::string tag = "cap " + pct(cap) + "% ";
    out.push_back(run_scenario(
        tag + "uniform",
        power_rung_config(base, knobs, cap, PowercapPolicy::kUniform),
        trials, pool));
    if (i == 0) {
      // Where the budget binds hardest, compare all four policies.
      out.push_back(run_scenario(
          tag + "pace",
          power_rung_config(base, knobs, cap, PowercapPolicy::kPace), trials,
          pool));
      out.push_back(run_scenario(
          tag + "race-to-idle",
          power_rung_config(base, knobs, cap, PowercapPolicy::kRaceToIdle),
          trials, pool));
    }
    out.push_back(run_scenario(
        tag + "governor",
        power_rung_config(base, knobs, cap, PowercapPolicy::kGovernor),
        trials, pool));
  }
  return out;
}

namespace {

/// answered_per_window as a window -> count callable for
/// windowed_mean_qps; windows past the recorded series count as zeros.
auto answered_count(const ClusterResult& r) {
  return [&win = r.answered_per_window](std::size_t i) {
    return i < win.size() ? static_cast<double>(win[i]) : 0.0;
  };
}

}  // namespace

GrayContainment gray_containment(const ClusterResult& r,
                                 const ClusterConfig& cfg, double settle_s) {
  GrayContainment c;
  const double w = cfg.goodput_window_s;
  if (w <= 0 || !cfg.gray.burst_enabled()) return c;
  auto mean_over = [&](std::size_t begin, std::size_t end) {
    return windowed_mean_qps(begin, end, w, r.trials, answered_count(r));
  };

  const double t0 = cfg.gray.burst_start_s;
  const double t1 = t0 + cfg.gray.burst_duration_s;
  // Complete windows strictly before the burst; window 0 is warmup.
  c.pre_qps = mean_over(1, static_cast<std::size_t>(t0 / w));
  // Complete windows inside the burst, past the onset settle (detection
  // needs a few eval intervals to converge -- the settle excludes the
  // transient both ladders pay, leaving the steady burst regime).
  c.during_qps =
      mean_over(static_cast<std::size_t>(std::ceil((t0 + settle_s) / w)),
                static_cast<std::size_t>(t1 / w));
  // Complete windows inside the horizon, after the burst plus settle.
  c.post_qps =
      mean_over(static_cast<std::size_t>(std::ceil((t1 + settle_s) / w)),
                static_cast<std::size_t>(cfg.duration_s / w));
  return c;
}

GoodputHysteresis goodput_hysteresis(const ClusterResult& r,
                                     const ClusterConfig& cfg,
                                     double settle_s) {
  GoodputHysteresis h;
  const double w = cfg.goodput_window_s;
  if (w <= 0 || !cfg.faults.burst_enabled()) return h;
  const auto count = answered_count(r);

  // Complete windows strictly before the burst; window 0 is warmup.
  h.pre_qps = windowed_mean_qps(
      1, static_cast<std::size_t>(cfg.faults.burst_start_s / w), w, r.trials,
      count);
  // Complete windows inside the horizon, after the burst plus settle.
  const auto post_begin = static_cast<std::size_t>(
      std::ceil((cfg.faults.burst_start_s + cfg.faults.burst_duration_s +
                 settle_s) /
                w));
  h.post_qps = windowed_mean_qps(
      post_begin, static_cast<std::size_t>(cfg.duration_s / w), w, r.trials,
      count);
  return h;
}

}  // namespace arch21::cloud
