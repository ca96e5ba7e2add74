// Tests for the resilience layer: seeded failure traces with failure
// domains, the availability-algebra wiring, the client-side policy
// engine (timeout / retry / budget / hedge / quorum), and the
// pool-size-independent multi-trial aggregator.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/policy.hpp"
#include "cloud/resilience.hpp"
#include "golden_digest.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "reliab/failure_trace.hpp"
#include "util/thread_pool.hpp"

namespace arch21 {
namespace {

using cloud::ClusterConfig;
using cloud::ClusterResult;
using reliab::FailureTraceConfig;

// ---------------------------------------------------------------- traces

TEST(FailureTrace, DeterministicAndSorted) {
  FailureTraceConfig cfg;
  cfg.leaves = 16;
  cfg.leaves_per_domain = 4;
  cfg.leaf = {.mtbf_hours = 10, .mttr_hours = 1};
  cfg.domain = {.mtbf_hours = 40, .mttr_hours = 2};
  cfg.horizon_hours = 200;
  cfg.seed = 7;
  const auto a = reliab::generate_failure_trace(cfg);
  const auto b = reliab::generate_failure_trace(cfg);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_GT(a.leaf_failures, 0u);
  EXPECT_GT(a.domain_failures, 0u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].t_hours, b.events[i].t_hours);
    EXPECT_EQ(a.events[i].entity, b.events[i].entity);
    EXPECT_EQ(a.events[i].up, b.events[i].up);
    if (i > 0) {
      EXPECT_GE(a.events[i].t_hours, a.events[i - 1].t_hours);
    }
  }
}

TEST(FailureTrace, MeasuredAvailabilityMatchesAlgebra) {
  // Long horizon: the measured up-fraction of the trace must converge to
  // the steady-state availability algebra (leaf in series with domain).
  FailureTraceConfig cfg;
  cfg.leaves = 24;
  cfg.leaves_per_domain = 8;
  cfg.leaf = {.mtbf_hours = 100, .mttr_hours = 3};
  cfg.domain = {.mtbf_hours = 400, .mttr_hours = 5};
  cfg.horizon_hours = 50'000;
  cfg.seed = 11;
  const auto trace = reliab::generate_failure_trace(cfg);
  const double measured = trace.measured_leaf_availability(cfg);
  const double predicted = cfg.predicted_leaf_availability();
  EXPECT_NEAR(measured, predicted, 0.01);
  // And domains matter: the same trace with domains ignored would be
  // strictly more available.
  EXPECT_LT(predicted, cfg.leaf.availability());
}

TEST(FailureTrace, DomainEventTakesDownWholeGroup) {
  // Leaves that never fail on their own, domains that do: every leaf's
  // downtime comes from its domain alone.
  FailureTraceConfig cfg;
  cfg.leaves = 12;
  cfg.leaves_per_domain = 6;
  cfg.leaf = {.mtbf_hours = 1e12, .mttr_hours = 1};
  cfg.domain = {.mtbf_hours = 50, .mttr_hours = 5};
  cfg.horizon_hours = 20'000;
  cfg.seed = 3;
  const auto trace = reliab::generate_failure_trace(cfg);
  EXPECT_EQ(trace.leaf_failures, 0u);
  EXPECT_GT(trace.domain_failures, 0u);
  EXPECT_NEAR(trace.measured_leaf_availability(cfg),
              cfg.domain.availability(), 0.02);
}

TEST(FailureTrace, ValidationNamesField) {
  FailureTraceConfig cfg;
  cfg.leaves = 0;
  try {
    reliab::generate_failure_trace(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("leaves"), std::string::npos);
  }
  cfg.leaves = 4;
  cfg.horizon_hours = 0;
  EXPECT_THROW(reliab::generate_failure_trace(cfg), std::invalid_argument);
  cfg.horizon_hours = 10;
  cfg.leaf.mtbf_hours = -1;
  EXPECT_THROW(reliab::generate_failure_trace(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------- policy

TEST(Policy, ValidationRejectsNonsense) {
  cloud::RetryPolicy r;
  r.timeout_ms = -1;
  EXPECT_THROW(r.validate(), std::invalid_argument);
  r = {};
  r.max_retries = 3;  // retries without a timeout can never trigger
  EXPECT_THROW(r.validate(), std::invalid_argument);
  r = {.timeout_ms = 10, .max_retries = 3, .backoff_mult = 0.5};
  EXPECT_THROW(r.validate(), std::invalid_argument);
  r = {.timeout_ms = 10, .jitter_frac = 1.5};
  EXPECT_THROW(r.validate(), std::invalid_argument);

  cloud::RetryBudget b{.enabled = true, .ratio = 0};
  EXPECT_THROW(b.validate(), std::invalid_argument);
  b = {.enabled = true, .ratio = 0.1, .burst = 0};
  EXPECT_THROW(b.validate(), std::invalid_argument);
  b = {.enabled = false, .ratio = -5};  // ignored while disabled
  EXPECT_NO_THROW(b.validate());

  cloud::QuorumPolicy q{.quorum_fraction = 0, .deadline_ms = 10};
  EXPECT_THROW(q.validate(), std::invalid_argument);
  q = {.quorum_fraction = 1.2};
  EXPECT_THROW(q.validate(), std::invalid_argument);
  q = {.quorum_fraction = 0.9, .deadline_ms = -2};
  EXPECT_THROW(q.validate(), std::invalid_argument);

  cloud::ResiliencePolicy p;
  p.hedge_after_ms = -3;
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Policy, BackoffGrowsExponentiallyWithBoundedJitter) {
  cloud::RetryPolicy r{.timeout_ms = 10,
                       .max_retries = 8,
                       .backoff_base_ms = 2,
                       .backoff_mult = 2,
                       .jitter_frac = 0.2};
  Rng rng(1);
  for (unsigned k = 0; k < 6; ++k) {
    const double nominal = 2.0 * std::pow(2.0, k);
    for (int i = 0; i < 50; ++i) {
      const double d = r.backoff_ms(k, rng);
      EXPECT_GE(d, nominal * 0.8);
      EXPECT_LE(d, nominal * 1.2);
    }
  }
}

TEST(Policy, BackoffNeverNegativeAcrossJitterSweep) {
  // Property sweep of the post-jitter clamp: whatever jitter_frac in
  // [0, 1) and whatever the draw, a backoff must never schedule into
  // the past, and must stay inside the nominal +/- jitter envelope.
  Rng rng(123);
  for (double jf : {0.0, 0.25, 0.5, 0.9, 0.999}) {
    cloud::RetryPolicy r{.timeout_ms = 10,
                         .max_retries = 4,
                         .backoff_base_ms = 0.5,
                         .backoff_mult = 3.0,
                         .jitter_frac = jf};
    ASSERT_NO_THROW(r.validate());
    for (unsigned k = 0; k < 5; ++k) {
      const double nominal = 0.5 * std::pow(3.0, k);
      for (int i = 0; i < 200; ++i) {
        const double d = r.backoff_ms(k, rng);
        EXPECT_GE(d, 0.0);
        EXPECT_GE(d, nominal * (1.0 - jf) - 1e-12);
        EXPECT_LE(d, nominal * (1.0 + jf) + 1e-12);
      }
    }
  }
}

// --------------------------------------------------- cluster + failures

ClusterConfig small_faulty_cluster() {
  ClusterConfig cfg;
  cfg.leaves = 20;
  cfg.duration_s = 6;
  cfg.query_rate_hz = 30;
  cfg.background_rate_hz = 20;
  cfg.background_ms = 2;
  cfg.seed = 42;
  cfg.faults.enabled = true;
  cfg.faults.leaf = {.mtbf_hours = 20.0 / 3600, .mttr_hours = 1.0 / 3600};
  cfg.faults.leaves_per_domain = 10;
  cfg.faults.domain = {.mtbf_hours = 60.0 / 3600, .mttr_hours = 2.0 / 3600};
  return cfg;
}

TEST(ClusterResilience, FaultInjectionLosesQueriesWithoutMitigation) {
  const auto cfg = small_faulty_cluster();
  const auto r = cloud::simulate_cluster(cfg);
  EXPECT_GT(r.leaf_failures + r.domain_failures, 0u);
  EXPECT_GT(r.lost_requests, 0u);
  EXPECT_GT(r.failed_queries, 0u);  // replies lost, no timeout to recover
  EXPECT_EQ(r.queries, r.ok_queries + r.degraded_queries + r.failed_queries);
  EXPECT_LT(r.availability_measured, 1.0);
  EXPECT_NEAR(r.availability_predicted,
              cfg.faults.leaf.availability() * cfg.faults.domain.availability(),
              1e-12);
  // No mitigation: every leaf request is a first attempt.
  EXPECT_EQ(r.retries, 0u);
  EXPECT_EQ(r.hedges, 0u);
  EXPECT_NEAR(r.retry_amplification, 1.0, 1e-9);
}

TEST(ClusterResilience, DeterministicUnderFaultsAndPolicies) {
  auto cfg = small_faulty_cluster();
  cfg.policy.retry.timeout_ms = 20;
  cfg.policy.retry.max_retries = 3;
  cfg.policy.budget.enabled = true;
  cfg.policy.hedge_after_ms = 25;
  cfg.policy.quorum = {.quorum_fraction = 0.9, .deadline_ms = 80};
  const auto a = cloud::simulate_cluster(cfg);
  const auto b = cloud::simulate_cluster(cfg);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.ok_queries, b.ok_queries);
  EXPECT_EQ(a.degraded_queries, b.degraded_queries);
  EXPECT_EQ(a.failed_queries, b.failed_queries);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.lost_requests, b.lost_requests);
  EXPECT_DOUBLE_EQ(a.query_ms.quantile(0.99), b.query_ms.quantile(0.99));
  EXPECT_DOUBLE_EQ(a.sum_result_quality, b.sum_result_quality);
}

TEST(ClusterResilience, RetriesRecoverGoodputLostToFailures) {
  auto cfg = small_faulty_cluster();
  const auto bare = cloud::simulate_cluster(cfg);
  cfg.policy.retry.timeout_ms = 15;
  cfg.policy.retry.max_retries = 4;
  const auto retried = cloud::simulate_cluster(cfg);
  EXPECT_GT(retried.retries, 0u);
  EXPECT_GT(retried.timeouts, 0u);
  EXPECT_GT(retried.goodput_qps, bare.goodput_qps * 1.2);
  EXPECT_LT(retried.failed_queries, bare.failed_queries);
}

TEST(ClusterResilience, RetryBudgetBoundsAmplification) {
  // Under load + failures, naive retries amplify backend load (each
  // timeout duplicates work, which raises queueing, which causes more
  // timeouts); the budget keeps amplification near 1 + ratio.
  auto cfg = small_faulty_cluster();
  cfg.query_rate_hz = 60;       // ~0.24 rho from queries alone
  cfg.background_rate_hz = 50;  // +0.25 rho of background
  cfg.background_ms = 5;
  cfg.policy.retry.timeout_ms = 6;  // near the sojourn p75: storms feed
  cfg.policy.retry.backoff_base_ms = 1;

  auto naive_cfg = cfg;
  naive_cfg.policy.retry.max_retries = 16;
  naive_cfg.policy.budget.enabled = false;
  const auto naive = cloud::simulate_cluster(naive_cfg);

  auto budget_cfg = cfg;
  budget_cfg.policy.retry.max_retries = 16;
  budget_cfg.policy.budget.enabled = true;
  budget_cfg.policy.budget.ratio = 0.1;
  budget_cfg.policy.budget.burst = 20;
  const auto budgeted = cloud::simulate_cluster(budget_cfg);

  EXPECT_GT(naive.retry_amplification, 1.2);
  EXPECT_GT(budgeted.budget_denials, 0u);
  EXPECT_LT(budgeted.retry_amplification, naive.retry_amplification);
  EXPECT_LT(budgeted.retry_amplification, 1.0 + 0.1 + 0.05);
}

TEST(ClusterResilience, QuorumDegradationTradesQualityForLatency) {
  // Independent (uncorrelated) leaf failures plus queueing stragglers:
  // without quorum, any query missing a reply fails outright and the
  // answered ones wait for the slowest leaf; with a 90% quorum at a
  // deadline, most of those come back degraded -- bounded quality loss
  // for a hard latency cap and much higher goodput.
  ClusterConfig cfg;
  cfg.leaves = 20;
  cfg.duration_s = 6;
  cfg.query_rate_hz = 30;
  cfg.background_rate_hz = 50;
  cfg.background_ms = 5;
  cfg.seed = 42;
  cfg.faults.enabled = true;
  cfg.faults.leaf = {.mtbf_hours = 30.0 / 3600, .mttr_hours = 1.0 / 3600};
  const auto full = cloud::simulate_cluster(cfg);
  ASSERT_GT(full.failed_queries, 0u);

  // Deadline between the full run's median and p99: strictly below the
  // undegraded tail, comfortably above typical completion.
  const double deadline =
      0.5 * (full.query_ms.quantile(0.5) + full.query_ms.quantile(0.99));
  auto qcfg = cfg;
  qcfg.policy.quorum = {.quorum_fraction = 0.9, .deadline_ms = deadline};
  const auto quorum = cloud::simulate_cluster(qcfg);

  EXPECT_GT(quorum.degraded_queries, 0u);
  EXPECT_LT(quorum.mean_result_quality(), 1.0);
  EXPECT_GT(quorum.mean_result_quality(), 0.9);  // bounded quality loss
  // Every answered query resolves by the deadline, so the p99 drops
  // below the undegraded tail.
  EXPECT_LE(quorum.query_ms.max_seen(), deadline + 1e-9);
  EXPECT_LT(quorum.query_ms.quantile(0.99), full.query_ms.quantile(0.99));
  // Degradation answers queries that would otherwise fail outright.
  EXPECT_GT(quorum.goodput_qps, full.goodput_qps * 1.2);
}

// ------------------------------------------------- multi-trial aggregate

TEST(ClusterTrials, BitIdenticalAcrossPoolSizes) {
  auto cfg = small_faulty_cluster();
  cfg.duration_s = 3;
  cfg.policy.retry.timeout_ms = 20;
  cfg.policy.retry.max_retries = 2;
  cfg.policy.quorum = {.quorum_fraction = 0.9, .deadline_ms = 80};

  ThreadPool p1(1);
  ThreadPool p2(2);
  ThreadPool p4(4);
  const auto a = cloud::run_cluster_trials(cfg, 6, &p1);
  const auto b = cloud::run_cluster_trials(cfg, 6, &p2);
  const auto c = cloud::run_cluster_trials(cfg, 6, &p4);

  EXPECT_EQ(a.trials, 6u);
  for (const auto* r : {&b, &c}) {
    EXPECT_EQ(a.queries, r->queries);
    EXPECT_EQ(a.ok_queries, r->ok_queries);
    EXPECT_EQ(a.degraded_queries, r->degraded_queries);
    EXPECT_EQ(a.failed_queries, r->failed_queries);
    EXPECT_EQ(a.retries, r->retries);
    EXPECT_EQ(a.lost_requests, r->lost_requests);
    EXPECT_EQ(a.query_ms.count(), r->query_ms.count());
    EXPECT_DOUBLE_EQ(a.query_ms.quantile(0.5), r->query_ms.quantile(0.5));
    EXPECT_DOUBLE_EQ(a.query_ms.quantile(0.99), r->query_ms.quantile(0.99));
    EXPECT_DOUBLE_EQ(a.sum_result_quality, r->sum_result_quality);
    EXPECT_DOUBLE_EQ(a.goodput_qps, r->goodput_qps);
    EXPECT_DOUBLE_EQ(a.availability_measured, r->availability_measured);
    EXPECT_DOUBLE_EQ(a.retry_amplification, r->retry_amplification);
  }
}

// PR4 contract: observability is read-only.  Enabling the global metrics
// registry (and, for a single trial, attaching a trace) must leave every
// aggregate byte-identical to the uninstrumented run, at every pool size.
TEST(ClusterTrials, MetricsDoNotPerturbResultsAtAnyPoolSize) {
  auto cfg = small_faulty_cluster();
  cfg.duration_s = 3;
  cfg.policy.retry.timeout_ms = 20;
  cfg.policy.retry.max_retries = 2;
  cfg.policy.hedge_after_ms = 25;
  cfg.policy.quorum = {.quorum_fraction = 0.9, .deadline_ms = 80};

  ThreadPool p1(1);
  const auto base = cloud::run_cluster_trials(cfg, 6, &p1);

  auto& m = obs::MetricsRegistry::global();
  m.set_enabled(true);
  std::vector<cloud::ClusterResult> instrumented;
  for (std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    instrumented.push_back(cloud::run_cluster_trials(cfg, 6, &pool));
  }
  m.set_enabled(false);

  for (const auto& r : instrumented) {
    EXPECT_EQ(base.queries, r.queries);
    EXPECT_EQ(base.ok_queries, r.ok_queries);
    EXPECT_EQ(base.degraded_queries, r.degraded_queries);
    EXPECT_EQ(base.failed_queries, r.failed_queries);
    EXPECT_EQ(base.retries, r.retries);
    EXPECT_EQ(base.hedges, r.hedges);
    EXPECT_EQ(base.timeouts, r.timeouts);
    EXPECT_EQ(base.lost_requests, r.lost_requests);
    EXPECT_EQ(base.budget_denials, r.budget_denials);
    EXPECT_EQ(base.query_ms.count(), r.query_ms.count());
    EXPECT_DOUBLE_EQ(base.query_ms.quantile(0.5), r.query_ms.quantile(0.5));
    EXPECT_DOUBLE_EQ(base.query_ms.quantile(0.99), r.query_ms.quantile(0.99));
    EXPECT_DOUBLE_EQ(base.sum_result_quality, r.sum_result_quality);
    EXPECT_DOUBLE_EQ(base.goodput_qps, r.goodput_qps);
    EXPECT_DOUBLE_EQ(base.retry_amplification, r.retry_amplification);
  }
}

TEST(ClusterTrials, TracedSingleTrialMatchesUntraced) {
  auto cfg = small_faulty_cluster();
  cfg.duration_s = 3;
  cfg.policy.retry.timeout_ms = 20;
  cfg.policy.quorum = {.quorum_fraction = 0.9, .deadline_ms = 80};
  const auto plain = cloud::simulate_cluster(cfg);

  obs::TraceBuffer trace(std::size_t{1} << 18, 1e3);
  auto traced_cfg = cfg;
  traced_cfg.trace = &trace;
  const auto traced = cloud::simulate_cluster(traced_cfg);

  EXPECT_GT(trace.size(), 0u);
  EXPECT_EQ(plain.queries, traced.queries);
  EXPECT_EQ(plain.ok_queries, traced.ok_queries);
  EXPECT_EQ(plain.degraded_queries, traced.degraded_queries);
  EXPECT_EQ(plain.failed_queries, traced.failed_queries);
  EXPECT_EQ(plain.lost_requests, traced.lost_requests);
  EXPECT_DOUBLE_EQ(plain.query_ms.quantile(0.99),
                   traced.query_ms.quantile(0.99));
  EXPECT_DOUBLE_EQ(plain.sum_result_quality, traced.sum_result_quality);
}

TEST(ClusterTrials, AggregatesAndValidates) {
  ClusterConfig cfg;
  cfg.leaves = 8;
  cfg.duration_s = 2;
  cfg.query_rate_hz = 20;
  const auto agg = cloud::run_cluster_trials(cfg, 3);
  EXPECT_EQ(agg.trials, 3u);
  EXPECT_GT(agg.queries, 0u);
  EXPECT_THROW(cloud::run_cluster_trials(cfg, 0), std::invalid_argument);
}

// ---------------------------------------------------------- golden pins

// Every fail-stop fault and client-policy feature of the zero-latency
// model at once, pinned to the digest recorded before the client-policy
// core was shared across engines (tests/golden_digest.hpp).  Never
// re-record it to make a refactor pass.
TEST(GoldenDigest, SerialFullStack) {
  const auto r = cloud::simulate_cluster(golden::full_stack_config());
  // Every layer the pin claims to cover actually engaged.
  EXPECT_GT(r.domain_failures, 0u);
  EXPECT_GT(r.lost_requests, 0u);
  EXPECT_GT(r.retries, 0u);
  EXPECT_GT(r.budget_denials, 0u);
  EXPECT_GT(r.hedges, 0u);
  EXPECT_GT(r.degraded_queries, 0u);
  EXPECT_GT(r.shed_queries, 0u);
  EXPECT_GT(r.breaker_open_transitions, 0u);
  EXPECT_GT(r.breaker_short_circuits, 0u);
  EXPECT_GT(r.rejected_requests + r.expired_drops, 0u);
  EXPECT_EQ(golden::digest(r), 0x5a9bccb158d1b654ULL);
}

// The same run with a trace ring attached and the metrics registry on:
// results keep the untraced pin, and the published cluster.* / des.* /
// slab.* metrics and the trace record count are pinned too, so moving
// the client's observability hooks cannot silently drop or duplicate one.
TEST(GoldenDigest, SerialFullStackTracedAndMetered) {
  auto& m = obs::MetricsRegistry::global();
  m.reset();
  m.set_enabled(true);
  obs::TraceBuffer trace(std::size_t{1} << 20, 1e3);
  auto cfg = golden::full_stack_config();
  cfg.trace = &trace;
  const auto r = cloud::simulate_cluster(cfg);
  m.set_enabled(false);
  EXPECT_EQ(golden::digest(r), 0x5a9bccb158d1b654ULL);

  // Registration order depends on which tests ran first; sort by name.
  auto entries = m.snapshot().entries;
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  // des.refits / des.refit_moves / des.spliced count ladder geometry
  // work, which kernel tuning may change without changing any result,
  // so they stay out of the pin.  Each re-fit emits one des.refit trace
  // instant on top of the pinned record count.
  golden::Digest g;
  std::uint64_t refits = 0;
  for (const auto& e : entries) {
    if (e.name == "des.refits") refits = e.count;
    if (e.name.rfind("des.refit", 0) == 0 || e.name == "des.spliced") {
      continue;
    }
    if (e.name.rfind("cluster.", 0) != 0 && e.name.rfind("des.", 0) != 0 &&
        e.name.rfind("slab.", 0) != 0) {
      continue;
    }
    if (e.count == 0 && e.value == 0) continue;  // registered by another test
    for (const char c : e.name) g.u(static_cast<unsigned char>(c));
    g.u(e.count).d(e.value);
    if (e.hist.count() > 0) g.hist(e.hist);
  }
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_EQ(trace.size(), 38162u + refits);
  EXPECT_EQ(g.value(), 0xe7f300da121d3b3eULL);
  m.reset();
}

}  // namespace
}  // namespace arch21
