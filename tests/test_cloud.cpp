// Tests for queueing theory (Erlang-C vs DES), the cluster simulator
// with queueing interference and hedging, and warehouse power modeling.

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "cloud/cluster.hpp"
#include "cloud/power.hpp"
#include "cloud/qos.hpp"
#include "cloud/queueing.hpp"

namespace arch21::cloud {
namespace {

TEST(Mmk, SingleServerReducesToMm1) {
  // M/M/1: p_wait = rho, E[T] = 1/(mu - lambda).
  const auto r = mmk(0.5, 1.0, 1);
  EXPECT_TRUE(r.stable);
  EXPECT_NEAR(r.rho, 0.5, 1e-12);
  EXPECT_NEAR(r.p_wait, 0.5, 1e-9);
  EXPECT_NEAR(r.mean_sojourn, 2.0, 1e-9);
}

TEST(Mmk, UnstableWhenOverloaded) {
  const auto r = mmk(3.0, 1.0, 2);
  EXPECT_FALSE(r.stable);
  EXPECT_TRUE(std::isinf(r.mean_wait));
  EXPECT_EQ(r.p_wait, 1.0);
}

TEST(Mmk, PoolingBeatsPartitioning) {
  // One fast queue vs k slow queues: M/M/k at the same total capacity has
  // less waiting than M/M/1 per partition.
  const auto pooled = mmk(8.0, 1.0, 10);
  const auto partition = mmk(0.8, 1.0, 1);
  EXPECT_LT(pooled.mean_wait, partition.mean_wait);
}

TEST(Mmk, WaitExplodesNearSaturation) {
  const double near = mmk(0.95, 1.0, 1).mean_wait;
  const double far = mmk(0.5, 1.0, 1).mean_wait;
  EXPECT_GT(near / far, 10.0);
}

TEST(Mmk, ParameterValidation) {
  EXPECT_THROW(mmk(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(mmk(1, 0, 1), std::invalid_argument);
  EXPECT_THROW(mmk(1, 1, 0), std::invalid_argument);
}

TEST(Mmk, DesMatchesErlangC) {
  for (unsigned k : {1u, 4u}) {
    const double lambda = 0.7 * k;
    const auto analytic = mmk(lambda, 1.0, k);
    const double sim = simulate_mmk_sojourn(lambda, 1.0, k, 80000, 5);
    EXPECT_NEAR(sim / analytic.mean_sojourn, 1.0, 0.08) << "k=" << k;
  }
}

TEST(Cluster, RunsAndCollectsQueries) {
  ClusterConfig cfg;
  cfg.leaves = 20;
  cfg.duration_s = 5;
  cfg.query_rate_hz = 40;
  const auto r = simulate_cluster(cfg);
  EXPECT_GT(r.queries, 100u);
  EXPECT_GT(r.query_ms.count(), 0u);
  EXPECT_GT(r.mean_leaf_utilization, 0.05);
  EXPECT_LT(r.mean_leaf_utilization, 1.0);
  // Fan-out max >= individual leaf latencies.
  EXPECT_GE(r.query_ms.quantile(0.5), r.leaf_ms.quantile(0.5));
}

TEST(Cluster, QueueingInflatesTailBeyondServiceTime) {
  ClusterConfig cfg;
  cfg.leaves = 30;
  cfg.duration_s = 8;
  cfg.query_rate_hz = 60;
  cfg.background_rate_hz = 100;  // heavy interference
  cfg.background_ms = 5;
  const auto r = simulate_cluster(cfg);
  // p99 of the fan-out query far exceeds the mean service time.
  EXPECT_GT(r.query_ms.quantile(0.99), cfg.leaf_service_ms * 4);
}

TEST(Cluster, HedgingCutsTailUnderInterference) {
  ClusterConfig cfg;
  cfg.leaves = 30;
  cfg.duration_s = 8;
  cfg.query_rate_hz = 30;
  cfg.background_rate_hz = 60;
  cfg.background_ms = 6;
  const auto base = simulate_cluster(cfg);
  cfg.policy.hedge_after_ms = 20;
  const auto hedged = simulate_cluster(cfg);
  EXPECT_LT(hedged.query_ms.quantile(0.99),
            base.query_ms.quantile(0.99) * 0.9);
  EXPECT_GT(hedged.hedge_fraction, 0.0);
  EXPECT_LT(hedged.hedge_fraction, 0.5);
}

TEST(Cluster, ValidationRejectsBadConfigByName) {
  ClusterConfig cfg;
  cfg.leaves = 0;
  try {
    simulate_cluster(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ClusterConfig"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("leaves"), std::string::npos);
  }
  cfg = {};
  cfg.query_rate_hz = 0;
  EXPECT_THROW(simulate_cluster(cfg), std::invalid_argument);
  cfg = {};
  cfg.leaf_service_ms = -1;
  EXPECT_THROW(simulate_cluster(cfg), std::invalid_argument);
  cfg = {};
  cfg.background_rate_hz = -5;
  EXPECT_THROW(simulate_cluster(cfg), std::invalid_argument);
  cfg = {};
  cfg.duration_s = 0;
  EXPECT_THROW(simulate_cluster(cfg), std::invalid_argument);
  cfg = {};
  cfg.policy.hedge_after_ms = -1;
  EXPECT_THROW(simulate_cluster(cfg), std::invalid_argument);
  // Nested fault / policy structs are validated through the top level.
  cfg = {};
  cfg.faults.enabled = true;
  cfg.faults.leaf.mtbf_hours = 0;
  EXPECT_THROW(simulate_cluster(cfg), std::invalid_argument);
  cfg = {};
  cfg.faults.enabled = true;
  cfg.faults.leaves_per_domain = 7;
  cfg.faults.domain.mttr_hours = -1;
  EXPECT_THROW(simulate_cluster(cfg), std::invalid_argument);
  cfg = {};
  cfg.policy.retry.timeout_ms = -2;
  EXPECT_THROW(simulate_cluster(cfg), std::invalid_argument);
  // Disabled faults skip fault-field validation (cheap configs stay valid).
  cfg = {};
  cfg.faults.enabled = false;
  cfg.faults.leaf.mtbf_hours = 0;
  cfg.duration_s = 0.5;
  EXPECT_NO_THROW(simulate_cluster(cfg));
}

TEST(Cluster, DeterministicForSeed) {
  ClusterConfig cfg;
  cfg.leaves = 10;
  cfg.duration_s = 3;
  const auto a = simulate_cluster(cfg);
  const auto b = simulate_cluster(cfg);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_DOUBLE_EQ(a.query_ms.quantile(0.9), b.query_ms.quantile(0.9));
}

TEST(ServerPower, LinearModel) {
  ServerPower s;
  EXPECT_DOUBLE_EQ(s.power(0), s.idle_w);
  EXPECT_DOUBLE_EQ(s.power(1), s.peak_w);
  EXPECT_DOUBLE_EQ(s.power(0.5), (s.idle_w + s.peak_w) / 2);
  EXPECT_NEAR(s.proportionality(), 0.6, 1e-12);
  EXPECT_DOUBLE_EQ(s.power(2.0), s.peak_w);  // clamped
}

TEST(Facility, PowerAndEfficiency) {
  Facility f;
  f.servers = 1000;
  f.pue = 1.5;
  EXPECT_DOUBLE_EQ(f.power(1.0), 1000 * 300.0 * 1.5);
  EXPECT_DOUBLE_EQ(f.throughput(1.0), 1000 * 1e11);
  // Low utilization murders facility efficiency (idle floor + PUE).
  EXPECT_GT(f.ops_per_joule(0.9), 3.0 * f.ops_per_joule(0.1));
}

TEST(Qos, SweepIncludesBothUtilizationEndpoints) {
  // steps = i/(steps-1): the sweep must pin its first row at BE = 0
  // (idle colocation -- the unloaded LC baseline) and its last at
  // BE = 1 (a fully busy batch neighbor), not stop one step short.
  const QosConfig cfg;
  const auto shared = colocation_sweep(cfg, /*partitioned=*/false, 11);
  ASSERT_EQ(shared.size(), 11u);
  EXPECT_DOUBLE_EQ(shared.front().be_utilization, 0.0);
  EXPECT_DOUBLE_EQ(shared.back().be_utilization, 1.0);

  // BE = 0: no interference in either mode, so both sweeps start from
  // the same unloaded M/M/1 p99, zero BE goodput, and LC-only machine
  // utilization.
  const auto part = colocation_sweep(cfg, /*partitioned=*/true, 11);
  EXPECT_DOUBLE_EQ(shared.front().lc_p99_ms, part.front().lc_p99_ms);
  EXPECT_DOUBLE_EQ(shared.front().be_goodput, 0.0);
  EXPECT_DOUBLE_EQ(shared.front().machine_utilization,
                   cfg.lc_rate_hz * cfg.lc_service_ms * 1e-3);
  EXPECT_TRUE(shared.front().slo_met);

  // BE = 1 shared: interference inflates service past the M/M/1
  // stability bound, so the tail is infinite and the SLO is lost --
  // while the partitioned row at BE = 1 stays finite.
  EXPECT_TRUE(std::isinf(shared.back().lc_p99_ms));
  EXPECT_FALSE(shared.back().slo_met);
  EXPECT_DOUBLE_EQ(shared.back().machine_utilization, 1.0);
  EXPECT_TRUE(std::isfinite(part.back().lc_p99_ms));
  // Partitioned BE pays the partition penalty in goodput.
  EXPECT_DOUBLE_EQ(part.back().be_goodput, 1.0 - cfg.be_partition_penalty);
}

TEST(Qos, SloExactlyAtP99CountsAsMet) {
  // slo_met is `p99 <= slo`: an objective met with zero margin is still
  // met.  Pin the SLO to the exact computed p99 (a pure function of the
  // config, so bitwise-reproducible) and check the boundary both ways.
  QosConfig cfg;
  const auto base = colocation_sweep(cfg, false, 2);
  ASSERT_TRUE(std::isfinite(base.front().lc_p99_ms));
  cfg.slo_p99_ms = base.front().lc_p99_ms;
  const auto exact = colocation_sweep(cfg, false, 2);
  EXPECT_DOUBLE_EQ(exact.front().lc_p99_ms, cfg.slo_p99_ms);
  EXPECT_TRUE(exact.front().slo_met);
  // One ulp-scale tightening of the SLO flips the verdict.
  cfg.slo_p99_ms = std::nextafter(cfg.slo_p99_ms, 0.0);
  const auto tight = colocation_sweep(cfg, false, 2);
  EXPECT_FALSE(tight.front().slo_met);
}

TEST(Qos, MaxSafeBeUtilizationBoundaries) {
  const QosConfig cfg;
  // Shared mode with the default coefficients tops out early (the
  // closed form gives be <= ~0.065 -> 0.06 on the 0.01 grid)...
  const double shared = max_safe_be_utilization(cfg, false);
  EXPECT_NEAR(shared, 0.06, 1e-9);
  // ...while partitioning admits the entire BE range (p99 at BE = 1 is
  // ~9.8 ms against the 10 ms SLO), hitting the sweep's upper endpoint.
  const double part = max_safe_be_utilization(cfg, true);
  EXPECT_NEAR(part, 1.0, 1e-9);

  // An SLO below even the unloaded p99 admits no BE at all.
  QosConfig strict = cfg;
  strict.slo_p99_ms = 1.0;
  EXPECT_DOUBLE_EQ(max_safe_be_utilization(strict, true), 0.0);
}

TEST(Facility, SizingForExaop) {
  // How big is an exa-op facility with ~2012 servers?  Far beyond 10 MW
  // -- exactly the gap the paper's ladder highlights.
  const auto s = Facility::size_for(ServerPower{}, 1.5, 1e18, 0.8);
  EXPECT_GT(s.servers, 1'000'000u);
  EXPECT_GT(s.power_w, 100e6);  // hundreds of MW with 2012 technology
  EXPECT_THROW(Facility::size_for(ServerPower{}, 1.5, 0, 0.5),
               std::invalid_argument);
}

}  // namespace
}  // namespace arch21::cloud
