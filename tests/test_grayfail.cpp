// Tests for the gray-failure (fail-slow) layer: Resource::set_speed edge
// validation, seeded GrayTrace generation, the client-side GrayDetector
// (EWMA outliers, reply-rate/zombie accounting, eviction + probation,
// adaptive deadlines), gray WAN-link degradation, cluster injection +
// detection end to end, cross-pool determinism, disabled-knob
// byte-identity, and ClusterResult::merge() over the gray telemetry.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "cloud/cluster.hpp"
#include "cloud/gray_detect.hpp"
#include "cloud/policy.hpp"
#include "cloud/resilience.hpp"
#include "cloud/wan.hpp"
#include "des/resource.hpp"
#include "des/simulator.hpp"
#include "reliab/gray.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "golden_digest.hpp"

namespace arch21 {
namespace {

using cloud::ClusterConfig;
using cloud::ClusterResult;
using cloud::GrayDetector;
using des::Resource;
using des::Simulator;
using des::Time;
using reliab::GrayMode;

// ----------------------------------------------------- Resource::set_speed

TEST(ResourceSpeed, RejectsNonPositiveAndNonFinite) {
  Simulator sim;
  Resource r(sim, 1);
  EXPECT_THROW(r.set_speed(0.0), std::invalid_argument);
  EXPECT_THROW(r.set_speed(-1.0), std::invalid_argument);
  EXPECT_THROW(r.set_speed(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(r.set_speed(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  EXPECT_THROW(r.set_speed(-std::numeric_limits<double>::infinity()),
               std::invalid_argument);
  // A failed set leaves the speed untouched.
  EXPECT_DOUBLE_EQ(r.speed(), 1.0);
}

TEST(ResourceSpeed, ScalesFutureServiceTimes) {
  Simulator sim;
  Resource r(sim, 1);
  r.set_speed(0.5);  // half speed: requested service takes twice as long
  EXPECT_DOUBLE_EQ(r.speed(), 0.5);
  double end = -1;
  r.request(10.0, [&end](Time, Time) { end = 0; });
  sim.schedule_at(19.0, [&end] { EXPECT_EQ(end, -1); });
  sim.run();
  EXPECT_EQ(end, 0);
  EXPECT_DOUBLE_EQ(sim.now(), 20.0);
  // Restored to full speed, service times are literal again.
  r.set_speed(1.0);
  r.request(5.0, nullptr);
  sim.run();
  EXPECT_DOUBLE_EQ(sim.now(), 25.0);
}

// ------------------------------------------------------------- gray traces

reliab::GrayTraceConfig busy_trace() {
  reliab::GrayTraceConfig cfg;
  cfg.entities = 40;
  cfg.episode = {.mtbf_hours = 0.02, .mttr_hours = 0.005};
  cfg.horizon_hours = 1.0;
  cfg.seed = 99;
  return cfg;
}

TEST(GrayTrace, ValidatesConfig) {
  reliab::GrayTraceConfig ok;
  EXPECT_NO_THROW(ok.validate());
  auto bad = ok;
  bad.entities = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.slow_factor_min = 0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.slow_factor_max = bad.slow_factor_min - 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.loss_fraction_min = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.loss_fraction_max = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.spike_prob = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.w_slow = bad.w_lossy = bad.w_zombie = bad.w_jittery = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.w_lossy = -1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = ok;
  bad.episode.mtbf_hours = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(GrayTrace, DeterministicAndWellFormed) {
  const auto cfg = busy_trace();
  const auto a = reliab::generate_gray_trace(cfg);
  const auto b = reliab::generate_gray_trace(cfg);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_GT(a.episodes, 0u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events[i].t_hours, b.events[i].t_hours);
    EXPECT_EQ(a.events[i].entity, b.events[i].entity);
    EXPECT_EQ(a.events[i].mode, b.events[i].mode);
    EXPECT_EQ(a.events[i].onset, b.events[i].onset);
    EXPECT_DOUBLE_EQ(a.events[i].severity, b.events[i].severity);
  }
  // Sorted by time; onsets carry severity, clears do not.
  for (std::size_t i = 1; i < a.events.size(); ++i) {
    EXPECT_LE(a.events[i - 1].t_hours, a.events[i].t_hours);
  }
  std::uint64_t onsets = 0;
  for (const auto& ev : a.events) {
    if (ev.onset) {
      ++onsets;
      EXPECT_GT(ev.severity, 0.0);
    } else {
      EXPECT_EQ(ev.severity, 0.0);
    }
    EXPECT_LT(ev.entity, cfg.entities);
    EXPECT_LT(ev.t_hours, cfg.horizon_hours);
  }
  EXPECT_EQ(onsets, a.episodes);
  EXPECT_EQ(a.episodes_by_mode[0] + a.episodes_by_mode[1] +
                a.episodes_by_mode[2] + a.episodes_by_mode[3],
            a.episodes);
  // Steady-state degraded fraction lands near mttr / (mtbf + mttr) = 0.2.
  const double f = a.measured_degraded_fraction(cfg);
  EXPECT_GT(f, 0.1);
  EXPECT_LT(f, 0.3);

  auto other = cfg;
  other.seed = 100;
  const auto c = reliab::generate_gray_trace(other);
  EXPECT_NE(a.events.size(), c.events.size());
}

// ---------------------------------------------------------- GrayDetector

cloud::GrayDetectionPolicy det_policy() {
  cloud::GrayDetectionPolicy pol;
  pol.enabled = true;
  return pol;  // library defaults: factor 4, strikes 2, floor 0.75, etc.
}

void feed(GrayDetector& d, unsigned r, unsigned n, double latency_ms) {
  for (unsigned i = 0; i < n; ++i) {
    d.on_sent(r);
    d.on_reply(r, latency_ms);
  }
}

TEST(GrayDetectorUnit, OutlierNeedsConsecutiveStrikes) {
  GrayDetector d;
  d.init(det_policy(), 4, 100.0);
  ASSERT_TRUE(d.engaged());
  for (unsigned r = 0; r < 3; ++r) feed(d, r, 10, 4.0);
  feed(d, 3, 10, 40.0);  // EWMA 40 > 4 x max(p25 = 4, floor 2)
  d.eval(100);
  EXPECT_EQ(d.evictions(), 0u);  // strike one only
  EXPECT_FALSE(d.evicted(3));
  feed(d, 3, 4, 40.0);
  d.eval(200);
  EXPECT_EQ(d.evictions(), 1u);  // strike two: evicted
  EXPECT_TRUE(d.evicted(3));
  EXPECT_EQ(d.state(3), GrayDetector::State::kEvicted);
  // Redirects walk round-robin over the healthy peers only.
  EXPECT_EQ(d.redirect_target(3), 0u);
  EXPECT_EQ(d.redirect_target(3), 1u);
  EXPECT_EQ(d.redirect_target(3), 2u);
  EXPECT_EQ(d.redirect_target(3), 0u);
}

TEST(GrayDetectorUnit, SingleExcursionDoesNotEvict) {
  GrayDetector d;
  d.init(det_policy(), 4, 100.0);
  for (unsigned r = 0; r < 3; ++r) feed(d, r, 10, 4.0);
  feed(d, 3, 10, 40.0);
  d.eval(100);  // strike one
  feed(d, 3, 30, 4.0);  // EWMA decays back under the threshold
  d.eval(200);  // streak resets instead of evicting
  feed(d, 3, 10, 40.0);
  d.eval(300);  // over again -- but this is strike one, not two
  EXPECT_EQ(d.evictions(), 0u);
  EXPECT_FALSE(d.evicted(3));
}

TEST(GrayDetectorUnit, ZombieFlaggedAfterZeroReplyIntervals) {
  GrayDetector d;
  d.init(det_policy(), 3, 100.0);
  feed(d, 0, 16, 4.0);
  feed(d, 1, 16, 4.0);
  for (unsigned i = 0; i < 16; ++i) d.on_sent(2);  // sends, no replies
  d.eval(100);
  EXPECT_EQ(d.zombies(), 0u);  // strike one
  for (unsigned i = 0; i < 16; ++i) d.on_sent(2);
  d.eval(200);
  EXPECT_EQ(d.zombies(), 1u);
  EXPECT_TRUE(d.evicted(2));
}

TEST(GrayDetectorUnit, RejectedSendsAreNotSilentEvidence) {
  // Bounced sends were answered (loudly) by the replica; without the
  // discount a busy-but-healthy replica would be rate-evicted.
  GrayDetector d;
  d.init(det_policy(), 3, 100.0);
  for (unsigned pass = 0; pass < 3; ++pass) {
    feed(d, 0, 16, 4.0);
    feed(d, 1, 16, 4.0);
    for (unsigned i = 0; i < 16; ++i) {
      d.on_sent(2);
      d.on_rejected(2);
    }
    d.eval(100.0 * (pass + 1));
  }
  EXPECT_EQ(d.evictions(), 0u);
  EXPECT_EQ(d.zombies(), 0u);
  EXPECT_FALSE(d.evicted(2));
}

TEST(GrayDetectorUnit, EvictionExpiresIntoProbationThenReadmits) {
  auto pol = det_policy();
  pol.evict_ms = 1000;
  GrayDetector d;
  d.init(pol, 4, 100.0);
  for (unsigned r = 0; r < 3; ++r) feed(d, r, 10, 4.0);
  feed(d, 3, 10, 40.0);
  d.eval(100);
  feed(d, 3, 4, 40.0);
  d.eval(200);
  ASSERT_TRUE(d.evicted(3));
  // Before expiry the state holds.
  d.eval(1100);
  EXPECT_TRUE(d.evicted(3));
  // Past evicted_until (200 + 1000): probation with fresh counters.
  for (unsigned r = 0; r < 3; ++r) feed(d, r, 10, 4.0);
  d.eval(1300);
  EXPECT_EQ(d.probations(), 1u);
  EXPECT_EQ(d.state(3), GrayDetector::State::kProbation);
  EXPECT_FALSE(d.evicted(3));  // probation receives traffic again
  // Clean replies re-admit it to full health.
  feed(d, 3, pol.probation_samples, 4.0);
  for (unsigned r = 0; r < 3; ++r) feed(d, r, 10, 4.0);
  d.eval(1400);
  EXPECT_EQ(d.state(3), GrayDetector::State::kHealthy);
}

TEST(GrayDetectorUnit, AdaptiveDeadlineTracksWindowTail) {
  GrayDetector d;
  d.init(det_policy(), 2, 100.0);
  EXPECT_DOUBLE_EQ(d.timeout_ms(), 100.0);  // starts at the fixed timeout
  feed(d, 0, 20, 10.0);
  feed(d, 1, 20, 10.0);
  d.eval(100);
  // ~1.5 x p99 of a 10 ms window, clamped to [deadline_min, fixed].
  EXPECT_LT(d.timeout_ms(), 100.0);
  EXPECT_GE(d.timeout_ms(), det_policy().deadline_min_ms);
  // Too few samples leaves the deadline where it was.
  const double held = d.timeout_ms();
  feed(d, 0, 2, 10.0);
  d.eval(200);
  EXPECT_DOUBLE_EQ(d.timeout_ms(), held);
}

TEST(GrayDetectorUnit, ScoreOnlyModeNeverEvicts) {
  auto pol = det_policy();
  pol.evict = false;
  GrayDetector d;
  d.init(pol, 4, 100.0);
  for (unsigned pass = 0; pass < 4; ++pass) {
    for (unsigned r = 0; r < 3; ++r) feed(d, r, 10, 4.0);
    feed(d, 3, 10, 60.0);
    d.eval(100.0 * (pass + 1));
  }
  EXPECT_EQ(d.evictions(), 0u);
  EXPECT_FALSE(d.evicted(3));
  EXPECT_LT(d.timeout_ms(), 100.0);  // the deadline still adapts
}

// ------------------------------------------------------- gray WAN links

TEST(WanGray, ValidatesConfig) {
  cloud::WanConfig cfg;
  cfg.gray_links = true;
  EXPECT_NO_THROW(cfg.validate());
  auto bad = cfg;
  bad.gray_factor_min = 0.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = cfg;
  bad.gray_factor_max = cfg.gray_factor_min - 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = cfg;
  bad.gray_loss_fraction = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(WanGray, HealthyWanDrawsNothingAndDeliversEverything) {
  cloud::WanConfig cfg;  // gray_links off
  cloud::Wan wan(cfg, 60000.0, 42);
  EXPECT_EQ(wan.gray_episodes(), 0u);
  Rng rng(7);
  for (unsigned i = 0; i < 10; ++i) EXPECT_TRUE(wan.link_delivers(0, 1, rng));
  // link_delivers consumed no randomness: the stream is untouched.
  EXPECT_EQ(rng.next(), Rng(7).next());
}

TEST(WanGray, DegradedLinkInflatesLatencyAndDropsTraversals) {
  cloud::WanConfig cfg;
  cfg.jitter_frac = 0;  // make the inflation factor exact
  cfg.gray_links = true;
  // Episodes begin within ~0.36 s and last ~10 h: by end of horizon every
  // link is mid-episode.
  cfg.gray_link = {.mtbf_hours = 0.0001, .mttr_hours = 10.0};
  cfg.gray_loss_fraction = 0.5;
  cloud::Wan wan(cfg, 60000.0, 42);
  EXPECT_GT(wan.gray_episodes(), 0u);
  Simulator sim;
  wan.install(sim);
  sim.run();
  unsigned degraded = 0;
  Rng rng(7);
  for (unsigned a = 0; a < cfg.regions; ++a) {
    for (unsigned b = a + 1; b < cfg.regions; ++b) {
      if (!wan.link_degraded(a, b)) continue;
      ++degraded;
      const double base = cfg.base_latency(a, b);
      const double sample = wan.sample_latency_ms(a, b, rng);
      EXPECT_GE(sample, base * cfg.gray_factor_min * 0.999);
      EXPECT_LE(sample, base * cfg.gray_factor_max * 1.001);
    }
  }
  ASSERT_GT(degraded, 0u);
  // Partial loss: some traversals of a degraded link vanish.
  unsigned delivered = 0, dropped = 0;
  for (unsigned i = 0; i < 200; ++i) {
    (wan.link_delivers(0, 1, rng) ? delivered : dropped) += 1;
  }
  if (wan.link_degraded(0, 1)) {
    EXPECT_GT(delivered, 0u);
    EXPECT_GT(dropped, 0u);
  }
  // Intra-region paths never degrade.
  EXPECT_FALSE(wan.link_degraded(1, 1));
  EXPECT_TRUE(wan.link_delivers(1, 1, rng));
}

// ------------------------------------------------- cluster integration

ClusterConfig gray_cluster() {
  ClusterConfig cfg;
  cfg.leaves = 10;
  cfg.query_rate_hz = 80;
  cfg.leaf_service_ms = 3;
  cfg.service_sigma = 0.35;
  cfg.duration_s = 8;
  cfg.seed = 7;
  cfg.goodput_window_s = 1.0;
  cfg.gray.burst_leaves = 3;
  cfg.gray.burst_start_s = 2;
  cfg.gray.burst_duration_s = 4;
  cfg.gray.burst_mode = GrayMode::kSlow;
  cfg.gray.burst_severity = 8.0;
  cfg.policy.retry.timeout_ms = 25;
  cfg.policy.retry.max_retries = 2;
  cfg.policy.budget.enabled = true;
  cfg.policy.budget.ratio = 0.1;
  cfg.policy.quorum = {.quorum_fraction = 0.9, .deadline_ms = 100};
  return cfg;
}

cloud::GrayDetectionPolicy cluster_det_policy() {
  auto pol = det_policy();
  // 80 qps -> 8 sends per leaf per 100 ms; stretch the eval interval so
  // the rate checks have their minimum sample size.
  pol.eval_interval_ms = 200;
  return pol;
}

TEST(ClusterGray, DefaultsLeaveGrayTelemetryZero) {
  ClusterConfig cfg;
  cfg.leaves = 10;
  cfg.query_rate_hz = 40;
  cfg.duration_s = 3;
  cfg.seed = 5;
  const auto r = cloud::simulate_cluster(cfg);
  EXPECT_EQ(r.gray_episodes, 0u);
  EXPECT_EQ(r.gray_dropped_replies, 0u);
  EXPECT_EQ(r.gray_evictions, 0u);
  EXPECT_EQ(r.gray_probations, 0u);
  EXPECT_EQ(r.gray_zombies, 0u);
  EXPECT_EQ(r.gray_redirected_sends, 0u);
  EXPECT_DOUBLE_EQ(r.adaptive_deadline_ms, 0.0);
}

TEST(ClusterGray, ValidatesExclusionsAndPolicyPreconditions) {
  auto cfg = gray_cluster();
  EXPECT_NO_THROW(cfg.validate());
  auto bad = cfg;
  bad.net_latency_ms = 0.2;  // gray injection is serial-engine only
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = cfg;
  bad.powercap.enabled = true;  // both drive Resource::set_speed
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = cfg;
  bad.gray.burst_leaves = bad.leaves + 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = cfg;
  bad.gray.burst_mode = GrayMode::kLossy;
  bad.gray.burst_severity = 1.5;  // loss fraction > 1
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  // Detection needs a timeout to adapt and a quorum to degrade onto.
  bad = cfg;
  bad.policy.gray = cluster_det_policy();
  bad.policy.quorum = {};
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad.policy.quorum = cfg.policy.quorum;
  bad.policy.retry.timeout_ms = 0;
  bad.policy.retry.max_retries = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(ClusterGray, PlantedSlowBurstFiresDetectionAndRestoresGoodput) {
  const auto blind = cloud::simulate_cluster(gray_cluster());
  EXPECT_EQ(blind.gray_episodes, 3u);  // one onset per burst leaf
  EXPECT_EQ(blind.gray_evictions, 0u);  // nothing watching

  auto cfg = gray_cluster();
  cfg.policy.gray = cluster_det_policy();
  const auto det = cloud::simulate_cluster(cfg);
  // Each slow leaf is spotted at least once (re-evictions may add more).
  EXPECT_GE(det.gray_evictions, 3u);
  EXPECT_GT(det.gray_redirected_sends, 0u);
  EXPECT_GT(det.adaptive_deadline_ms, 0.0);
  // Identical workload; detection turns failed queries back into answers.
  EXPECT_EQ(det.queries, blind.queries);
  EXPECT_GT(det.ok_queries + det.degraded_queries,
            blind.ok_queries + blind.degraded_queries);
}

TEST(ClusterGray, HealthyClusterSeesNoFalseEvictions) {
  auto cfg = gray_cluster();
  cfg.gray = {};  // no injection at all
  cfg.policy.gray = cluster_det_policy();
  const auto r = cloud::simulate_cluster(cfg);
  EXPECT_EQ(r.gray_evictions, 0u);
  EXPECT_EQ(r.gray_zombies, 0u);
  EXPECT_EQ(r.gray_redirected_sends, 0u);
  EXPECT_EQ(r.gray_dropped_replies, 0u);
}

TEST(ClusterGray, ZombieBurstStarvesQuorumUntilDetectionEvicts) {
  auto cfg = gray_cluster();
  cfg.gray.burst_mode = GrayMode::kZombie;
  const auto blind = cloud::simulate_cluster(cfg);
  // 3 zombies against a 9-of-10 quorum: every query inside the burst
  // waits out the deadline and fails.
  EXPECT_GT(blind.failed_queries, 0u);
  EXPECT_GT(blind.gray_dropped_replies, 0u);

  auto det_cfg = cfg;
  det_cfg.policy.gray = cluster_det_policy();
  const auto det = cloud::simulate_cluster(det_cfg);
  EXPECT_GE(det.gray_zombies, 3u);  // all three flagged by reply-rate zero
  EXPECT_GE(det.gray_evictions, 3u);
  EXPECT_GT(det.gray_redirected_sends, 0u);
  EXPECT_EQ(det.queries, blind.queries);
  EXPECT_LT(det.failed_queries, blind.failed_queries);
  EXPECT_GT(det.ok_queries + det.degraded_queries,
            blind.ok_queries + blind.degraded_queries);
}

TEST(ClusterGray, StochasticTraceDeterministicAcrossPools) {
  auto cfg = gray_cluster();
  cfg.gray.enabled = true;  // stochastic episodes on top of the burst
  cfg.gray.episode = {.mtbf_hours = 40.0 / 3600.0, .mttr_hours = 4.0 / 3600.0};
  cfg.policy.gray = cluster_det_policy();
  cfg.policy.breaker.enabled = true;

  ThreadPool p1(1), p2(2), p4(4);
  const auto a = cloud::run_cluster_trials(cfg, 3, &p1);
  const auto b = cloud::run_cluster_trials(cfg, 3, &p2);
  const auto c = cloud::run_cluster_trials(cfg, 3, &p4);
  for (const auto* r : {&b, &c}) {
    EXPECT_EQ(a.queries, r->queries);
    EXPECT_EQ(a.ok_queries, r->ok_queries);
    EXPECT_EQ(a.degraded_queries, r->degraded_queries);
    EXPECT_EQ(a.failed_queries, r->failed_queries);
    EXPECT_EQ(a.timeouts, r->timeouts);
    EXPECT_EQ(a.retries, r->retries);
    EXPECT_EQ(a.gray_episodes, r->gray_episodes);
    EXPECT_EQ(a.gray_dropped_replies, r->gray_dropped_replies);
    EXPECT_EQ(a.gray_evictions, r->gray_evictions);
    EXPECT_EQ(a.gray_probations, r->gray_probations);
    EXPECT_EQ(a.gray_zombies, r->gray_zombies);
    EXPECT_EQ(a.gray_redirected_sends, r->gray_redirected_sends);
    EXPECT_DOUBLE_EQ(a.adaptive_deadline_ms, r->adaptive_deadline_ms);
    EXPECT_EQ(a.breaker_open_transitions, r->breaker_open_transitions);
    EXPECT_EQ(a.answered_per_window, r->answered_per_window);
    EXPECT_DOUBLE_EQ(a.query_ms.quantile(0.99), r->query_ms.quantile(0.99));
    EXPECT_DOUBLE_EQ(a.sum_result_quality, r->sum_result_quality);
  }
  EXPECT_GT(a.gray_episodes, 3u);  // the trace added episodes of its own
}

TEST(ClusterGray, DisabledKnobsAreByteIdentical) {
  auto plain = gray_cluster();
  plain.gray = {};
  const auto base = cloud::simulate_cluster(plain);

  // Every severity/detection field tweaked, every enable bit off.
  auto tweaked = plain;
  tweaked.gray.slow_factor_min = 2.0;
  tweaked.gray.spike_prob = 0.9;
  tweaked.gray.burst_severity = 3.0;
  tweaked.policy.gray = cluster_det_policy();
  tweaked.policy.gray.enabled = false;
  const auto r = cloud::simulate_cluster(tweaked);
  EXPECT_EQ(base.queries, r.queries);
  EXPECT_EQ(base.ok_queries, r.ok_queries);
  EXPECT_EQ(base.degraded_queries, r.degraded_queries);
  EXPECT_EQ(base.failed_queries, r.failed_queries);
  EXPECT_EQ(base.timeouts, r.timeouts);
  EXPECT_EQ(base.retries, r.retries);
  EXPECT_EQ(base.leaf_requests, r.leaf_requests);
  EXPECT_EQ(base.answered_per_window, r.answered_per_window);
  EXPECT_DOUBLE_EQ(base.query_ms.quantile(0.99), r.query_ms.quantile(0.99));
  EXPECT_DOUBLE_EQ(base.sum_result_quality, r.sum_result_quality);
  EXPECT_EQ(r.gray_episodes, 0u);
  EXPECT_EQ(r.gray_evictions, 0u);
}

TEST(ClusterGray, MergeSumsGrayTelemetry) {
  ClusterResult a;
  a.trials = 1;
  a.gray_episodes = 2;
  a.gray_dropped_replies = 10;
  a.gray_evictions = 3;
  a.gray_probations = 2;
  a.gray_zombies = 1;
  a.gray_redirected_sends = 50;
  a.adaptive_deadline_ms = 10.0;

  ClusterResult b;
  b.trials = 3;
  b.gray_episodes = 4;
  b.gray_dropped_replies = 5;
  b.gray_evictions = 1;
  b.gray_probations = 1;
  b.gray_zombies = 0;
  b.gray_redirected_sends = 25;
  b.adaptive_deadline_ms = 20.0;

  a.merge(b);
  EXPECT_EQ(a.trials, 4u);
  EXPECT_EQ(a.gray_episodes, 6u);
  EXPECT_EQ(a.gray_dropped_replies, 15u);
  EXPECT_EQ(a.gray_evictions, 4u);
  EXPECT_EQ(a.gray_probations, 3u);
  EXPECT_EQ(a.gray_zombies, 1u);
  EXPECT_EQ(a.gray_redirected_sends, 75u);
  // Trial-weighted average: (10 x 1 + 20 x 3) / 4.
  EXPECT_DOUBLE_EQ(a.adaptive_deadline_ms, 17.5);
}

// ---------------------------------------------------------- golden pins

// The serial full stack plus gray injection (trace and burst) and gray
// detection, pinned to the digest recorded before the client-policy core
// was shared across engines (tests/golden_digest.hpp).  The detector's
// 100 ms eval cadence lands exactly on the crash-burst and gray-burst
// edges, so the pin also locks the engine's setup scheduling order.
TEST(GoldenDigest, SerialFullStackWithGrayDetection) {
  const auto r = cloud::simulate_cluster(golden::full_stack_gray_config());
  EXPECT_GT(r.gray_episodes, 0u);
  EXPECT_GT(r.gray_dropped_replies, 0u);
  EXPECT_GT(r.gray_evictions, 0u);
  EXPECT_GT(r.gray_redirected_sends, 0u);
  EXPECT_GT(r.adaptive_deadline_ms, 0.0);
  EXPECT_GT(r.breaker_open_transitions, 0u);
  EXPECT_EQ(golden::digest(r), 0x942fb0673fef0c82ULL);
}

}  // namespace
}  // namespace arch21
