// Tests for the server-side overload-protection layer: bounded Resource
// queues with pluggable disciplines (FIFO / adaptive LIFO / deadline
// drop), admission control and load shedding at the query root,
// per-replica circuit breakers (the shared BreakerBank and token buckets
// unit by unit, then end to end), the fault burst + goodput-window
// instrumentation, and ClusterResult::merge() over the new telemetry.

#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "cloud/client.hpp"
#include "cloud/cluster.hpp"
#include "cloud/policy.hpp"
#include "cloud/resilience.hpp"
#include "des/resource.hpp"
#include "des/simulator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/inline_function.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace arch21 {
namespace {

using cloud::ClusterConfig;
using cloud::ClusterResult;
using des::QueueDiscipline;
using des::QueuePolicy;
using des::Resource;
using des::Simulator;
using des::Time;

// ------------------------------------------------ bounded Resource queue

TEST(BoundedQueue, RejectsWhenFullAndNeverFiresCallback) {
  Simulator sim;
  QueuePolicy qp;
  qp.capacity = 2;
  Resource r(sim, 1, qp);
  int done = 0;
  bool rejected_fired = false;
  auto inc = [&done](Time, Time) { ++done; };
  EXPECT_TRUE(r.request(5.0, inc));  // in service
  EXPECT_TRUE(r.request(1.0, inc));  // queued
  EXPECT_TRUE(r.request(1.0, inc));  // queued (full)
  EXPECT_FALSE(
      r.request(1.0, [&rejected_fired](Time, Time) { rejected_fired = true; }));
  EXPECT_EQ(r.rejected(), 1u);
  EXPECT_EQ(r.queue_length(), 2u);
  sim.run();
  EXPECT_EQ(done, 3);
  EXPECT_FALSE(rejected_fired);
  EXPECT_EQ(r.queue_high_water(), 2u);
  // Drained: the station accepts again.
  EXPECT_TRUE(r.request(1.0, inc));
  sim.run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(r.rejected(), 1u);
}

TEST(BoundedQueue, AdaptiveLifoServesNewestAboveThreshold) {
  Simulator sim;
  QueuePolicy qp;
  qp.discipline = QueueDiscipline::kAdaptiveLifo;
  qp.lifo_threshold = 1;
  Resource r(sim, 1, qp);
  std::vector<int> order;
  r.request(10.0, [&order](Time, Time) { order.push_back(0); });
  for (int i = 1; i <= 3; ++i) {
    r.request(1.0, [&order, i](Time, Time) { order.push_back(i); });
  }
  sim.run();
  // Backlog at each dequeue: 3 (> threshold -> newest), 2 (> threshold ->
  // newest), 1 (<= threshold -> FIFO).
  EXPECT_EQ(order, (std::vector<int>{0, 3, 2, 1}));
}

TEST(BoundedQueue, AdaptiveLifoIsPlainFifoBelowThreshold) {
  Simulator sim;
  QueuePolicy qp;
  qp.discipline = QueueDiscipline::kAdaptiveLifo;
  qp.lifo_threshold = 8;
  Resource r(sim, 1, qp);
  std::vector<int> order;
  r.request(10.0, [&order](Time, Time) { order.push_back(0); });
  for (int i = 1; i <= 3; ++i) {
    r.request(1.0, [&order, i](Time, Time) { order.push_back(i); });
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(BoundedQueue, DeadlineDropsExpiredWaitersAtDequeue) {
  Simulator sim;
  QueuePolicy qp;
  qp.discipline = QueueDiscipline::kDeadline;
  qp.sojourn_target = 5.0;
  Resource r(sim, 1, qp);
  int served = 0;
  int stale = 0;
  r.request(10.0, [&served](Time, Time) { ++served; });  // frees at t=10
  // Queued at t=0: sojourn 10 > 5 when the server frees -> dropped.
  r.request(1.0, [&stale](Time, Time) { ++stale; });
  r.request(1.0, [&stale](Time, Time) { ++stale; });
  // Queued at t=9: sojourn 1 at t=10 -> served.
  sim.schedule_at(9.0, [&r, &served] {
    r.request(1.0, [&served](Time, Time) { ++served; });
  });
  sim.run();
  EXPECT_EQ(served, 2);
  EXPECT_EQ(stale, 0);
  EXPECT_EQ(r.expired(), 2u);
  EXPECT_EQ(r.completed(), 2u);
}

TEST(BoundedQueue, FailAllWithFullQueueDoesNotDoubleCount) {
  Simulator sim;
  QueuePolicy qp;
  qp.capacity = 3;
  Resource r(sim, 1, qp);
  int done = 0;
  auto inc = [&done](Time, Time) { ++done; };
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(r.request(2.0, inc));
  EXPECT_FALSE(r.request(2.0, inc));  // rejected at the full queue
  EXPECT_EQ(r.rejected(), 1u);

  const std::size_t lost = r.fail_all();
  EXPECT_EQ(lost, 4u);  // 3 waiting + 1 in service; the reject NOT re-counted
  EXPECT_EQ(r.dropped(), 4u);
  EXPECT_EQ(r.rejected(), 1u);
  EXPECT_EQ(r.queue_length(), 0u);
  EXPECT_EQ(r.busy(), 0u);

  // Recovered: accepts a full queue's worth again; the stale completion
  // event of the killed job must not revive anything.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(r.request(1.0, inc));
  sim.run();
  EXPECT_EQ(done, 4);
  // Accounting identity: accepted = completed + dropped.
  EXPECT_EQ(r.completed() + r.dropped(), 8u);
}

// A capacity that is not a power of two: the ring is rounded up to 8
// slots and wraps many times under sustained overload, yet admission
// still stops at exactly 5 waiters and FIFO order survives every wrap.
TEST(BoundedQueue, NonPowerOfTwoCapacityWrapsInOrder) {
  Simulator sim;
  QueuePolicy qp;
  qp.capacity = 5;
  Resource r(sim, 1, qp);
  Rng rng(3);
  std::vector<int> accepted;
  std::vector<int> served;
  int next_id = 0;
  for (int step = 0; step < 400; ++step) {
    const auto burst = static_cast<int>(rng.below(7));
    for (int k = 0; k < burst; ++k) {
      const int id = next_id++;
      const bool room = r.busy() < r.servers() || r.queue_length() < 5;
      EXPECT_EQ(r.request(1.0, [&served, id](Time, Time) {
        served.push_back(id);
      }), room);
      if (room) accepted.push_back(id);
    }
    sim.run(sim.now() + 2.0);
  }
  sim.run();
  EXPECT_EQ(served, accepted);
  EXPECT_EQ(r.queue_high_water(), 5u);
  EXPECT_GT(r.rejected(), 100u);
}

TEST(BoundedQueue, SteadyStateOverloadIsAllocationFree) {
  Simulator sim;
  sim.reserve(8192);
  QueuePolicy qp;
  qp.capacity = 8;
  qp.discipline = QueueDiscipline::kAdaptiveLifo;
  qp.lifo_threshold = 4;
  Resource r(sim, 1, qp);
  Rng rng(7);
  int done = 0;
  double t = 0;
  // Offered load ~2x capacity: the bounded ring stays full and rejects
  // roughly half the arrivals.
  for (int i = 0; i < 2000; ++i) {
    t += rng.exponential(0.5);
    const double s = rng.exponential(1.0);
    sim.schedule_at(t, [&r, &done, s] {
      r.request(s, [&done](Time, Time) { ++done; });
    });
  }
  const auto before = arch21::inline_function_heap_allocations();
  sim.run();
  EXPECT_EQ(arch21::inline_function_heap_allocations(), before);
  EXPECT_GT(r.rejected(), 100u);
  EXPECT_GT(done, 100);
  EXPECT_LE(r.queue_high_water(), qp.capacity);
}

TEST(BoundedQueue, DeadlineDisciplineIsAllocationFreeToo) {
  Simulator sim;
  sim.reserve(8192);
  QueuePolicy qp;
  qp.capacity = 16;
  qp.discipline = QueueDiscipline::kDeadline;
  qp.sojourn_target = 2.0;
  Resource r(sim, 1, qp);
  Rng rng(11);
  double t = 0;
  for (int i = 0; i < 2000; ++i) {
    t += rng.exponential(0.5);
    const double s = rng.exponential(1.0);
    sim.schedule_at(t, [&r, s] { r.request(s, nullptr); });
  }
  const auto before = arch21::inline_function_heap_allocations();
  sim.run();
  EXPECT_EQ(arch21::inline_function_heap_allocations(), before);
  // Saturated with a 2.0 sojourn target over ~1.0 services: a 16-deep
  // backlog guarantees plenty of drops at dequeue.
  EXPECT_GT(r.expired(), 100u);
}

TEST(BoundedQueue, PolicyValidation) {
  QueuePolicy ok;
  EXPECT_NO_THROW(ok.validate());
  QueuePolicy deadline_no_target;
  deadline_no_target.discipline = QueueDiscipline::kDeadline;
  EXPECT_THROW(deadline_no_target.validate(), std::invalid_argument);
  deadline_no_target.sojourn_target = 3.0;
  EXPECT_NO_THROW(deadline_no_target.validate());
  QueuePolicy negative;
  negative.sojourn_target = -1.0;
  EXPECT_THROW(negative.validate(), std::invalid_argument);
  // The Resource constructor validates its policy.
  Simulator sim;
  QueuePolicy bad_ctor;
  bad_ctor.discipline = QueueDiscipline::kDeadline;
  EXPECT_THROW(Resource(sim, 1, bad_ctor), std::invalid_argument);
}

// --------------------------------------------------- policy validation

TEST(OverloadPolicies, AdmissionValidation) {
  cloud::AdmissionPolicy a;
  EXPECT_NO_THROW(a.validate());  // disabled: anything goes
  a.enabled = true;
  EXPECT_THROW(a.validate(), std::invalid_argument);  // no gate configured
  a.rate_qps = 100;
  EXPECT_NO_THROW(a.validate());
  a.burst = 0.5;
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a.burst = 10;
  a.rate_qps = -1;
  EXPECT_THROW(a.validate(), std::invalid_argument);
  a.rate_qps = 0;
  a.max_in_flight = 32;
  EXPECT_NO_THROW(a.validate());
}

TEST(OverloadPolicies, BreakerValidation) {
  cloud::CircuitBreakerPolicy b;
  EXPECT_NO_THROW(b.validate());  // disabled
  b.enabled = true;
  EXPECT_NO_THROW(b.validate());  // defaults are coherent
  auto bad = b;
  bad.window = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = b;
  bad.window = 65;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = b;
  bad.failure_threshold = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = b;
  bad.failure_threshold = 1.5;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = b;
  bad.min_samples = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = b;
  bad.min_samples = b.window + 1;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = b;
  bad.open_ms = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = b;
  bad.open_jitter_frac = 1.0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
  bad = b;
  bad.half_open_probes = 0;
  EXPECT_THROW(bad.validate(), std::invalid_argument);
}

TEST(OverloadPolicies, BreakerRequiresTimeout) {
  cloud::ResiliencePolicy p;
  p.breaker.enabled = true;
  EXPECT_THROW(p.validate(), std::invalid_argument);
  p.retry.timeout_ms = 10;
  EXPECT_NO_THROW(p.validate());
}

// ------------------------------------------- client core, unit by unit

// Window of 4, opens at half failures once 4 outcomes are in, exact
// 10 ms cooldown (no jitter), two half-open probes.
cloud::CircuitBreakerPolicy unit_breaker() {
  cloud::CircuitBreakerPolicy p;
  p.enabled = true;
  p.window = 4;
  p.min_samples = 4;
  p.failure_threshold = 0.5;
  p.open_ms = 10;
  p.open_jitter_frac = 0;
  p.half_open_probes = 2;
  return p;
}

/// A bank of `n` breakers with replica 0 tripped open at t = 5 ms.
cloud::BreakerBank tripped_bank(unsigned n = 2) {
  cloud::BreakerBank bank;
  bank.init(unit_breaker(), n, 7);
  for (int i = 0; i < 4; ++i) bank.record(0, false, 5);
  return bank;
}

TEST(BreakerBank, DisabledBankIgnoresOutcomes) {
  cloud::BreakerBank bank;
  bank.init(cloud::CircuitBreakerPolicy{}, 3, 7);
  EXPECT_FALSE(bank.enabled());
  for (int i = 0; i < 100; ++i) bank.record(1, false, i);
  EXPECT_EQ(bank.opens(), 0u);
}

TEST(BreakerBank, OpensExactlyAtMinSamplesAndThreshold) {
  cloud::BreakerBank bank;
  bank.init(unit_breaker(), 2, 7);
  // Three failures are 100% of the window, but below min_samples.
  for (int i = 0; i < 3; ++i) bank.record(0, false, 1);
  EXPECT_TRUE(bank.allows(0, 1));
  EXPECT_EQ(bank.opens(), 0u);
  // The fourth outcome reaches min_samples: 3/4 >= 0.5 opens.
  bank.record(0, true, 2);
  EXPECT_FALSE(bank.allows(0, 2));
  EXPECT_EQ(bank.opens(), 1u);
  // Replica 1: one failure in four stays closed; exactly half opens.
  bank.record(1, true, 1);
  bank.record(1, true, 1);
  bank.record(1, false, 1);
  EXPECT_TRUE(bank.allows(1, 1));
  bank.record(1, false, 1);  // 2 of 4 == threshold * filled
  EXPECT_FALSE(bank.allows(1, 1));
  EXPECT_EQ(bank.opens(), 2u);
}

TEST(BreakerBank, WindowSlidesOutOldOutcomes) {
  auto p = unit_breaker();
  p.failure_threshold = 0.75;
  cloud::BreakerBank bank;
  bank.init(p, 2, 7);
  for (int i = 0; i < 4; ++i) bank.record(0, true, 1);
  bank.record(0, false, 1);
  bank.record(0, false, 1);  // window: 2 failures, 2 successes
  EXPECT_EQ(bank.opens(), 0u);
  // Only a sliding window reaches 3/4 here; cumulatively it is 3/7.
  bank.record(0, false, 1);
  EXPECT_EQ(bank.opens(), 1u);
  // Old failures slide out too: 4 failures in 8 outcomes, but only 2 of
  // them are still in the window.
  for (const bool ok : {false, false, true, true, true, true, false, false}) {
    bank.record(1, ok, 1);
  }
  EXPECT_EQ(bank.opens(), 1u);
  EXPECT_TRUE(bank.allows(1, 1));
}

TEST(BreakerBank, HalfOpenOnlyAfterCooldownAndGrantsProbes) {
  cloud::BreakerBank bank = tripped_bank();
  EXPECT_FALSE(bank.allows(0, 5));
  EXPECT_FALSE(bank.allows(0, 14.999));
  EXPECT_EQ(bank.probes(), 0u);
  // Outcomes while open are ignored: the cooldown alone decides.
  bank.record(0, true, 10);
  EXPECT_FALSE(bank.allows(0, 10));
  EXPECT_TRUE(bank.allows(0, 15));  // half-open, probe 1
  EXPECT_TRUE(bank.allows(0, 15));  // probe 2
  EXPECT_FALSE(bank.allows(0, 16));  // probes used up
  EXPECT_EQ(bank.probes(), 2u);
  EXPECT_DOUBLE_EQ(bank.open_ms(), 10.0);
  EXPECT_TRUE(bank.allows(1, 16));  // other replicas unaffected
}

TEST(BreakerBank, HalfOpenSuccessClosesWithFreshWindow) {
  cloud::BreakerBank bank = tripped_bank();
  ASSERT_TRUE(bank.allows(0, 15));
  bank.record(0, true, 16);
  EXPECT_EQ(bank.probes(), 1u);
  EXPECT_TRUE(bank.allows(0, 16));  // closed: no probe slot consumed
  EXPECT_TRUE(bank.allows(0, 16));
  EXPECT_EQ(bank.probes(), 1u);
  // The old failures are gone: three new ones are below min_samples.
  for (int i = 0; i < 3; ++i) bank.record(0, false, 17);
  EXPECT_EQ(bank.opens(), 1u);
  bank.record(0, false, 17);
  EXPECT_FALSE(bank.allows(0, 17));
  EXPECT_EQ(bank.opens(), 2u);
}

TEST(BreakerBank, HalfOpenFailureReopensWithFreshCooldown) {
  cloud::BreakerBank bank = tripped_bank();
  ASSERT_TRUE(bank.allows(0, 15));
  bank.record(0, false, 20);
  EXPECT_EQ(bank.opens(), 2u);
  EXPECT_FALSE(bank.allows(0, 29.999));
  EXPECT_TRUE(bank.allows(0, 30));
}

TEST(BreakerBank, OpenTimeIsClosedOutAtEndOfRun) {
  cloud::BreakerBank mid = tripped_bank();
  mid.finish(12);  // run ends inside the cooldown
  EXPECT_DOUBLE_EQ(mid.open_ms(), 7.0);
  cloud::BreakerBank late = tripped_bank();
  late.finish(100);  // never re-probed: counted up to the cooldown end
  EXPECT_DOUBLE_EQ(late.open_ms(), 10.0);
}

TEST(BreakerBank, RedirectFindsAnAdmittingReplicaOrNone) {
  cloud::BreakerBank bank = tripped_bank(1);
  EXPECT_EQ(bank.redirect(6), cloud::BreakerBank::kNone);
  cloud::BreakerBank two = tripped_bank(2);
  // Replica 1 is closed; three draws over two replicas find it unless
  // all three land on the open one.
  const unsigned alt = two.redirect(6);
  EXPECT_TRUE(alt == 1u || alt == cloud::BreakerBank::kNone);
}

TEST(TokenBucket, StartsFullRefillsOverTimeAndCapsAtBurst) {
  cloud::TokenBucket b(1000.0, 3);  // one token per ms, 3 deep
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(b.take(0));
  EXPECT_FALSE(b.take(0));
  EXPECT_FALSE(b.take(0.5));  // half a token is not a token
  EXPECT_TRUE(b.take(1.0));
  EXPECT_FALSE(b.take(1.0));
  // A long idle spell refills to the burst, not beyond it.
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(b.take(1e6));
  EXPECT_FALSE(b.take(1e6));
}

TEST(RetryBudgetBucket, CreditsCapAtBurstAndRetriesTakeWholeTokens) {
  cloud::RetryBudgetBucket b(0.5, 2);
  EXPECT_TRUE(b.take());
  EXPECT_TRUE(b.take());
  EXPECT_FALSE(b.take());
  b.credit();
  EXPECT_FALSE(b.take());  // 0.5 tokens
  b.credit();
  EXPECT_TRUE(b.take());
  for (int i = 0; i < 100; ++i) b.credit();  // capped at 2
  EXPECT_TRUE(b.take());
  EXPECT_TRUE(b.take());
  EXPECT_FALSE(b.take());
}

TEST(OverloadPolicies, ClusterConfigValidatesBurstAndWindows) {
  ClusterConfig cfg;
  cfg.faults.burst_leaves = 4;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);  // no duration
  cfg.faults.burst_duration_s = 1;
  EXPECT_NO_THROW(cfg.validate());
  cfg.faults.burst_leaves = cfg.leaves + 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.faults.burst_leaves = 4;
  cfg.goodput_window_s = -1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg.goodput_window_s = 0.5;
  cfg.leaf_queue.discipline = QueueDiscipline::kDeadline;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);  // no sojourn target
  cfg.leaf_queue.sojourn_target = 10;
  EXPECT_NO_THROW(cfg.validate());
}

// ------------------------------------------------- merge + hysteresis

TEST(ClusterResultMerge, SumsOverloadTelemetry) {
  ClusterResult a;
  a.trials = 1;
  a.shed_queries = 3;
  a.rejected_requests = 10;
  a.expired_drops = 4;
  a.breaker_open_transitions = 2;
  a.breaker_short_circuits = 7;
  a.breaker_probes = 5;
  a.breaker_open_ms = 12.5;
  a.answered_per_window = {1, 2};

  ClusterResult b;
  b.trials = 2;
  b.shed_queries = 5;
  b.rejected_requests = 1;
  b.expired_drops = 6;
  b.breaker_open_transitions = 1;
  b.breaker_short_circuits = 3;
  b.breaker_probes = 2;
  b.breaker_open_ms = 2.5;
  b.answered_per_window = {3, 4, 5};

  a.merge(b);
  EXPECT_EQ(a.trials, 3u);
  EXPECT_EQ(a.shed_queries, 8u);
  EXPECT_EQ(a.rejected_requests, 11u);
  EXPECT_EQ(a.expired_drops, 10u);
  EXPECT_EQ(a.breaker_open_transitions, 3u);
  EXPECT_EQ(a.breaker_short_circuits, 10u);
  EXPECT_EQ(a.breaker_probes, 7u);
  EXPECT_DOUBLE_EQ(a.breaker_open_ms, 15.0);
  EXPECT_EQ(a.answered_per_window, (std::vector<std::uint64_t>{4, 6, 5}));

  // Merging the shorter series into the longer must also work.
  ClusterResult c;
  c.trials = 1;
  c.answered_per_window = {10};
  a.merge(c);
  EXPECT_EQ(a.answered_per_window, (std::vector<std::uint64_t>{14, 6, 5}));
}

TEST(ClusterResultMerge, RejectsMismatchedGoodputWindows) {
  // Summing per-window counts recorded on different grids would corrupt
  // the hysteresis measurement, so merge() must refuse.
  ClusterResult a;
  a.goodput_window_s = 1.0;
  a.answered_per_window = {1, 2};
  ClusterResult b;
  b.goodput_window_s = 0.5;
  b.answered_per_window = {1, 2, 3, 4};
  EXPECT_THROW(a.merge(b), std::invalid_argument);

  // A windowless result adopts the other side's grid instead.
  ClusterResult c;  // goodput_window_s == 0: no series recorded
  c.merge(a);
  EXPECT_DOUBLE_EQ(c.goodput_window_s, 1.0);
  ClusterResult d;
  d.goodput_window_s = 1.0;
  d.answered_per_window = {5};
  c.merge(d);  // matching grids still merge fine
  EXPECT_EQ(c.answered_per_window, (std::vector<std::uint64_t>{6, 2}));

  // The simulator stamps the config's window size into the result.
  ClusterConfig cfg;
  cfg.leaves = 2;
  cfg.query_rate_hz = 50;
  cfg.duration_s = 1;
  cfg.goodput_window_s = 0.25;
  const auto r = cloud::simulate_cluster(cfg);
  EXPECT_DOUBLE_EQ(r.goodput_window_s, 0.25);
}

TEST(GoodputHysteresis, WindowedPrePostMeans) {
  ClusterConfig cfg;
  cfg.goodput_window_s = 1.0;
  cfg.duration_s = 8;
  cfg.faults.burst_leaves = 2;
  cfg.faults.burst_start_s = 3;
  cfg.faults.burst_duration_s = 1;

  ClusterResult r;
  r.trials = 1;
  // Window 0 is warmup; 1-2 pre; 3-4 burst+settle; 5-7 post.
  r.answered_per_window = {99, 10, 10, 0, 0, 5, 5, 5};
  const auto h = cloud::goodput_hysteresis(r, cfg, 1.0);
  EXPECT_DOUBLE_EQ(h.pre_qps, 10.0);
  EXPECT_DOUBLE_EQ(h.post_qps, 5.0);
  EXPECT_DOUBLE_EQ(h.recovery_ratio(), 0.5);

  // Missing trailing windows are zeros -- the metastable signal itself.
  r.answered_per_window = {99, 10, 10};
  const auto h2 = cloud::goodput_hysteresis(r, cfg, 1.0);
  EXPECT_DOUBLE_EQ(h2.pre_qps, 10.0);
  EXPECT_DOUBLE_EQ(h2.post_qps, 0.0);

  // Two trials normalize per trial.
  r.trials = 2;
  r.answered_per_window = {0, 20, 20, 0, 0, 10, 10, 10};
  const auto h3 = cloud::goodput_hysteresis(r, cfg, 1.0);
  EXPECT_DOUBLE_EQ(h3.pre_qps, 10.0);
  EXPECT_DOUBLE_EQ(h3.post_qps, 5.0);

  // No burst or no windows -> zeros.
  ClusterConfig off = cfg;
  off.faults.burst_leaves = 0;
  const auto h4 = cloud::goodput_hysteresis(r, off, 1.0);
  EXPECT_DOUBLE_EQ(h4.pre_qps, 0.0);
  EXPECT_DOUBLE_EQ(h4.recovery_ratio(), 0.0);
}

TEST(GrayContainment, WindowedPreDuringPostMeans) {
  ClusterConfig cfg;
  cfg.goodput_window_s = 1.0;
  cfg.duration_s = 10;
  cfg.gray.burst_leaves = 2;
  cfg.gray.burst_start_s = 3;
  cfg.gray.burst_duration_s = 3;

  ClusterResult r;
  r.trials = 1;
  // Window 0 is warmup; 1-2 pre; 3 onset settle; 4-5 during; 6 settle;
  // 7-9 post.
  r.answered_per_window = {99, 10, 10, 0, 6, 6, 0, 4, 4, 4};
  const auto c = cloud::gray_containment(r, cfg, 1.0);
  EXPECT_DOUBLE_EQ(c.pre_qps, 10.0);
  EXPECT_DOUBLE_EQ(c.during_qps, 6.0);
  EXPECT_DOUBLE_EQ(c.post_qps, 4.0);
  EXPECT_DOUBLE_EQ(c.containment_ratio(), 0.6);
  EXPECT_DOUBLE_EQ(c.recovery_ratio(), 0.4);

  // Missing trailing windows are zeros, inside the burst and after it.
  r.answered_per_window = {99, 10, 10, 0, 6};
  const auto c2 = cloud::gray_containment(r, cfg, 1.0);
  EXPECT_DOUBLE_EQ(c2.pre_qps, 10.0);
  EXPECT_DOUBLE_EQ(c2.during_qps, 3.0);
  EXPECT_DOUBLE_EQ(c2.post_qps, 0.0);

  // Two trials normalize per trial.
  r.trials = 2;
  r.answered_per_window = {0, 20, 20, 0, 12, 12, 0, 8, 8, 8};
  const auto c3 = cloud::gray_containment(r, cfg, 1.0);
  EXPECT_DOUBLE_EQ(c3.pre_qps, 10.0);
  EXPECT_DOUBLE_EQ(c3.during_qps, 6.0);
  EXPECT_DOUBLE_EQ(c3.post_qps, 4.0);

  // No gray burst or no windows -> zeros.
  ClusterConfig off = cfg;
  off.gray.burst_leaves = 0;
  const auto c4 = cloud::gray_containment(r, off, 1.0);
  EXPECT_DOUBLE_EQ(c4.pre_qps, 0.0);
  EXPECT_DOUBLE_EQ(c4.during_qps, 0.0);
  EXPECT_DOUBLE_EQ(c4.post_qps, 0.0);
  EXPECT_DOUBLE_EQ(c4.containment_ratio(), 0.0);
  ClusterConfig windowless = cfg;
  windowless.goodput_window_s = 0;
  const auto c5 = cloud::gray_containment(r, windowless, 1.0);
  EXPECT_DOUBLE_EQ(c5.pre_qps, 0.0);
  EXPECT_DOUBLE_EQ(c5.during_qps, 0.0);
  EXPECT_DOUBLE_EQ(c5.post_qps, 0.0);
}

// ------------------------------------------------- cluster integration

ClusterConfig overload_cluster() {
  ClusterConfig cfg;
  cfg.leaves = 10;
  cfg.query_rate_hz = 80;
  cfg.leaf_service_ms = 3;
  cfg.background_rate_hz = 20;
  cfg.background_ms = 2;
  cfg.duration_s = 6;
  cfg.seed = 99;
  cfg.goodput_window_s = 1.0;
  cfg.faults.burst_leaves = 6;
  cfg.faults.burst_start_s = 2;
  cfg.faults.burst_duration_s = 1;
  cfg.policy.retry.timeout_ms = 15;
  cfg.policy.retry.max_retries = 4;
  cfg.policy.quorum = {.quorum_fraction = 0.5, .deadline_ms = 60};
  return cfg;
}

TEST(ClusterOverload, DefaultsLeaveNewTelemetryZero) {
  ClusterConfig cfg;
  cfg.leaves = 10;
  cfg.query_rate_hz = 40;
  cfg.duration_s = 3;
  cfg.seed = 5;
  const auto r = cloud::simulate_cluster(cfg);
  EXPECT_EQ(r.shed_queries, 0u);
  EXPECT_EQ(r.rejected_requests, 0u);
  EXPECT_EQ(r.expired_drops, 0u);
  EXPECT_EQ(r.breaker_open_transitions, 0u);
  EXPECT_EQ(r.breaker_short_circuits, 0u);
  EXPECT_EQ(r.breaker_probes, 0u);
  EXPECT_DOUBLE_EQ(r.breaker_open_ms, 0.0);
  EXPECT_TRUE(r.answered_per_window.empty());
}

TEST(ClusterOverload, BurstCrashesLeavesThenRecovers) {
  const auto cfg = overload_cluster();
  const auto r = cloud::simulate_cluster(cfg);
  EXPECT_EQ(r.leaf_failures, 6u);
  EXPECT_GT(r.lost_requests, 0u);  // fail_all() killed queued/in-service work
  ASSERT_GE(r.answered_per_window.size(), 6u);
  // The burst window answers less than the healthy window before it, and
  // goodput comes back by the final window (this config is NOT in the
  // metastable regime -- 0.28 rho with bounded retries).
  EXPECT_LT(r.answered_per_window[2], r.answered_per_window[1]);
  EXPECT_GT(r.answered_per_window[5],
            static_cast<std::uint64_t>(0.5 * cfg.query_rate_hz));
}

TEST(ClusterOverload, BoundedLeafQueueRejectsAndExpires) {
  auto cfg = overload_cluster();
  // Saturate outright so the bounded queue is exercised hard: ~1.2 rho
  // of query work alone.
  cfg.query_rate_hz = 400;
  cfg.duration_s = 3;
  cfg.faults.burst_leaves = 0;
  cfg.faults.burst_duration_s = 0;
  cfg.leaf_queue.capacity = 8;
  cfg.leaf_queue.discipline = QueueDiscipline::kDeadline;
  cfg.leaf_queue.sojourn_target = 6;  // < capacity x service: drops happen
  const auto r = cloud::simulate_cluster(cfg);
  EXPECT_GT(r.rejected_requests, 100u);
  EXPECT_GT(r.expired_drops, 100u);
  // Unbounded comparison: same workload, no rejections.
  auto unbounded = cfg;
  unbounded.leaf_queue = {};
  const auto u = cloud::simulate_cluster(unbounded);
  EXPECT_EQ(u.rejected_requests, 0u);
  EXPECT_EQ(u.expired_drops, 0u);
  // The bounded cluster answers more queries inside the deadline: served
  // work is fresh instead of stale.
  EXPECT_GT(r.ok_queries + r.degraded_queries,
            u.ok_queries + u.degraded_queries);
}

TEST(ClusterOverload, AdmissionShedsExactlyTheExcess) {
  auto cfg = overload_cluster();
  const auto open = cloud::simulate_cluster(cfg);

  auto gated = cfg;
  gated.policy.admission.enabled = true;
  gated.policy.admission.rate_qps = 40;  // arrivals ~80 qps: shed ~half
  gated.policy.admission.burst = 5;
  const auto g = cloud::simulate_cluster(gated);
  EXPECT_GT(g.shed_queries, 0u);
  // Workload draws are aligned: admitted + shed = the open run's arrivals.
  EXPECT_EQ(g.queries + g.shed_queries, open.queries);
  EXPECT_LT(g.queries, open.queries);

  // The concurrency gate alone also sheds under the burst backlog.
  auto capped = cfg;
  capped.policy.admission.enabled = true;
  capped.policy.admission.max_in_flight = 3;
  const auto c = cloud::simulate_cluster(capped);
  EXPECT_GT(c.shed_queries, 0u);
  EXPECT_EQ(c.queries + c.shed_queries, open.queries);
}

TEST(ClusterOverload, BreakerOpensOnDeadReplicasAndReCloses) {
  auto cfg = overload_cluster();
  cfg.policy.breaker.enabled = true;
  cfg.policy.breaker.window = 8;
  cfg.policy.breaker.min_samples = 4;
  cfg.policy.breaker.failure_threshold = 0.5;
  cfg.policy.breaker.open_ms = 30;
  const auto r = cloud::simulate_cluster(cfg);
  // Six leaves dead for a second under a 15 ms timeout: breakers trip,
  // short-circuit sends, probe after cooldown, and accumulate open time.
  EXPECT_GT(r.breaker_open_transitions, 0u);
  EXPECT_GT(r.breaker_short_circuits, 0u);
  EXPECT_GT(r.breaker_probes, 0u);
  EXPECT_GT(r.breaker_open_ms, 0.0);
  // With the breaker steering sends away from dead leaves, fewer
  // requests vanish into them.
  const auto bare = cloud::simulate_cluster(overload_cluster());
  EXPECT_LT(r.lost_requests, bare.lost_requests);
}

TEST(ClusterOverload, FullProtectionDeterministicAcrossPools) {
  auto cfg = overload_cluster();
  cfg.leaf_queue.capacity = 4;
  cfg.leaf_queue.discipline = QueueDiscipline::kDeadline;
  cfg.leaf_queue.sojourn_target = 15;
  cfg.policy.budget.enabled = true;
  cfg.policy.admission.enabled = true;
  cfg.policy.admission.rate_qps = 90;
  cfg.policy.admission.max_in_flight = 20;
  cfg.policy.breaker.enabled = true;

  ThreadPool p1(1), p2(2);
  const auto a = cloud::run_cluster_trials(cfg, 4, &p1);
  const auto b = cloud::run_cluster_trials(cfg, 4, &p2);
  EXPECT_EQ(a.queries, b.queries);
  EXPECT_EQ(a.shed_queries, b.shed_queries);
  EXPECT_EQ(a.rejected_requests, b.rejected_requests);
  EXPECT_EQ(a.expired_drops, b.expired_drops);
  EXPECT_EQ(a.breaker_open_transitions, b.breaker_open_transitions);
  EXPECT_EQ(a.breaker_short_circuits, b.breaker_short_circuits);
  EXPECT_EQ(a.breaker_probes, b.breaker_probes);
  EXPECT_DOUBLE_EQ(a.breaker_open_ms, b.breaker_open_ms);
  EXPECT_EQ(a.answered_per_window, b.answered_per_window);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.retries, b.retries);
  EXPECT_DOUBLE_EQ(a.sum_result_quality, b.sum_result_quality);
  EXPECT_DOUBLE_EQ(a.query_ms.quantile(0.99), b.query_ms.quantile(0.99));
}

TEST(ClusterOverload, ScenarioLadderShape) {
  auto cfg = overload_cluster();
  cfg.duration_s = 4;
  cfg.policy = {};  // overload_scenarios installs the client policy
  ThreadPool p1(1);
  const auto ladder = cloud::overload_scenarios(cfg, 1, {}, &p1);
  ASSERT_EQ(ladder.size(), 4u);
  EXPECT_NE(ladder[0].name.find("unprotected"), std::string::npos);
  // Rung 1 has no server-side protection at all.
  EXPECT_EQ(ladder[0].result.rejected_requests, 0u);
  EXPECT_EQ(ladder[0].result.shed_queries, 0u);
  EXPECT_EQ(ladder[0].result.breaker_open_transitions, 0u);
  // Rung 2 bounds the queues; rung 4 runs breakers.
  EXPECT_EQ(ladder[1].config.leaf_queue.capacity, 4u);
  EXPECT_TRUE(ladder[3].config.policy.breaker.enabled);
  EXPECT_TRUE(ladder[3].config.policy.admission.enabled);
  // Every rung saw the identical workload.
  const auto arrivals =
      ladder[0].result.queries + ladder[0].result.shed_queries;
  for (const auto& s : ladder) {
    EXPECT_EQ(s.result.queries + s.result.shed_queries, arrivals) << s.name;
  }
}

TEST(ClusterOverload, ObservabilityDoesNotPerturbOverloadTelemetry) {
  auto cfg = overload_cluster();
  cfg.duration_s = 3;
  cfg.leaf_queue.capacity = 4;
  cfg.leaf_queue.discipline = QueueDiscipline::kDeadline;
  cfg.leaf_queue.sojourn_target = 15;
  cfg.policy.admission.enabled = true;
  cfg.policy.admission.rate_qps = 60;
  cfg.policy.breaker.enabled = true;
  const auto plain = cloud::simulate_cluster(cfg);

  auto& m = obs::MetricsRegistry::global();
  m.set_enabled(true);
  auto traced_cfg = cfg;
  obs::TraceBuffer trace(std::size_t{1} << 18, 1e3);
  traced_cfg.trace = &trace;
  const auto traced = cloud::simulate_cluster(traced_cfg);
  m.set_enabled(false);

  EXPECT_GT(trace.size(), 0u);
  EXPECT_EQ(plain.queries, traced.queries);
  EXPECT_EQ(plain.shed_queries, traced.shed_queries);
  EXPECT_EQ(plain.rejected_requests, traced.rejected_requests);
  EXPECT_EQ(plain.expired_drops, traced.expired_drops);
  EXPECT_EQ(plain.breaker_open_transitions, traced.breaker_open_transitions);
  EXPECT_EQ(plain.breaker_short_circuits, traced.breaker_short_circuits);
  EXPECT_DOUBLE_EQ(plain.breaker_open_ms, traced.breaker_open_ms);
  EXPECT_EQ(plain.answered_per_window, traced.answered_per_window);
  EXPECT_DOUBLE_EQ(plain.sum_result_quality, traced.sum_result_quality);
}

}  // namespace
}  // namespace arch21
