// Determinism contract of the conservative PDES layer, pinned
// differentially against the serial kernel at every level:
//   * Simulator::schedule_n (the window-commit primitive) against
//     one-at-a-time scheduling and the reference heap;
//   * a generic multi-LP mesh on ParallelEngine at workers 1/2/4/8
//     against LoopbackEngine (one unchanged serial Simulator);
//   * the LP-sharded cluster scenario: whole ClusterResults bit-identical
//     (histograms included) across worker counts, with and without the
//     full policy/fault stack;
//   * lookahead/partition/config validation and cross-LP cancellation
//     across a window boundary;
//   * the worker team: stepped horizons with messages in flight at every
//     stop, Stats pinned to values recorded before the team existed, a
//     handler exception on a member the caller does not run, and the
//     team-size cap.
// The same binary runs under TSan in scripts/tier1.sh (once, then
// repeated as a stress pass), so the barrier discipline -- not just the
// results -- is checked.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/resilience.hpp"
#include "des/partition.hpp"
#include "des/pdes.hpp"
#include "des/pdes_workload.hpp"
#include "des/reference_heap.hpp"
#include "des/simulator.hpp"
#include "des/workload.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "golden_digest.hpp"

namespace {

using namespace arch21;
using namespace arch21::des;

constexpr std::uint64_t kSeeds[] = {2014, 0xC0FFEE, 777};
constexpr unsigned kWorkerCounts[] = {1, 2, 4, 8};
constexpr double kTeamHorizon = 200.0;

// ------------------------------------------------------------ schedule_n

TEST(ScheduleN, MatchesLoopAndReferenceHeap) {
  for (const std::uint64_t seed : kSeeds) {
    const WorkloadResult one = replay_schedule_heavy<Simulator>(seed, 4000);
    const WorkloadResult ref =
        replay_schedule_heavy<ReferenceSimulator>(seed, 4000);
    ASSERT_EQ(one, ref);
    for (const std::uint32_t batch : {1u, 7u, 64u, 4096u}) {
      const WorkloadResult batched =
          replay_schedule_heavy_batched<Simulator>(seed, 4000, batch);
      EXPECT_EQ(batched, one) << "seed=" << seed << " batch=" << batch;
      const WorkloadResult batched_ref =
          replay_schedule_heavy_batched<ReferenceSimulator>(seed, 4000, batch);
      EXPECT_EQ(batched_ref, one) << "seed=" << seed << " batch=" << batch;
    }
  }
}

TEST(ScheduleN, RejectsPastTimesBeforeSchedulingAnything) {
  Simulator sim;
  sim.schedule_at(10.0, [] {});
  sim.run();
  ASSERT_EQ(sim.now(), 10.0);
  int fired = 0;
  Simulator::TimedAction evs[] = {
      {20.0, [&] { ++fired; }},
      {5.0, [&] { ++fired; }},  // in the past -> whole batch rejected
  };
  EXPECT_THROW(sim.schedule_n(evs, 2), std::invalid_argument);
  sim.run();
  EXPECT_EQ(fired, 0) << "a rejected batch must schedule none of its events";
}

// ------------------------------------------------------- engine contract

TEST(PartitionSpec, RejectsZeroLookaheadAndZeroLps) {
  PartitionSpec ok;
  ok.lps = 2;
  ok.lookahead = 0.5;
  EXPECT_NO_THROW(ok.validate());

  PartitionSpec zero_la = ok;
  zero_la.lookahead = 0;  // conservative window would collapse
  EXPECT_THROW(zero_la.validate(), std::invalid_argument);

  PartitionSpec single = ok;
  single.lps = 1;
  single.lookahead = 0;  // rejected even for one LP: keep the contract flat
  EXPECT_THROW(single.validate(), std::invalid_argument);

  PartitionSpec no_lps = ok;
  no_lps.lps = 0;
  EXPECT_THROW(no_lps.validate(), std::invalid_argument);

  ThreadPool pool(1);
  EXPECT_THROW(ParallelEngine(zero_la, pool), std::invalid_argument);
  EXPECT_THROW(LoopbackEngine{zero_la}, std::invalid_argument);
}

TEST(PdesEngine, SendBelowLookaheadThrowsOnBothEngines) {
  PartitionSpec spec;
  spec.lps = 2;
  spec.lookahead = 1.0;
  const Payload p{};

  LoopbackEngine ser(spec);
  ser.lp(1).set_handler([](auto&, const Payload&) {});
  EXPECT_THROW(ser.lp(0).send(1, 0.5, p), std::invalid_argument);
  EXPECT_THROW(ser.lp(0).send(7, 2.0, p), std::invalid_argument);

  ThreadPool pool(1);
  ParallelEngine par(spec, pool);
  par.lp(1).set_handler([](auto&, const Payload&) {});
  EXPECT_THROW(par.lp(0).send(1, 0.5, p), std::invalid_argument);
  EXPECT_THROW(par.lp(0).send(7, 2.0, p), std::invalid_argument);
  // A self-send is a local schedule: no lookahead floor.
  par.lp(0).set_handler([](auto&, const Payload&) {});
  EXPECT_NO_THROW(par.lp(0).send(0, 0.0, p));
}

TEST(PdesEngine, MeshDifferentialAcrossWorkerCounts) {
  PartitionSpec spec;
  spec.lps = 5;
  spec.lookahead = 0.25;
  for (const std::uint64_t seed : kSeeds) {
    LoopbackEngine ser(spec);
    const PdesWorkloadResult want = run_pdes_mesh(ser, seed, 60.0);
    ASSERT_GT(want.executed, 0u);
    ASSERT_GT(want.cancelled, 0u);  // the arm-and-cancel churn is exercised
    std::uint64_t deliveries = 0;
    for (const PdesLpResult& lp : want.lps) deliveries += lp.deliveries;
    ASSERT_GT(deliveries, 0u);

    for (const unsigned workers : kWorkerCounts) {
      ThreadPool pool(workers);
      ParallelEngine par(spec, pool);
      const PdesWorkloadResult got = run_pdes_mesh(par, seed, 60.0);
      EXPECT_EQ(got, want) << "seed=" << seed << " workers=" << workers;
      const ParallelEngine::Stats s = par.stats();
      EXPECT_GT(s.windows, 1u);
      EXPECT_EQ(s.sent, deliveries);       // everything sent ...
      EXPECT_EQ(s.committed, deliveries);  // ... was delivered (full drain)
    }
  }
}

TEST(PdesEngine, RunUntilAlignsClocksAndResumes) {
  PartitionSpec spec;
  spec.lps = 2;
  spec.lookahead = 1.0;
  ThreadPool pool(2);
  ParallelEngine eng(spec, pool);
  // One log per LP: the two LPs run on different workers at once.
  std::vector<double> fired[2];
  for (std::uint32_t i = 0; i < 2; ++i) {
    eng.lp(i).set_handler([](auto&, const Payload&) {});
    for (const double t : {1.0, 2.0, 3.0}) {
      auto& lp = eng.lp(i);
      auto& log = fired[i];
      lp.sim().schedule_at(t, [&log, &lp] { log.push_back(lp.now()); });
    }
  }
  EXPECT_EQ(eng.run(2.5), 4u);  // t=1 and t=2 on both LPs
  EXPECT_EQ(eng.lp(0).now(), 2.5);  // horizon alignment, like Simulator::run
  EXPECT_EQ(eng.lp(1).now(), 2.5);
  EXPECT_EQ(eng.run(), 2u);  // resumes: the two t=3 events remain
  for (const auto& log : fired) {
    EXPECT_EQ(log, (std::vector<double>{1.0, 2.0, 3.0}));
  }
}

TEST(PdesEngine, CrossLpCancelAcrossWindowBoundary) {
  // LP0 arms a local cancellable timer, then a two-hop message exchange
  // (each hop = one lookahead window) comes back and cancels it -- the
  // cancellation crosses two window barriers before the timer's due time.
  PartitionSpec spec;
  spec.lps = 2;
  spec.lookahead = 1.0;

  struct Probe {
    bool timer_fired = false;
    double cancelled_at = -1;
    EventHandle timer{};
  };

  auto drive = [&](auto& eng) {
    auto probe = std::make_unique<Probe>();
    Probe* pr = probe.get();
    eng.lp(0).set_handler([pr](auto& lp, const Payload&) {
      lp.sim().cancel(pr->timer);  // the reply: call off the timer
      pr->cancelled_at = lp.now();
    });
    eng.lp(1).set_handler([](auto& lp, const Payload& p) {
      lp.send(0, 1.0, p);  // bounce straight back
    });
    eng.lp(0).sim().schedule_at(0.0, [pr, &eng] {
      auto& lp = eng.lp(0);
      pr->timer = lp.sim().schedule_cancellable(
          10.0, [pr] { pr->timer_fired = true; });
      lp.send(1, 1.0, Payload{});
    });
    eng.run();
    EXPECT_FALSE(pr->timer_fired);
    EXPECT_EQ(pr->cancelled_at, 2.0);  // two hops after t=0
    EXPECT_EQ(eng.cancelled(), 1u);
  };

  LoopbackEngine ser(spec);
  drive(ser);
  for (const unsigned workers : kWorkerCounts) {
    ThreadPool pool(workers);
    ParallelEngine par(spec, pool);
    drive(par);
    EXPECT_GE(par.stats().windows, 2u);
  }
}

// ------------------------------------------------------------ worker team

/// Engine adapter for run_pdes_mesh: its run() stops at every horizon in
/// `stops` before running to completion, and calls `at_stop` after each
/// stop.
template <class Engine, class AtStop>
struct SteppedEngine {
  Engine& eng;
  std::vector<double> stops;
  AtStop at_stop;

  std::uint32_t lps() const { return eng.lps(); }
  double lookahead() const { return eng.lookahead(); }
  auto& lp(std::uint32_t i) { return eng.lp(i); }
  std::uint64_t executed() const { return eng.executed(); }
  std::uint64_t cancelled() const { return eng.cancelled(); }
  std::uint64_t run() {
    std::uint64_t n = 0;
    for (const double t : stops) {
      n += eng.run(t);
      at_stop(eng, t);
    }
    return n + eng.run();
  }
};

template <class Engine, class AtStop>
SteppedEngine<Engine, AtStop> stepped(Engine& eng, AtStop at_stop) {
  std::vector<double> stops;
  for (double t = 6.1; t < kTeamHorizon; t += 7.3) stops.push_back(t);
  return {eng, std::move(stops), at_stop};
}

// Wide enough windows that several cross-LP messages are always in
// flight (sent, not yet delivered) -- including at every stepped stop.
PartitionSpec team_spec() {
  PartitionSpec spec;
  spec.lps = 8;
  spec.lookahead = 4.0;
  return spec;
}

// A stop leaves the in-flight messages of the last window in one parity
// buffer; the next run() must still deliver them, in canonical order.
TEST(PdesEngine, SteppedHorizonsMatchLoopbackWithMessagesInFlight) {
  const PartitionSpec spec = team_spec();
  LoopbackEngine ser(spec);
  const PdesWorkloadResult want = run_pdes_mesh(ser, kSeeds[0], kTeamHorizon);

  LoopbackEngine ser_stepped(spec);
  auto ser_stops = stepped(ser_stepped, [](LoopbackEngine&, double) {});
  EXPECT_EQ(run_pdes_mesh(ser_stops, kSeeds[0], kTeamHorizon), want);

  for (const unsigned workers : kWorkerCounts) {
    ThreadPool pool(workers);
    ParallelEngine par(spec, pool);
    std::size_t stops = 0;
    auto eng = stepped(par, [&](ParallelEngine& e, double t) {
      ++stops;
      const ParallelEngine::Stats s = e.stats();
      EXPECT_GT(s.sent, s.committed)
          << "nothing in flight at t=" << t << " workers=" << workers;
      for (std::uint32_t i = 0; i < e.lps(); ++i) {
        EXPECT_EQ(e.lp(i).now(), t) << "lp=" << i;
      }
    });
    EXPECT_EQ(run_pdes_mesh(eng, kSeeds[0], kTeamHorizon), want)
        << "workers=" << workers;
    EXPECT_EQ(stops, eng.stops.size());
    const ParallelEngine::Stats s = par.stats();
    // Recorded on the fork/join engine the team replaced.
    EXPECT_EQ(s.windows, 57u) << "workers=" << workers;
    EXPECT_EQ(s.sent, 387u) << "workers=" << workers;
    EXPECT_EQ(s.committed, 387u) << "workers=" << workers;
    EXPECT_EQ(s.max_pending, 5u) << "workers=" << workers;
  }
}

// Stats are folded from barrier state, so they are the same at every
// worker count -- and the same as the fork/join engine the team
// replaced, whose values these are.
TEST(PdesEngine, StatsPinnedAcrossWorkerCounts) {
  const PartitionSpec spec = team_spec();
  for (const unsigned workers : kWorkerCounts) {
    ThreadPool pool(workers);
    ParallelEngine par(spec, pool);
    const PdesWorkloadResult got = run_pdes_mesh(par, kSeeds[0], kTeamHorizon);
    const ParallelEngine::Stats s = par.stats();
    EXPECT_EQ(s.windows, 50u) << "workers=" << workers;
    EXPECT_EQ(s.sent, 387u) << "workers=" << workers;
    EXPECT_EQ(s.committed, 387u) << "workers=" << workers;
    EXPECT_EQ(s.max_pending, 6u) << "workers=" << workers;
    EXPECT_EQ(s.executed, 1965u) << "workers=" << workers;
    EXPECT_EQ(s.cancelled, 1544u) << "workers=" << workers;
    EXPECT_EQ(got.executed, s.executed);
  }
}

TEST(PdesEngine, HandlerExceptionOnAnotherMemberIsRethrown) {
  PartitionSpec spec;
  spec.lps = 4;
  spec.lookahead = 1.0;
  for (const unsigned workers : {2u, 4u, 8u}) {
    ThreadPool pool(workers);
    {
      ParallelEngine eng(spec, pool);
      // LP 1 belongs to member 1 whenever the team has two members or
      // more; the caller is member 0.
      for (std::uint32_t i = 0; i < spec.lps; ++i) {
        auto& lp = eng.lp(i);
        lp.set_handler([](auto&, const Payload&) {});
        for (int k = 0; k < 20; ++k) {
          lp.sim().schedule_at(0.5 * k, [&lp, i, k] {
            if (i == 1 && k == 9) throw std::runtime_error("lp 1 failed");
            lp.send((i + 1) % 4, 1.0, Payload{});
          });
        }
      }
      EXPECT_THROW(eng.run(), std::runtime_error) << "workers=" << workers;
    }  // the engine tears down with the team already gone
    // Every member returned its pool thread: the pool runs a fresh
    // engine to the loopback result.
    const PartitionSpec mesh = team_spec();
    LoopbackEngine ser(mesh);
    ParallelEngine par(mesh, pool);
    EXPECT_EQ(run_pdes_mesh(par, kSeeds[1], kTeamHorizon),
              run_pdes_mesh(ser, kSeeds[1], kTeamHorizon))
        << "workers=" << workers;
  }
}

TEST(PdesEngine, TeamIsCappedByPoolLpsAndCores) {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  PartitionSpec spec;
  spec.lookahead = 1.0;
  struct Case {
    unsigned pool, lps;
  };
  for (const Case c : {Case{8, 3}, Case{2, 8}, Case{8, 8}, Case{1, 8}}) {
    spec.lps = c.lps;
    ThreadPool pool(c.pool);
    ParallelEngine eng(spec, pool);
    EXPECT_EQ(eng.team_size(), std::min({c.pool, c.lps, hw}))
        << "pool=" << c.pool << " lps=" << c.lps;
    for (std::uint32_t i = 0; i < c.lps; ++i) {
      eng.lp(i).sim().schedule_at(1.0 + i, [] {});
    }
    eng.run();
    const auto times = eng.member_times();
    ASSERT_EQ(times.size(), eng.team_size());
    for (const auto& t : times) EXPECT_GT(t.busy_ns + t.wait_ns, 0u);
  }
}

// ------------------------------------------------------ cluster scenario

cloud::ClusterConfig small_pdes_config(std::uint64_t seed) {
  cloud::ClusterConfig cfg;
  cfg.leaves = 12;
  cfg.query_rate_hz = 40;
  cfg.background_rate_hz = 20;
  cfg.duration_s = 3;
  cfg.seed = seed;
  cfg.goodput_window_s = 1;
  cfg.net_latency_ms = 0.5;
  cfg.leaf_groups = 3;
  return cfg;
}

cloud::ClusterConfig stacked_pdes_config(std::uint64_t seed) {
  cloud::ClusterConfig cfg;
  cfg.leaves = 10;
  cfg.query_rate_hz = 60;
  cfg.background_rate_hz = 40;
  cfg.duration_s = 4;
  cfg.seed = seed;
  cfg.goodput_window_s = 1;
  cfg.net_latency_ms = 1.0;
  cfg.leaf_groups = 4;
  cfg.leaf_queue.capacity = 16;
  cfg.leaf_queue.discipline = des::QueueDiscipline::kDeadline;
  cfg.leaf_queue.sojourn_target = 30;
  cfg.faults.enabled = true;
  cfg.faults.leaves_per_domain = 5;
  cfg.faults.burst_leaves = 3;
  cfg.faults.burst_start_s = 1.0;
  cfg.faults.burst_duration_s = 0.5;
  cfg.policy.retry.timeout_ms = 25;
  cfg.policy.retry.max_retries = 2;
  cfg.policy.budget.enabled = true;
  cfg.policy.budget.ratio = 0.2;
  cfg.policy.hedge_after_ms = 15;
  cfg.policy.quorum.quorum_fraction = 0.7;
  cfg.policy.quorum.deadline_ms = 60;
  cfg.policy.admission.enabled = true;
  cfg.policy.admission.rate_qps = 80;
  cfg.policy.admission.max_in_flight = 50;
  cfg.policy.breaker.enabled = true;
  return cfg;
}

TEST(ClusterPdes, BitIdenticalAcrossWorkerCounts) {
  for (const std::uint64_t seed : kSeeds) {
    cloud::ClusterConfig cfg = small_pdes_config(seed);
    const cloud::ClusterResult want = cloud::simulate_cluster(cfg);
    EXPECT_GT(want.queries, 0u);
    for (const unsigned workers : kWorkerCounts) {
      cfg.workers = workers;
      const cloud::ClusterResult got = cloud::simulate_cluster(cfg);
      EXPECT_TRUE(got == want) << "seed " << seed << ", workers " << workers;
    }
  }
}

TEST(ClusterPdes, BitIdenticalWithFullPolicyAndFaultStack) {
  cloud::ClusterConfig cfg = stacked_pdes_config(kSeeds[0]);
  const cloud::ClusterResult want = cloud::simulate_cluster(cfg);
  EXPECT_GT(want.queries, 0u);
  EXPECT_GT(want.leaf_failures, 0u);
  for (const unsigned workers : kWorkerCounts) {
    cfg.workers = workers;
    const cloud::ClusterResult got = cloud::simulate_cluster(cfg);
    EXPECT_TRUE(got == want) << "workers " << workers;
  }
}

// Constant net latency makes two leaf groups answer the root at the
// bit-identical instant all the time.  After a breaker redirect the
// global send order is no longer group order, so the loopback engine
// must deliver same-instant messages in the parallel engine's canonical
// (t, sent_at, src, seq) order, or the rejects trip breakers in a
// different order and the breaker stream's cooldown draws diverge.
TEST(ClusterPdes, SameInstantRepliesKeepLoopbackIdentical) {
  cloud::ClusterConfig cfg;
  cfg.leaves = 32;
  cfg.leaf_groups = 4;
  cfg.query_rate_hz = 200;
  cfg.leaf_service_ms = 3.0;
  cfg.background_ms = 2.0;
  cfg.duration_s = 1;
  cfg.seed = 2014;
  cfg.net_latency_ms = 1.0;
  cfg.policy.retry.timeout_ms = 25;
  cfg.policy.retry.max_retries = 2;
  cfg.leaf_queue.capacity = 4;
  cfg.leaf_queue.discipline = des::QueueDiscipline::kDeadline;
  cfg.leaf_queue.sojourn_target = 25;
  cfg.policy.breaker.enabled = true;
  const cloud::ClusterResult want = cloud::simulate_cluster(cfg);
  EXPECT_GT(want.breaker_open_transitions, 0u);
  EXPECT_GT(want.rejected_requests, 0u);
  for (const unsigned workers : {1u, 4u}) {
    cfg.workers = workers;
    EXPECT_TRUE(cloud::simulate_cluster(cfg) == want) << "workers " << workers;
  }
}

TEST(ClusterPdes, ConfigValidationRejections) {
  cloud::ClusterConfig cfg = small_pdes_config(kSeeds[0]);

  cloud::ClusterConfig no_net = cfg;
  no_net.net_latency_ms = 0;
  no_net.workers = 2;  // nothing for the conservative window to hide behind
  EXPECT_THROW(cloud::simulate_cluster(no_net), std::invalid_argument);

  cloud::ClusterConfig too_many_groups = cfg;
  too_many_groups.leaf_groups = cfg.leaves + 1;
  EXPECT_THROW(cloud::simulate_cluster(too_many_groups),
               std::invalid_argument);

  cloud::ClusterConfig bad_net = cfg;
  bad_net.net_latency_ms = -1;
  EXPECT_THROW(cloud::simulate_cluster(bad_net), std::invalid_argument);

  // trials x workers would oversubscribe the pool; one axis at a time.
  cloud::ClusterConfig with_workers = cfg;
  with_workers.workers = 2;
  EXPECT_THROW(cloud::run_cluster_trials(with_workers, 2),
               std::invalid_argument);
}

// The stacked PDES scenario plus gray detection, pinned to the digest
// recorded before the client-policy core was shared across engines
// (tests/golden_digest.hpp), at every engine: the serial loopback
// reference and the parallel engine at 1 and 4 workers.
TEST(GoldenDigest, StackedPdesWithGrayDetection) {
  cloud::ClusterConfig cfg = stacked_pdes_config(kSeeds[0]);
  cfg.policy.gray.enabled = true;
  cfg.policy.gray.eval_interval_ms = 100;
  for (const unsigned workers : {0u, 1u, 4u}) {
    cfg.workers = workers;
    const cloud::ClusterResult r = cloud::simulate_cluster(cfg);
    EXPECT_GT(r.breaker_open_transitions, 0u) << "workers=" << workers;
    EXPECT_GT(r.hedges, 0u) << "workers=" << workers;
    EXPECT_EQ(golden::digest(r), 0x59f227ba6e5252e7ULL)
        << "workers=" << workers;
  }
}

// The same pin with a trace ring attached and the metrics registry on, on
// the engines one ring may trace (the serial loopback reference and the
// parallel engine at one worker): observability stays read-only on the
// sharded transport too, and the ring absorbs the whole run.
TEST(GoldenDigest, StackedPdesWithGrayDetectionTracedAndMetered) {
  cloud::ClusterConfig cfg = stacked_pdes_config(kSeeds[0]);
  cfg.policy.gray.enabled = true;
  cfg.policy.gray.eval_interval_ms = 100;
  auto& m = obs::MetricsRegistry::global();
  for (const unsigned workers : {0u, 1u}) {
    m.reset();
    m.set_enabled(true);
    obs::TraceBuffer trace(std::size_t{1} << 20, 1e3);
    cfg.workers = workers;
    cfg.trace = &trace;
    const cloud::ClusterResult r = cloud::simulate_cluster(cfg);
    m.set_enabled(false);
    EXPECT_EQ(golden::digest(r), 0x59f227ba6e5252e7ULL)
        << "workers=" << workers;
    EXPECT_GT(trace.size(), 0u) << "workers=" << workers;
    EXPECT_EQ(trace.dropped(), 0u) << "workers=" << workers;
  }
  m.reset();
}

// A guard table over generated configs (golden::generated_cluster_config):
// twelve at zero latency, four of them power-capped (one per policy) and
// eight with gray injection (two per burst mode, one of each pair also
// replaying an episode trace), and twelve at a network latency, each run
// at workers 0, 1 and 4.  Every digest was recorded once and must not be
// re-recorded: a refactor of the cluster engine that moves one changed
// results.
TEST(GoldenDigest, GeneratedClusterConfigs) {
  constexpr std::uint64_t kZeroLatency[12] = {
      0x2d9aadff691ec01dULL, 0x64f1140abd8455b5ULL, 0x02564710490ad2b7ULL,
      0x7e05394243cc72d3ULL, 0x915d0ef84648f7d6ULL, 0x1f888a07931eeaa6ULL,
      0x7d16916b98afff39ULL, 0xf76c5e8b1cf934cfULL, 0x99482f93834f57abULL,
      0x11b7ae6eae280207ULL, 0x0aab01f4fabd1b4eULL, 0x8d66311684219e0aULL,
  };
  constexpr std::uint64_t kNetLatency[12] = {
      0x10b98029080e0e9cULL, 0xb813816ab6dc8bd3ULL, 0x78e5e228c8338c86ULL,
      0x4d8faefc161ed178ULL, 0x6727f821dab123e2ULL, 0x4d2c18156aa91a65ULL,
      0x404ab8683185e342ULL, 0x1930d1dbd6737b65ULL, 0xba9ac92dacdc497aULL,
      0xa229b62d1d16bcadULL, 0x4c82f16e90784944ULL, 0xf8a1956e4c209618ULL,
  };
  Rng g(0x6E4E);
  // Per half: configs with rack domains, with a crash burst, and with
  // gray detection on.
  unsigned domains[2] = {}, bursts[2] = {}, detected[2] = {};
  auto tally = [&](int half, const cloud::ClusterConfig& cfg) {
    domains[half] += cfg.faults.enabled && cfg.faults.leaves_per_domain > 0;
    bursts[half] += cfg.faults.burst_enabled();
    detected[half] += cfg.policy.gray.enabled;
  };
  for (unsigned i = 0; i < 12; ++i) {
    const cloud::ClusterConfig cfg =
        golden::generated_cluster_config(g, 0.0, i);
    tally(0, cfg);
    const cloud::ClusterResult r = cloud::simulate_cluster(cfg);
    EXPECT_GT(r.queries, 0u) << "zero latency #" << i;
    EXPECT_EQ(golden::digest(r), kZeroLatency[i])
        << "zero latency #" << i << std::hex << " got 0x" << golden::digest(r);
  }
  for (unsigned i = 0; i < 12; ++i) {
    cloud::ClusterConfig cfg = golden::generated_cluster_config(
        g, 0.5 + 0.5 * static_cast<double>(i % 4), i);
    tally(1, cfg);
    for (const unsigned workers : {0u, 1u, 4u}) {
      cfg.workers = workers;
      const cloud::ClusterResult r = cloud::simulate_cluster(cfg);
      EXPECT_GT(r.queries, 0u) << "net latency #" << i;
      EXPECT_EQ(golden::digest(r), kNetLatency[i])
          << "net latency #" << i << " workers=" << workers << std::hex
          << " got 0x" << golden::digest(r);
    }
  }
  // The table exercises what it claims to guard.
  for (const int half : {0, 1}) {
    EXPECT_GT(domains[half], 0u) << "half " << half;
    EXPECT_GT(bursts[half], 0u) << "half " << half;
    EXPECT_GT(detected[half], 0u) << "half " << half;
  }
}

}  // namespace
