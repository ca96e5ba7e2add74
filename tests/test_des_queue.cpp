// Ladder/calendar event-queue coverage: differential replays against the
// reference binary heap (the determinism contract -- identical execution
// order on identical seeded workloads), plus the edge cases the ladder
// introduces over a single heap: events crossing the ladder/overflow
// boundary, generation-stamped handle reuse, ladder re-fit amortization,
// deferred insertion under reserved seqs, cold starts, and
// large-scale executed()/cancelled() bookkeeping.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "des/reference_heap.hpp"
#include "des/simulator.hpp"
#include "des/workload.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace arch21::des {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 42, 2014};

TEST(DesQueueDifferential, ScheduleHeavyMatchesReferenceHeap) {
  for (const std::uint64_t seed : kSeeds) {
    const WorkloadResult ladder = replay_schedule_heavy<Simulator>(seed, 20000);
    const WorkloadResult ref =
        replay_schedule_heavy<ReferenceSimulator>(seed, 20000);
    EXPECT_EQ(ladder.order, ref.order) << "seed " << seed;
    EXPECT_TRUE(ladder == ref) << "seed " << seed;
  }
}

TEST(DesQueueDifferential, CancelHeavyMatchesReferenceHeap) {
  for (const std::uint64_t seed : kSeeds) {
    const WorkloadResult ladder = replay_cancel_heavy<Simulator>(seed, 5000);
    const WorkloadResult ref =
        replay_cancel_heavy<ReferenceSimulator>(seed, 5000);
    EXPECT_EQ(ladder.order, ref.order) << "seed " << seed;
    EXPECT_TRUE(ladder == ref) << "seed " << seed;
    EXPECT_GT(ladder.cancelled, 0u);  // the workload must exercise cancels
  }
}

TEST(DesQueueDifferential, ClusterLikeMatchesReferenceHeap) {
  for (const std::uint64_t seed : kSeeds) {
    const WorkloadResult ladder =
        replay_cluster_like<Simulator>(seed, 400, 12);
    const WorkloadResult ref =
        replay_cluster_like<ReferenceSimulator>(seed, 400, 12);
    EXPECT_EQ(ladder.order, ref.order) << "seed " << seed;
    EXPECT_TRUE(ladder == ref) << "seed " << seed;
  }
}

// The cluster_powercap timer shape: 25 ms cancellable timeouts per leaf
// call plus periodic 0.5 s and 1 s timers.  Order must match the
// reference heap, and the re-fit amortization gate must hold: a re-fit
// runs only after at least as many executions as it moves events, so
// the kernel can never re-place more events than it executes.
TEST(DesQueueRefit, ThrashShapeMatchesReferenceAndBoundsMoves) {
  for (const std::uint64_t seed : kSeeds) {
    std::uint64_t moves = ~std::uint64_t{0};
    const WorkloadResult ladder =
        replay_refit_thrash<Simulator>(seed, 1500, 20, &moves);
    const WorkloadResult ref =
        replay_refit_thrash<ReferenceSimulator>(seed, 1500, 20);
    EXPECT_EQ(ladder.order, ref.order) << "seed " << seed;
    EXPECT_TRUE(ladder == ref) << "seed " << seed;
    EXPECT_GT(ladder.cancelled, 0u) << "seed " << seed;
    EXPECT_LE(moves, ladder.executed) << "seed " << seed;
  }
}

// Every per-LP kernel inside des::ParallelEngine first anchors on a
// one-event backlog, where the width falls back to a constant (1.0 here,
// a thousand gaps).  The re-fit must rescue it: after the stream runs,
// the width sits within a small factor of kGapsPerBucket (4) mean gaps.
TEST(DesQueueRefit, OneEventSeedRefitsToTheStreamGap) {
  constexpr double kGap = 1e-3;
  Simulator sim;
  obs::TraceBuffer trace(std::size_t{1} << 16);
  sim.set_trace(&trace);
  Rng rng(5);
  std::uint32_t left = 20'000;
  std::function<void()> next = [&] {
    if (--left > 0) sim.schedule(rng.uniform(0.0, 2 * kGap), [&] { next(); });
  };
  sim.schedule_at(0.0, [&] { next(); });
  sim.run();
  EXPECT_EQ(sim.executed(), 20'000u);
  EXPECT_GE(sim.refits(), 1u);
  EXPECT_LE(sim.refit_moves(), sim.executed());
  EXPECT_GE(sim.bucket_width(), 1.0 * kGap);
  EXPECT_LE(sim.bucket_width(), 16.0 * kGap);
  // One des.refit instant per re-fit.
  ASSERT_EQ(trace.dropped(), 0u);
  const std::string json = trace.chrome_json();
  std::uint64_t instants = 0;
  for (std::size_t at = json.find("\"name\":\"des.refit\"");
       at != std::string::npos;
       at = json.find("\"name\":\"des.refit\"", at + 1)) {
    ++instants;
  }
  EXPECT_EQ(instants, sim.refits());
}

// --- deferred insertion and cold anchors -------------------------------

// A presorted arrival stream on a 0.5 ms grid (many exact-time ties,
// among arrivals and with follow-ups), each arrival scheduling a
// follow-up 0.5-2 ms ahead -- also on the grid, so follow-ups tie
// exactly with later arrivals.  kUpFront schedules every arrival before
// run(); kReserved streams them (each arrival schedules its successor)
// under seqs reserved where the up-front loop would have run; kFresh
// streams them with ordinary fresh seqs, under which a tie between a
// follow-up and a later arrival resolves the other way.
enum class Feed { kUpFront, kReserved, kFresh };

template <typename Sim>
std::vector<std::uint32_t> replay_presorted(std::uint64_t seed, Feed feed) {
  constexpr std::uint32_t kArrivals = 4000;
  struct Ctx {
    Sim sim;
    Rng rng;
    std::vector<double> times;
    std::vector<std::uint32_t> order;
    std::uint64_t seq0 = 0;
    Feed feed = Feed::kUpFront;
    explicit Ctx(std::uint64_t s) : rng(s) {}
  };
  auto ctx = std::make_unique<Ctx>(seed);
  Ctx* c = ctx.get();
  c->feed = feed;
  Rng tr(seed, 1);
  double t = 0;
  for (std::uint32_t i = 0; i < kArrivals; ++i) {
    t += 0.5 * static_cast<double>(tr.below(2));  // 0 or 0.5 ms: ties
    c->times.push_back(t);
  }
  struct Arrival {
    Ctx* c;
    std::uint32_t i;
    void operator()() const {
      if (c->feed != Feed::kUpFront && i + 1 < c->times.size()) {
        if (c->feed == Feed::kReserved) {
          c->sim.schedule_reserved(c->times[i + 1], c->seq0 + i + 1,
                                   Arrival{c, i + 1});
        } else {
          c->sim.schedule_at(c->times[i + 1], Arrival{c, i + 1});
        }
      }
      c->order.push_back(i);
      const double ahead = 0.5 * static_cast<double>(1 + c->rng.below(4));
      Ctx* cc = c;
      const std::uint32_t id = 100'000 + i;
      c->sim.schedule(ahead, [cc, id] { cc->order.push_back(id); });
    }
  };
  // A few unrelated early timers, so the stream's seqs do not start at 0.
  c->sim.schedule_at(1.0, [c] { c->order.push_back(900'000); });
  c->sim.schedule_at(7.5, [c] { c->order.push_back(900'001); });
  switch (feed) {
    case Feed::kUpFront:
      for (std::uint32_t i = 0; i < kArrivals; ++i) {
        c->sim.schedule_at(c->times[i], Arrival{c, i});
      }
      break;
    case Feed::kReserved:
      c->seq0 = c->sim.reserve_seqs(kArrivals);
      c->sim.schedule_reserved(c->times[0], c->seq0, Arrival{c, 0});
      break;
    case Feed::kFresh:
      c->sim.schedule_at(c->times[0], Arrival{c, 0});
      break;
  }
  c->sim.run();
  return std::move(c->order);
}

TEST(DesQueueReserved, StreamedReservedSeqsReproduceUpFrontScheduling) {
  for (const std::uint64_t seed : kSeeds) {
    const auto ref = replay_presorted<ReferenceSimulator>(seed, Feed::kUpFront);
    EXPECT_EQ(replay_presorted<Simulator>(seed, Feed::kUpFront), ref)
        << "seed " << seed;
    EXPECT_EQ(replay_presorted<Simulator>(seed, Feed::kReserved), ref)
        << "seed " << seed;
    EXPECT_EQ(replay_presorted<ReferenceSimulator>(seed, Feed::kReserved), ref)
        << "seed " << seed;
    // The ties are real: fresh seqs would reorder them.
    EXPECT_NE(replay_presorted<Simulator>(seed, Feed::kFresh), ref)
        << "seed " << seed;
  }
}

TEST(DesQueueReserved, KeyAtOrBeforeTheFiringEventThrows) {
  Simulator sim;
  const std::uint64_t seq0 = sim.reserve_seqs(4);
  int ran = 0;
  sim.schedule_reserved(2.0, seq0 + 1, [&] {
    ++ran;
    // (2.0, seq0 + 1) is firing: its own key and an earlier seq at the
    // same time are not strictly after it, nor is an earlier time.
    EXPECT_THROW(sim.schedule_reserved(2.0, seq0 + 1, [] {}),
                 std::invalid_argument);
    EXPECT_THROW(sim.schedule_reserved(2.0, seq0, [] {}),
                 std::invalid_argument);
    EXPECT_THROW(sim.schedule_reserved(1.5, seq0 + 2, [] {}),
                 std::invalid_argument);
    // A later seq at the same instant is fine.
    sim.schedule_reserved(2.0, seq0 + 2, [&] { ++ran; });
  });
  // A seq that was never handed out is refused.
  EXPECT_THROW(sim.schedule_reserved(3.0, seq0 + 4, [] {}),
               std::invalid_argument);
  sim.run();
  EXPECT_EQ(ran, 2);
  // After the run, the last executed key is (2.0, seq0 + 2).
  EXPECT_THROW(sim.schedule_reserved(2.0, seq0, [] {}), std::invalid_argument);
  sim.schedule_reserved(2.0, seq0 + 3, [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 3);
}

// Outside a drain the bound is the last *executed* key: a step() action
// is bounded by its own key, and a cancelled event discarded after the
// last execution -- by step() or at the tail of a drain -- does not
// raise it.
TEST(DesQueueReserved, BoundIsTheLastExecutedKeyAcrossDiscards) {
  for (const bool stepped : {true, false}) {
    Simulator sim;
    const std::uint64_t seq0 = sim.reserve_seqs(3);
    int ran = 0;
    EventHandle late;
    sim.schedule_reserved(1.0, seq0 + 1, [&] {
      ++ran;
      EXPECT_THROW(sim.schedule_reserved(1.0, seq0, [] {}),
                   std::invalid_argument);
      sim.cancel(late);
    });
    late = sim.schedule_cancellable_at(3.0, [&] { ++ran; });
    if (stepped) {
      EXPECT_TRUE(sim.step());
      EXPECT_FALSE(sim.step());  // discards the cancelled event at 3.0
    } else {
      sim.run();
    }
    EXPECT_EQ(sim.cancelled(), 1u);
    // (2.0, seq0 + 2) lies between the last execution and the discard.
    sim.schedule_reserved(2.0, seq0 + 2, [&] { ++ran; });
    sim.run();
    EXPECT_EQ(ran, 2) << (stepped ? "step" : "run");
  }
}

// The streamed-arrival shape: the pending backlog is a few far-apart
// timers and the head of a 0.3 ms-gap stream, so a width sized from it
// would be thousands of gaps, every event would land in the cursor
// bucket and the run would collapse into one drain.  Order must match
// the reference heap, in one run() and in run(until) steps, and by the
// probe at 1 s of stream time the width must be within [1, 16] stream
// gaps: the kernel must have waited for execution history to anchor.
TEST(DesQueueColdAnchor, StreamAfterFarTimersFitsWidthAndMatchesReference) {
  constexpr double kGap = 0.3;
  constexpr std::uint32_t kN = 20'000;  // 6 s of stream
  constexpr std::size_t kProbeAt1s = 3;  // probes fire every 250 ms
  for (const std::uint64_t seed : kSeeds) {
    for (const double step : {0.0, 50.0}) {
      std::vector<double> widths;
      const WorkloadResult ladder =
          replay_cold_stream<Simulator>(seed, kN, kGap, step, &widths);
      const WorkloadResult ref =
          replay_cold_stream<ReferenceSimulator>(seed, kN, kGap, step);
      EXPECT_EQ(ladder.order, ref.order) << "seed " << seed << " step " << step;
      EXPECT_TRUE(ladder == ref) << "seed " << seed << " step " << step;
      ASSERT_GT(widths.size(), kProbeAt1s);
      EXPECT_GE(widths[kProbeAt1s], 1.0 * kGap)
          << "seed " << seed << " step " << step;
      EXPECT_LE(widths[kProbeAt1s], 16.0 * kGap)
          << "seed " << seed << " step " << step;
    }
  }
}

// A dense near-future stream anchors the ladder window tightly; events far
// beyond the window must wait in the overflow tier and still fire in
// global timestamp order as the window slides out to them.
TEST(DesQueue, FarFutureEventsCrossTheOverflowBoundary) {
  Simulator sim;
  std::vector<double> fired;
  Rng rng(99);
  auto record = [&fired, &sim] { fired.push_back(sim.now()); };
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_at(rng.uniform(0.0, 1.0), record);
  }
  for (int i = 0; i < 1000; ++i) {
    sim.schedule_at(1e3 + rng.uniform(0.0, 1e6), record);
  }
  // Re-scheduling from inside callbacks keeps pushing past the window.
  sim.schedule_at(0.5, [&sim, record] { sim.schedule(2e6, record); });
  sim.run();
  EXPECT_EQ(fired.size(), 2001u);
  EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  EXPECT_DOUBLE_EQ(fired.back(), 0.5 + 2e6);
  EXPECT_TRUE(sim.idle());
}

TEST(DesQueue, CancelAfterFireReturnsFalse) {
  Simulator sim;
  bool ran = false;
  const EventHandle h = sim.schedule_cancellable(1.0, [&ran] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_FALSE(sim.cancel(h));
  EXPECT_EQ(sim.cancelled(), 0u);
}

TEST(DesQueue, HandleReuseAfterGenerationBump) {
  Simulator sim;
  int fired = 0;
  const EventHandle h1 = sim.schedule_cancellable(1.0, [&fired] { ++fired; });
  sim.run();
  ASSERT_EQ(fired, 1);
  // The fired event's slot went back on the free list; the next
  // cancellable event reuses it under a bumped generation.
  const EventHandle h2 = sim.schedule_cancellable(1.0, [&fired] { ++fired; });
  EXPECT_EQ(h2.slot, h1.slot);
  EXPECT_NE(h2.gen, h1.gen);
  // The stale handle must not be able to cancel the slot's new tenant.
  EXPECT_FALSE(sim.cancel(h1));
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.cancelled(), 0u);
}

// --- batch-drain edge cases (PR8) -------------------------------------
// The SoA ladder drains the whole cursor bucket as one contiguous batch
// fired from a scratch span.  Two things can invalidate the remainder of
// a batch mid-flight: a callback scheduling an event that lands at or
// before the next batched timestamp (an "intruder"), and a callback
// cancelling an event later in the same batch.  Both must reproduce the
// reference heap's (t, seq) execution order element for element.

template <typename Sim>
std::vector<std::uint32_t> replay_batch_intruders(std::uint64_t seed) {
  Sim sim;
  std::vector<std::uint32_t> order;
  Rng rng(seed);
  for (std::uint32_t i = 0; i < 512; ++i) {
    // One narrow cluster, so the whole population shares a ladder bucket
    // and would drain as a single batch.
    const double t = 100.0 + rng.uniform(0.0, 1e-3);
    sim.schedule_at(t, [&order, &sim, i] {
      order.push_back(i);
      if (i % 7 == 0) {
        // Zero-delay intruder: lands at now(), ahead of every remaining
        // batched event with a strictly later timestamp.
        sim.schedule(0.0, [&order, i] { order.push_back(10'000 + i); });
      }
    });
  }
  sim.run();
  return order;
}

TEST(DesQueueBatch, IntrudersScheduledMidBatchPreserveOrder) {
  for (const std::uint64_t seed : kSeeds) {
    const auto ladder = replay_batch_intruders<Simulator>(seed);
    const auto ref = replay_batch_intruders<ReferenceSimulator>(seed);
    EXPECT_EQ(ladder, ref) << "seed " << seed;
  }
}

template <typename Sim>
std::pair<std::vector<std::uint32_t>, std::uint64_t> replay_batch_cancels(
    std::uint64_t seed) {
  using Action = typename Sim::Action;
  using Handle =
      decltype(std::declval<Sim&>().schedule_cancellable_at(0.0, Action{}));
  Sim sim;
  std::vector<std::uint32_t> order;
  Rng rng(seed);
  std::vector<Handle> handles(512);
  for (std::uint32_t i = 0; i < 512; ++i) {
    const double t = 50.0 + rng.uniform(0.0, 1e-3);
    handles[i] =
        sim.schedule_cancellable_at(t, [&order, i] { order.push_back(i); });
  }
  // Cancellers live in the same dense cluster: by construction roughly
  // half their victims are still waiting in the same batch and half have
  // already fired (cancel returns false), and both queues must agree on
  // which is which.
  for (std::uint32_t i = 0; i < 512; i += 4) {
    const double t = 50.0 + rng.uniform(0.0, 1e-3);
    sim.schedule_at(t, [&order, &sim, &handles, i] {
      order.push_back(1'000 + i);
      sim.cancel(handles[(i + 256) % 512]);
    });
  }
  sim.run();
  return {order, sim.cancelled()};
}

TEST(DesQueueBatch, CancelsLandingMidBatchPreserveOrder) {
  for (const std::uint64_t seed : kSeeds) {
    const auto [lad_order, lad_cancelled] = replay_batch_cancels<Simulator>(seed);
    const auto [ref_order, ref_cancelled] =
        replay_batch_cancels<ReferenceSimulator>(seed);
    EXPECT_EQ(lad_order, ref_order) << "seed " << seed;
    EXPECT_EQ(lad_cancelled, ref_cancelled) << "seed " << seed;
    EXPECT_GT(lad_cancelled, 0u) << "seed " << seed;
  }
}

// A PDES logical process runs its kernel in lookahead windows
// (run(until)) and takes cross-LP messages between them.  When a burst
// crowds one ladder bucket, the bucket under the cursor holds hundreds
// of live events, and both the window's own actions and the messages
// between windows insert into it ahead of its tail: mid-drain, past the
// window's end.  The order must still match the reference heap.
template <typename Sim>
WorkloadResult replay_crowded_cursor(std::uint64_t seed) {
  struct Ctx {
    Sim sim;
    Rng rng;
    WorkloadResult out;
    explicit Ctx(std::uint64_t s) : rng(s) {}
  };
  auto ctx = std::make_unique<Ctx>(seed);
  Ctx* c = ctx.get();
  // A sparse background over [0, 1000) sizes the first anchor's width
  // at a few background events per bucket...
  for (std::uint32_t i = 0; i < 1024; ++i) {
    c->sim.schedule_at(c->rng.uniform(0.0, 1000.0),
                       [c, i] { c->out.order.push_back(i); });
  }
  // ...so a 768-event crowd within 1 ms of t = 400 shares one bucket.
  constexpr double kCrowd = 400.0;
  constexpr double kSpan = 1e-3;
  for (std::uint32_t i = 0; i < 768; ++i) {
    c->sim.schedule_at(kCrowd + c->rng.uniform(0.0, kSpan), [c, i] {
      c->out.order.push_back(10'000 + i);
      if (i % 3 == 0) {
        c->sim.schedule(c->rng.uniform(0.0, kSpan / 4),
                        [c, i] { c->out.order.push_back(20'000 + i); });
      }
    });
  }
  for (std::uint32_t w = 0; w < 128; ++w) {
    const double until = kCrowd + w * (kSpan / 64);
    c->sim.run(until);
    c->sim.schedule_at(until + c->rng.uniform(0.0, kSpan),
                       [c, w] { c->out.order.push_back(30'000 + w); });
  }
  c->sim.run();
  c->out.final_now = c->sim.now();
  c->out.executed = c->sim.executed();
  c->out.cancelled = c->sim.cancelled();
  return std::move(c->out);
}

TEST(DesQueueBatch, CrowdedCursorBucketTakesOutOfOrderInserts) {
  for (const std::uint64_t seed : kSeeds) {
    const WorkloadResult ladder = replay_crowded_cursor<Simulator>(seed);
    const WorkloadResult ref = replay_crowded_cursor<ReferenceSimulator>(seed);
    EXPECT_EQ(ladder.order, ref.order) << "seed " << seed;
    EXPECT_TRUE(ladder == ref) << "seed " << seed;
    EXPECT_EQ(ladder.executed, 1024u + 768u + 256u + 128u) << "seed " << seed;
  }
}

// --- large-scale stress differential (PR8) ----------------------------
// Plain + cancellable + far-future overflow traffic with cancels issued
// from inside callbacks at pseudo-random live/dead victims: the full SoA
// surface (sorted buckets, batch drain, purge compaction, overflow
// migration, handle generations) at bench scale.  All randomness is
// consumed in execution order, so any ordering divergence derails the
// replay immediately instead of averaging out.
template <typename Sim>
WorkloadResult replay_stress_mix(std::uint64_t seed, std::uint32_t n) {
  using Action = typename Sim::Action;
  using Handle =
      decltype(std::declval<Sim&>().schedule_cancellable_at(0.0, Action{}));
  struct Ctx {
    Sim sim;
    Rng rng;
    WorkloadResult out;
    std::vector<Handle> handles;
    explicit Ctx(std::uint64_t s) : rng(s) {}
  };
  auto ctx = std::make_unique<Ctx>(seed);
  Ctx* c = ctx.get();
  c->sim.reserve(n);
  c->out.order.reserve(n);
  c->handles.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    double t = c->rng.uniform(0.0, 5000.0);
    if (i % 32 == 0) t = 5000.0 + c->rng.uniform(0.0, 1e7);  // overflow tier
    if (i % 3 == 0) {
      c->handles[i] = c->sim.schedule_cancellable_at(t, [c, i] {
        c->out.order.push_back(i);
        // Fired events kill a pseudo-random cancellable index at or
        // before their own: some victims are live, some already fired
        // or already cancelled, and both queues must agree on each.
        const auto victim =
            3 * static_cast<std::uint32_t>(c->rng.below(i / 3 + 1));
        c->sim.cancel(c->handles[victim]);
      });
    } else {
      c->sim.schedule_at(t, [c, i] { c->out.order.push_back(i); });
    }
  }
  c->sim.run();
  c->out.final_now = c->sim.now();
  c->out.executed = c->sim.executed();
  c->out.cancelled = c->sim.cancelled();
  return std::move(c->out);
}

TEST(DesQueueStress, MillionEventDifferentialMatchesReferenceHeap) {
  for (const std::uint64_t seed : kSeeds) {
    // Full seven-figure replay on one seed; the other seeds run a
    // smaller mix so the sanitizer tier stays inside its time budget.
    const std::uint32_t n = seed == 2014 ? 1'000'000 : 120'000;
    const WorkloadResult ladder = replay_stress_mix<Simulator>(seed, n);
    const WorkloadResult ref = replay_stress_mix<ReferenceSimulator>(seed, n);
    EXPECT_EQ(ladder.order, ref.order) << "seed " << seed;
    EXPECT_TRUE(ladder == ref) << "seed " << seed;
    EXPECT_EQ(ladder.events(), n) << "seed " << seed;
    EXPECT_GT(ladder.cancelled, 0u) << "seed " << seed;
  }
}

TEST(DesQueueStress, MillionEventInvariants) {
  Simulator sim;
  Rng rng(7);
  constexpr std::uint32_t kPlain = 600'000;
  constexpr std::uint32_t kCancellable = 400'000;
  sim.reserve(kPlain + kCancellable);
  std::vector<EventHandle> handles;
  handles.reserve(kCancellable);
  std::uint64_t fired = 0;
  auto count = [&fired] { ++fired; };
  for (std::uint32_t i = 0; i < kPlain + kCancellable; ++i) {
    const double t = rng.uniform(0.0, 1e4);
    if (i % 5 < 2) {  // 2 of 5 cancellable: 400k of the million
      handles.push_back(sim.schedule_cancellable_at(t, count));
    } else {
      sim.schedule_at(t, count);
    }
  }
  ASSERT_EQ(handles.size(), kCancellable);
  std::uint64_t cancels = 0;
  for (std::size_t i = 0; i < handles.size(); i += 2) {
    ASSERT_TRUE(sim.cancel(handles[i]));
    ++cancels;
  }
  sim.run();
  EXPECT_EQ(sim.executed() + sim.cancelled(), kPlain + kCancellable);
  EXPECT_EQ(sim.cancelled(), cancels);
  EXPECT_EQ(fired, kPlain + kCancellable - cancels);
  EXPECT_TRUE(sim.idle());
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace arch21::des
