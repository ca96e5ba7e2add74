#pragma once
// Seeded DES queue workloads, templated over the simulator implementation
// so the exact same event program replays through the production ladder
// queue (des::Simulator) and the reference binary heap
// (des::ReferenceSimulator).  Every executed event appends its id to the
// replay's order log; the differential determinism check
// (tests/test_des_queue.cpp and bench/bench_des_queue.cpp) asserts the
// two logs are identical element-for-element.
//
// All randomness comes from one Rng consumed inside event callbacks in
// execution order, so identical execution order implies identical draws
// -- and any ordering divergence between the two queues derails the
// comparison immediately rather than hiding in aggregate stats.

#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace arch21::des {

/// Execution-order log plus final kernel counters of one replay.
struct WorkloadResult {
  std::vector<std::uint32_t> order;
  double final_now = 0;
  std::uint64_t executed = 0;
  std::uint64_t cancelled = 0;
  /// Total queue operations the workload performed (events executed +
  /// cancelled discards); the events/sec numerator for benches.
  std::uint64_t events() const noexcept { return executed + cancelled; }

  bool operator==(const WorkloadResult&) const = default;
};

/// Schedule-heavy: `n` events pre-scheduled over a wide horizon, one in
/// 16 flung far into the future so the stream keeps crossing the
/// ladder/overflow boundary.  Exercises bulk insertion and draining.
template <typename Sim>
WorkloadResult replay_schedule_heavy(std::uint64_t seed, std::uint32_t n) {
  Sim sim;
  sim.reserve(n);
  WorkloadResult out;
  out.order.reserve(n);
  Rng rng(seed);
  for (std::uint32_t i = 0; i < n; ++i) {
    double t = rng.uniform(0.0, 1000.0);
    if (i % 16 == 0) t = 1000.0 + rng.uniform(0.0, 1e6);
    sim.schedule_at(t, [&out, i] { out.order.push_back(i); });
  }
  sim.run();
  out.final_now = sim.now();
  out.executed = sim.executed();
  out.cancelled = sim.cancelled();
  return out;
}

/// The schedule-heavy program again, but fed through the batch
/// schedule_n() API in spans of `batch` events.  Times, ids, and span
/// order match replay_schedule_heavy(seed, n) exactly, so the order log
/// must be identical to the one-at-a-time replay on the same kernel (and
/// to the reference heap's) -- the differential check for schedule_n's
/// amortized bookkeeping.  This is also the PDES window-commit shape: a
/// sorted span of cross-LP messages committed in one call.
template <typename Sim>
WorkloadResult replay_schedule_heavy_batched(std::uint64_t seed,
                                             std::uint32_t n,
                                             std::uint32_t batch = 64) {
  using TimedAction = typename Sim::TimedAction;
  Sim sim;
  sim.reserve(n);
  WorkloadResult out;
  out.order.reserve(n);
  Rng rng(seed);
  if (batch == 0) batch = 1;
  std::vector<TimedAction> span;
  span.reserve(batch);
  for (std::uint32_t i = 0; i < n; ++i) {
    double t = rng.uniform(0.0, 1000.0);
    if (i % 16 == 0) t = 1000.0 + rng.uniform(0.0, 1e6);
    span.push_back(TimedAction{t, [&out, i] { out.order.push_back(i); }});
    if (span.size() == batch) {
      sim.schedule_n(span.data(), span.size());
      span.clear();
    }
  }
  sim.schedule_n(span.data(), span.size());
  sim.run();
  out.final_now = sim.now();
  out.executed = sim.executed();
  out.cancelled = sim.cancelled();
  return out;
}

/// Cancel-heavy: the timeout-per-call pattern of the resilience layer.
/// Each of `calls` arrivals issues a completion plus a cancellable
/// timeout; the completion cancels the timeout (most timeouts die
/// unfired), a fired timeout issues one retry.  Arrivals are 1000x denser
/// than the timeout horizon, so thousands of cancellable events are
/// outstanding at once -- the regime where the reference heap pays a hash
/// insert+find+erase and an O(log n) big-heap pop per event.
template <typename Sim>
WorkloadResult replay_cancel_heavy(std::uint64_t seed, std::uint32_t calls) {
  using Action = typename Sim::Action;
  using Handle =
      decltype(std::declval<Sim&>().schedule_cancellable_at(0.0, Action{}));
  struct Ctx {
    Sim sim;
    Rng rng;
    WorkloadResult out;
    std::vector<Handle> timeouts;
    explicit Ctx(std::uint64_t seed) : rng(seed) {}
  };
  auto ctx = std::make_unique<Ctx>(seed);
  Ctx* c = ctx.get();
  c->sim.reserve(calls);
  c->out.order.reserve(std::size_t{4} * calls);
  c->timeouts.resize(calls);
  constexpr double kTimeout = 5.0;
  double t = 0;
  for (std::uint32_t i = 0; i < calls; ++i) {
    t += c->rng.exponential(0.001);
    c->sim.schedule_at(t, [c, i] {
      c->out.order.push_back(4 * i);
      const double service = c->rng.exponential(1.5);
      c->sim.schedule(service, [c, i] {
        c->out.order.push_back(4 * i + 1);
        c->sim.cancel(c->timeouts[i]);
      });
      c->timeouts[i] = c->sim.schedule_cancellable(kTimeout, [c, i] {
        c->out.order.push_back(4 * i + 2);
        const double retry = c->rng.exponential(1.5);
        c->sim.schedule(retry, [c, i] { c->out.order.push_back(4 * i + 3); });
      });
    });
  }
  c->sim.run();
  c->out.final_now = c->sim.now();
  c->out.executed = c->sim.executed();
  c->out.cancelled = c->sim.cancelled();
  return std::move(c->out);
}

/// Cluster-like replay: fan-out query bursts with per-leaf timeouts and a
/// per-query deadline, mimicking the cloud cluster's event mix (bursts of
/// simultaneous near-future completions, timers that almost always
/// cancel, occasional retries).
template <typename Sim>
WorkloadResult replay_cluster_like(std::uint64_t seed, std::uint32_t queries,
                                   std::uint32_t fanout) {
  using Action = typename Sim::Action;
  using Handle =
      decltype(std::declval<Sim&>().schedule_cancellable_at(0.0, Action{}));
  struct Ctx {
    Sim sim;
    Rng rng;
    WorkloadResult out;
    std::vector<Handle> timeouts;   // one per (query, leaf)
    std::vector<Handle> deadlines;  // one per query
    std::vector<std::uint32_t> replied;
    std::uint32_t fanout = 0;
    explicit Ctx(std::uint64_t seed) : rng(seed) {}
  };
  auto ctx = std::make_unique<Ctx>(seed);
  Ctx* c = ctx.get();
  c->sim.reserve(std::size_t{2} * queries * fanout);
  c->out.order.reserve(std::size_t{3} * queries * (fanout + 1));
  c->timeouts.resize(std::size_t{1} * queries * fanout);
  c->deadlines.resize(queries);
  c->replied.assign(queries, 0);
  c->fanout = fanout;
  constexpr double kLeafTimeout = 6.0;
  constexpr double kDeadline = 20.0;
  const std::uint32_t stride = 4 * fanout + 2;
  double t = 0;
  for (std::uint32_t q = 0; q < queries; ++q) {
    t += c->rng.exponential(1.0);
    const std::uint32_t base = q * stride;
    c->sim.schedule_at(t, [c, q, base] {
      c->out.order.push_back(base);
      c->deadlines[q] = c->sim.schedule_cancellable(
          kDeadline, [c, base] { c->out.order.push_back(base + 1); });
      for (std::uint32_t l = 0; l < c->fanout; ++l) {
        const std::uint32_t call = q * c->fanout + l;
        const double service = c->rng.exponential(2.0);
        c->sim.schedule(service, [c, q, base, l, call] {
          c->out.order.push_back(base + 2 + l);
          c->sim.cancel(c->timeouts[call]);
          if (++c->replied[q] == c->fanout) c->sim.cancel(c->deadlines[q]);
        });
        c->timeouts[call] = c->sim.schedule_cancellable(
            kLeafTimeout, [c, base, l, call] {
              c->out.order.push_back(base + 2 + c->fanout + l);
              const double retry = c->rng.exponential(2.0);
              c->sim.schedule(retry, [c, base, l] {
                c->out.order.push_back(base + 2 + 2 * c->fanout + l);
              });
            });
      }
    });
  }
  c->sim.run();
  c->out.final_now = c->sim.now();
  c->out.executed = c->sim.executed();
  c->out.cancelled = c->sim.cancelled();
  return std::move(c->out);
}

/// Refit-thrash replay: the timer shape of the cluster_powercap scenario
/// (times in ms).  Queries arrive at 160 qps and fan out to `fanout`
/// leaf calls of ~3 ms lognormal service, each guarded by a 25 ms
/// cancellable timeout that the reply cancels (a fired timeout retries
/// once); a 1 s window timer and a 0.5 s power-window timer re-arm
/// themselves until the last arrival.  Nonzero execution gaps are
/// bursty -- a fan-out's replies packed into a few ms, then idle until
/// the next arrival -- so a ladder gap estimator that averages over less
/// than one such cycle swings by more than 2x every few dozen events,
/// and without an amortized re-fit each event moves several times.
/// When `refit_moves` is given and
/// the kernel counts re-fits (des::Simulator), it receives the kernel's
/// refit_moves() after the run.
template <typename Sim>
WorkloadResult replay_refit_thrash(std::uint64_t seed, std::uint32_t queries,
                                   std::uint32_t fanout,
                                   std::uint64_t* refit_moves = nullptr) {
  using Action = typename Sim::Action;
  using Handle =
      decltype(std::declval<Sim&>().schedule_cancellable_at(0.0, Action{}));
  struct Ctx {
    Sim sim;
    Rng rng;
    WorkloadResult out;
    std::vector<Handle> timeouts;  // one per (query, leaf)
    std::uint32_t fanout = 0;
    std::uint32_t timer_ids = 0;  // first id of the timer range
    double horizon = 0;
    explicit Ctx(std::uint64_t seed) : rng(seed) {}
  };
  auto ctx = std::make_unique<Ctx>(seed);
  Ctx* c = ctx.get();
  constexpr double kTimeoutMs = 25.0;
  const double mu = std::log(3.0);  // median service 3 ms
  const std::uint32_t stride = 3 * fanout + 1;
  c->sim.reserve(std::size_t{2} * queries * fanout);
  c->out.order.reserve(std::size_t{2} * queries * (fanout + 1));
  c->timeouts.resize(std::size_t{1} * queries * fanout);
  c->fanout = fanout;
  c->timer_ids = queries * stride;
  double t = 0;
  for (std::uint32_t q = 0; q < queries; ++q) {
    t += c->rng.exponential(1000.0 / 160.0);
    const std::uint32_t base = q * stride;
    c->sim.schedule_at(t, [c, q, base, mu] {
      c->out.order.push_back(base);
      for (std::uint32_t l = 0; l < c->fanout; ++l) {
        const std::uint32_t call = q * c->fanout + l;
        c->sim.schedule(c->rng.lognormal(mu, 0.35), [c, base, l, call] {
          c->out.order.push_back(base + 1 + l);
          c->sim.cancel(c->timeouts[call]);
        });
        c->timeouts[call] = c->sim.schedule_cancellable(
            kTimeoutMs, [c, base, l, mu] {
              c->out.order.push_back(base + 1 + c->fanout + l);
              c->sim.schedule(c->rng.lognormal(mu, 0.35), [c, base, l] {
                c->out.order.push_back(base + 1 + 2 * c->fanout + l);
              });
            });
      }
    });
  }
  c->horizon = t;
  // Self-re-arming periodic timers: `id` distinguishes the two streams.
  struct Periodic {
    Ctx* c;
    double period;
    std::uint32_t id;
    void operator()() const {
      c->out.order.push_back(c->timer_ids + id);
      if (c->sim.now() + period <= c->horizon) c->sim.schedule(period, *this);
    }
  };
  c->sim.schedule_at(1000.0, Periodic{c, 1000.0, 0});
  c->sim.schedule_at(500.0, Periodic{c, 500.0, 1});
  c->sim.run();
  if constexpr (requires { c->sim.refit_moves(); }) {
    if (refit_moves) *refit_moves = c->sim.refit_moves();
  }
  c->out.final_now = c->sim.now();
  c->out.executed = c->sim.executed();
  c->out.cancelled = c->sim.cancelled();
  return std::move(c->out);
}

/// Cold-anchor replay (times in ms): the kernel's first anchor sees only
/// a few far-apart timers -- a self-re-arming 250 ms probe and two
/// one-shots at 50% and 80% of the horizon -- plus the head of a
/// self-perpetuating stream of `n` elements with exponential gaps of
/// mean `gap_ms`.  Each element also issues a call: a reply 1-3 ms
/// ahead (one in 64 straggles to 200 ms) that cancels the call's 150 ms
/// cancellable timeout, so about 150 ms of timeouts stay pending behind
/// every new reply, as in an open-loop client with per-call timeouts.
/// This is an arrival stream fed to the kernel one element at a time:
/// a first bucket width sized from the backlog would be thousands of
/// stream gaps, and unless the kernel waits for execution history to
/// anchor (des::Simulator's cold start), the run becomes one drain in
/// which every reply is spliced in ahead of all pending timeouts.  `step_ms` > 0 runs the replay in run(until) steps of that
/// length.  `widths`, if given and the kernel reports bucket_width(),
/// receives the width each time the probe fires.
template <typename Sim>
WorkloadResult replay_cold_stream(std::uint64_t seed, std::uint32_t n,
                                  double gap_ms, double step_ms = 0,
                                  std::vector<double>* widths = nullptr) {
  using Action = typename Sim::Action;
  using Handle =
      decltype(std::declval<Sim&>().schedule_cancellable_at(0.0, Action{}));
  struct Ctx {
    Sim sim;
    Rng rng;
    WorkloadResult out;
    std::vector<Handle> timeouts;  // one per element
    std::uint32_t n = 0;
    double gap = 0;
    double horizon = 0;
    std::uint32_t probes = 0;
    std::vector<double>* widths = nullptr;
    explicit Ctx(std::uint64_t seed) : rng(seed) {}
  };
  auto ctx = std::make_unique<Ctx>(seed);
  Ctx* c = ctx.get();
  c->widths = widths;
  c->n = n;
  c->gap = gap_ms;
  c->horizon = gap_ms * n;
  c->timeouts.resize(n);
  c->out.order.reserve(std::size_t{2} * n + 64);
  // Element i logs id 3i, its reply 3i+1, its (rarely fired) timeout
  // 3i+2, and schedules element i+1.
  struct Element {
    Ctx* c;
    std::uint32_t i;
    void operator()() const {
      c->out.order.push_back(3 * i);
      Ctx* cc = c;
      const std::uint32_t k = i;
      const double reply =
          k % 64 == 63 ? 200.0 : c->rng.uniform(1.0, 3.0);
      c->sim.schedule(reply, [cc, k] {
        cc->out.order.push_back(3 * k + 1);
        cc->sim.cancel(cc->timeouts[k]);
      });
      c->timeouts[k] = c->sim.schedule_cancellable(
          150.0, [cc, k] { cc->out.order.push_back(3 * k + 2); });
      if (i + 1 < c->n) {
        c->sim.schedule(c->rng.exponential(c->gap), Element{c, i + 1});
      }
    }
  };
  struct Probe {
    Ctx* c;
    void operator()() const {
      c->out.order.push_back(3 * c->n + 2 + c->probes++);
      if constexpr (requires { c->sim.bucket_width(); }) {
        if (c->widths) c->widths->push_back(c->sim.bucket_width());
      }
      if (c->sim.now() + 250.0 <= c->horizon) c->sim.schedule(250.0, *this);
    }
  };
  c->sim.schedule_at(c->rng.exponential(gap_ms), Element{c, 0});
  c->sim.schedule_at(250.0, Probe{c});
  c->sim.schedule_at(0.5 * c->horizon,
                     [c] { c->out.order.push_back(3 * c->n); });
  c->sim.schedule_at(0.8 * c->horizon,
                     [c] { c->out.order.push_back(3 * c->n + 1); });
  if (step_ms > 0) {
    for (double until = step_ms; !c->sim.idle(); until += step_ms) {
      c->sim.run(until);
    }
  } else {
    c->sim.run();
  }
  c->out.final_now = c->sim.now();
  c->out.executed = c->sim.executed();
  c->out.cancelled = c->sim.cancelled();
  return std::move(c->out);
}

}  // namespace arch21::des
