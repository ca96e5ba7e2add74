#include "des/pdes.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "obs/metrics.hpp"

namespace arch21::des {

namespace {

/// Heap comparator that keeps the MessageEarlier-first message on top.
struct MessageLater {
  bool operator()(const Message& a, const Message& b) const noexcept {
    return MessageEarlier{}(b, a);
  }
};

/// A member waiting at the barrier polls in three stages.  It spins on
/// the CPU for kSpinNs, which covers a window's usual imbalance (tens of
/// microseconds).  Then it keeps spinning but yields its core once every
/// kYieldEveryNs, until kYieldNs.  Only then does it park.
///   * The long middle stage matters on virtualized hosts: a parked
///     member's core goes idle, and waking an idle virtual core can take
///     milliseconds.  If that is longer than the others' patience, one
///     late member pushes the whole team into parking, window after
///     window.
///   * The yields let a member that shares a core with a waiter run.
///     Threads can start out stacked on one core: on some virtualized
///     hosts a new or woken thread lands on its waker's core until the
///     scheduler's load balancer moves it.
///   * The yields are sparse on purpose.  A thread that yields every few
///     microseconds has always run a moment ago, so the balancer treats
///     it as cache-hot and never moves it; a stacked team then stays
///     stacked.
/// Members only exist while run() works, so the spinning ends with it.
constexpr std::uint64_t kSpinNs = 50'000;
constexpr std::uint64_t kYieldEveryNs = 100'000;
constexpr std::uint64_t kYieldNs = 30'000'000;
/// Barrier polls between two clock reads.
constexpr int kPollsPerClockRead = 128;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// The CPU the calling thread runs on, or -1 where that is unknown.
int current_cpu() noexcept {
#if defined(__linux__)
  return sched_getcpu();
#else
  return -1;
#endif
}

/// Move the calling thread once to the `offset`-th CPU after `home` in its
/// affinity mask, then restore the mask: the thread starts out there, and
/// the scheduler stays free to move it later.  Team members need distinct
/// cores, but on some virtualized hosts a new or woken thread lands on its
/// waker's core and the load balancer takes about a second to spread a
/// busy team (measured: 4 members stacked on one core ran the mesh window
/// loop 6x slower for that long).  Best effort; no-op off Linux.
void spread_from(int home, unsigned offset) noexcept {
#if defined(__linux__)
  cpu_set_t allowed;
  if (pthread_getaffinity_np(pthread_self(), sizeof allowed, &allowed) != 0) {
    return;
  }
  const int n = CPU_COUNT(&allowed);
  if (n <= 1) return;
  int base = 0;  // home's position among the allowed CPUs
  for (int c = 0, k = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed)) continue;
    if (c == home) base = k;
    ++k;
  }
  const int want =
      (base + static_cast<int>(offset % static_cast<unsigned>(n))) % n;
  for (int c = 0, k = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &allowed) || k++ != want) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(c, &one);
    if (pthread_setaffinity_np(pthread_self(), sizeof one, &one) == 0) {
      pthread_setaffinity_np(pthread_self(), sizeof allowed, &allowed);
    }
    return;
  }
#else
  (void)home;
  (void)offset;
#endif
}

inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

// ------------------------------------------------------- ParallelEngine

ParallelEngine::ParallelEngine(const PartitionSpec& spec, ThreadPool& pool)
    : spec_(spec), pool_(pool) {
  spec_.validate();
  lps_.reserve(spec_.lps);
  for (std::uint32_t i = 0; i < spec_.lps; ++i) {
    lps_.push_back(std::unique_ptr<Lp>(new Lp(this, i, spec_.lps)));
    if (spec_.reserve_events > 0) {
      // Pre-size the per-LP kernel and commit buffers so warm-up never
      // reallocates on the hot path (an allocation hint only: geometry
      // and ordering are unaffected).
      Lp& lp = *lps_.back();
      lp.sim_.reserve(spec_.reserve_events);
      lp.pending_.reserve(spec_.reserve_events);
      lp.batch_.reserve(spec_.reserve_events);
      lp.span_.reserve(spec_.reserve_events);
    }
  }
  // More members than cores would make the barrier wait on descheduled
  // spinners; more than LPs would leave members with nothing to run.
  const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
  member_times_.resize(std::min({pool_.size(), lps_.size(), hw}));
}

Time ParallelEngine::settle() {
  for (auto& lp : lps_) {
    lp->pull(0);
    lp->pull(1);
  }
  Time tmin = Simulator::kForever;
  for (auto& lp : lps_) {
    stats_.max_pending = std::max(stats_.max_pending, lp->pending_.size());
    tmin = std::min(tmin, lp->sim_.next_time());
    for (const Message& m : lp->pending_) tmin = std::min(tmin, m.t);
  }
  return tmin;
}

std::uint64_t ParallelEngine::run(Time until) {
  const std::uint64_t before = executed();
  // Conservative horizon: nothing anywhere can happen before tmin, and
  // (because every cross-LP delay is >= lookahead) nothing NEW can
  // arrive at or before tmin + lookahead.
  const Time tmin = settle();
  if (tmin <= until && tmin < Simulator::kForever) {
    until_ = until;
    end_ = std::min(until, tmin + spec_.lookahead);
    done_ = false;
    ++stats_.windows;
    const unsigned team = team_size();
    running_.store(team - 1, std::memory_order_relaxed);
    const int home = current_cpu();
    for (unsigned m = 1; m < team; ++m) {
      pool_.submit([this, m, home] {
        spread_from(home, m);
        member(m);
      });
    }
    member(0);
    // Join: a member touches no engine state after its decrement.
    while (running_.load(std::memory_order_acquire) != 0) {
      std::this_thread::yield();
    }
    if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
    settle();  // the last window's sends: fold the final barrier's pending
  }
  if (until < Simulator::kForever) {
    // Align every clock with the horizon, mirroring Simulator::run's
    // now_ = until on early stop.  Executes nothing: tmin > until.
    for (auto& lp : lps_) lp->sim_.run(until);
  }
  return executed() - before;
}

void ParallelEngine::member(unsigned m) {
  const std::size_t team = team_size();
  MemberTime& clock = member_times_[m].t;
  // The barrier cannot complete without this member, so sense_ is stable
  // until it arrives.
  unsigned sense = sense_.load(std::memory_order_relaxed);
  std::uint64_t woke = now_ns();
  for (;;) {
    try {
      for (std::size_t i = m; i < lps_.size(); i += team) {
        lps_[i]->run_window(end_, parity_);
      }
    } catch (...) {
      // close_window() sees error_ at this window's barrier and ends the
      // run; the rest of this member's LPs skip the window.
      std::lock_guard lk(error_mu_);
      if (!error_) error_ = std::current_exception();
    }
    const std::uint64_t arrived = now_ns();
    clock.busy_ns += arrived - woke;
    arrive(sense, arrived);
    woke = now_ns();
    clock.wait_ns += woke - arrived;
    if (done_) break;
  }
  if (m != 0) running_.fetch_sub(1, std::memory_order_release);
}

void ParallelEngine::arrive(unsigned& sense, std::uint64_t arrived_ns) {
  sense ^= 1u;
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == team_size()) {
    // Every other member has arrived and is waiting for sense_ to flip,
    // so the window state is ours until the store below.
    close_window();
    arrived_.store(0, std::memory_order_relaxed);
    sense_.store(sense, std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_seq_cst) != 0) sense_.notify_all();
    return;
  }
  const std::uint64_t yield_until = arrived_ns + kYieldNs;
  for (std::uint64_t next_yield = arrived_ns + kSpinNs;;) {
    for (int i = 0; i < kPollsPerClockRead; ++i) {
      if (sense_.load(std::memory_order_acquire) == sense) return;
      cpu_relax();
    }
    const std::uint64_t t = now_ns();
    if (t >= yield_until) break;
    if (t >= next_yield) {
      std::this_thread::yield();
      next_yield = t + kYieldEveryNs;
    }
  }
  // Park.  The seq_cst increment and load pair with the releaser's
  // seq_cst store and load, so either it sees this member parked and
  // notifies, or this load already sees the flip.
  parked_.fetch_add(1, std::memory_order_seq_cst);
  for (unsigned cur; (cur = sense_.load(std::memory_order_seq_cst)) != sense;) {
    sense_.wait(cur, std::memory_order_acquire);
  }
  parked_.fetch_sub(1, std::memory_order_relaxed);
}

void ParallelEngine::close_window() {
  Time tmin = Simulator::kForever;
  for (const auto& lp : lps_) {
    tmin = std::min(tmin, lp->bound_);
    // pulled_ is the LP's pending size right after the previous barrier.
    stats_.max_pending = std::max(stats_.max_pending, lp->pulled_);
  }
  if (error_ || tmin > until_ || tmin >= Simulator::kForever) {
    done_ = true;
    return;
  }
  end_ = std::min(until_, tmin + spec_.lookahead);
  parity_ ^= 1u;
  ++stats_.windows;
}

std::vector<ParallelEngine::MemberTime> ParallelEngine::member_times() const {
  std::vector<MemberTime> out;
  out.reserve(member_times_.size());
  for (const MemberSlot& s : member_times_) out.push_back(s.t);
  return out;
}

ParallelEngine::Stats ParallelEngine::stats() const {
  Stats s = stats_;
  for (const auto& lp : lps_) {
    s.sent += lp->sent_;
    s.committed += lp->delivered_;
    s.executed += lp->sim_.executed();
    s.cancelled += lp->sim_.cancelled();
  }
  return s;
}

template <typename Get>
std::uint64_t ParallelEngine::sum_kernels(Get get) const {
  std::uint64_t n = 0;
  for (const auto& lp : lps_) n += get(lp->sim_);
  return n;
}

std::uint64_t ParallelEngine::executed() const {
  return sum_kernels([](const Simulator& s) { return s.executed(); });
}

std::uint64_t ParallelEngine::cancelled() const {
  return sum_kernels([](const Simulator& s) { return s.cancelled(); });
}

std::uint64_t ParallelEngine::refits() const {
  return sum_kernels([](const Simulator& s) { return s.refits(); });
}

std::uint64_t ParallelEngine::refit_moves() const {
  return sum_kernels([](const Simulator& s) { return s.refit_moves(); });
}

std::uint64_t ParallelEngine::spliced() const {
  return sum_kernels([](const Simulator& s) { return s.spliced(); });
}

void ParallelEngine::publish_metrics() const {
  auto& m = obs::MetricsRegistry::global();
  if (!m.enabled()) return;
  const Stats s = stats();
  m.add(m.counter("pdes.window.count"), s.windows);
  m.add(m.counter("pdes.mailbox.sent"), s.sent);
  m.add(m.counter("pdes.mailbox.committed"), s.committed);
  m.gauge_max(m.gauge("pdes.mailbox.max_pending"),
              static_cast<double>(s.max_pending));
  for (const MemberSlot& t : member_times_) {
    m.add(m.counter("pdes.team.busy_ns"), t.t.busy_ns);
    m.add(m.counter("pdes.team.wait_ns"), t.t.wait_ns);
  }
}

// ------------------------------------------------------- LoopbackEngine

LoopbackEngine::LoopbackEngine(const PartitionSpec& spec) : spec_(spec) {
  spec_.validate();
  if (spec_.reserve_events > 0) {
    // One shared kernel hosts every LP's events here, so the per-LP hint
    // scales by the LP count.
    sim_.reserve(spec_.reserve_events * spec_.lps);
  }
  lps_.reserve(spec_.lps);
  for (std::uint32_t i = 0; i < spec_.lps; ++i) {
    auto lp = std::make_unique<Lp>();
    lp->engine_ = this;
    lp->id_ = i;
    lps_.push_back(std::move(lp));
  }
}

Time LoopbackEngine::Lp::now() const noexcept { return engine_->sim_.now(); }

Simulator& LoopbackEngine::Lp::sim() noexcept { return engine_->sim_; }

void LoopbackEngine::Lp::send(std::uint32_t dst, Time delay,
                              const Payload& p) {
  if (dst >= engine_->lps()) {
    throw std::invalid_argument("Lp::send: destination LP out of range");
  }
  if (dst != id_ && !(delay >= engine_->lookahead())) {
    throw std::invalid_argument(
        "Lp::send: cross-LP delay below the engine lookahead");
  }
  Lp* to = engine_->lps_[dst].get();
  if (dst == id_) {
    engine_->sim_.schedule(delay, [to, p] { to->handler_(*to, p); });
    return;
  }
  const Time now = engine_->sim_.now();
  to->inbox_.push_back(Message{now + delay, now, id_, send_seq_++, p});
  std::push_heap(to->inbox_.begin(), to->inbox_.end(), MessageLater{});
  engine_->sim_.schedule(delay, [to] { to->deliver_next(); });
}

void LoopbackEngine::Lp::deliver_next() {
  // Every message due by now is already in the inbox (a remote send is
  // at least one lookahead ahead of its delivery), and the events for
  // earlier instants each took one message, so the head is due now.
  std::pop_heap(inbox_.begin(), inbox_.end(), MessageLater{});
  const Payload p = inbox_.back().payload;
  inbox_.pop_back();
  handler_(*this, p);
}

}  // namespace arch21::des
