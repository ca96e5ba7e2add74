#pragma once
// Cross-LP message plumbing for the conservative PDES engine
// (des/pdes.hpp).  A mailbox is a plain vector: single-producer (the
// source LP, during the parallel window phase) / single-consumer (the
// engine's serial drain at the window barrier), with the phases strictly
// separated by ThreadPool::parallel_run's completion barrier.  That
// barrier is the happens-before edge, so the mailboxes need no atomics
// and run TSan-clean -- "SPSC by phase discipline", not by lock-free
// machinery.

#include <cstdint>
#include <vector>

namespace arch21::des {

/// Simulation time, re-declared here to keep this header free of the
/// simulator (it matches des::Time).
using MailboxTime = double;

/// Scenario-defined message body.  A fixed POD instead of a template so
/// the engine compiles once into arch21_des (and so a delivery closure
/// -- destination-LP pointer + one Payload -- fits the Simulator Action's
/// inline buffer; locked in by a static_assert in lp.cpp).  Scenarios
/// assign their own meaning to the operand fields; the engine never reads
/// them.
struct Payload {
  std::uint32_t kind = 0;  ///< scenario-defined message tag
  std::uint32_t u32 = 0;   ///< small index operand (e.g. leaf id)
  std::uint64_t a = 0;     ///< wide operand (e.g. call serial)
  std::uint64_t b = 0;     ///< second wide operand
  double x = 0;            ///< real-valued operand (e.g. service ms)
};

/// One cross-LP message: deliver `payload` to the destination LP's
/// handler at absolute simulation time `t`.
struct Message {
  MailboxTime t = 0;        ///< delivery time at the destination
  MailboxTime sent_at = 0;  ///< sender's clock at send()
  std::uint32_t src = 0;    ///< source LP id
  std::uint64_t seq = 0;    ///< per-source monotone send sequence
  Payload payload;
};

/// Canonical cross-LP delivery order: (t, sent_at, src, seq).  Every
/// window's commit batch is sorted by this before scheduling, so the
/// delivery order of simultaneous arrivals is a pure function of the
/// messages themselves -- never of worker count, thread timing, or
/// drain/append order.  Two sources sending at the bit-identical instant
/// are common, not rare: with a constant link latency, leaf groups that
/// finish work at the same time answer the root at the same time.  The
/// (src, seq) tie-break decides them, and the serial loopback engine
/// delivers through a per-destination heap in this same order (see
/// LoopbackEngine::Lp::send) so it stays bit-identical.
struct MessageEarlier {
  bool operator()(const Message& a, const Message& b) const noexcept {
    if (a.t != b.t) return a.t < b.t;
    if (a.sent_at != b.sent_at) return a.sent_at < b.sent_at;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  }
};

/// Per-(src, dst) pair mailbox -- see the file comment for the phase
/// discipline that makes a bare vector safe.
using Mailbox = std::vector<Message>;

}  // namespace arch21::des
