#pragma once
// One logical process (LP) of the conservative PDES engine: a private
// des::Simulator (its own ladder queue, action slab, and cancellation
// table -- no state shared with any other LP), a scenario-installed
// message handler, and two outbound mailboxes per peer LP (one per
// window parity).  During a window an LP runs entirely on the one team
// member that owns it; the only cross-LP traffic is send(), which
// appends to this window's outbound mailbox, and the destination pulls
// it in its next window (see des/mailbox.hpp for why that needs no
// synchronization).

#include <cstdint>
#include <functional>
#include <vector>

#include "des/mailbox.hpp"
#include "des/simulator.hpp"

namespace arch21::des {

class ParallelEngine;

class Lp {
 public:
  /// Invoked when a cross-LP message is delivered (at sim time
  /// Message::t, inside this LP's window run).  Install at setup via
  /// set_handler(); delivery to an LP without a handler throws.
  using Handler = std::function<void(Lp&, const Payload&)>;

  std::uint32_t id() const noexcept { return id_; }
  Time now() const noexcept { return sim_.now(); }

  /// This LP's private kernel, for local scheduling (including
  /// cancellable timers) and per-LP trace attachment.  Only this LP's
  /// events may touch it: scheduling into another LP's simulator is a
  /// data race AND a determinism bug -- cross-LP effects go through
  /// send().
  Simulator& sim() noexcept { return sim_; }

  void set_handler(Handler h) { handler_ = std::move(h); }

  /// Send `p` to LP `dst`, arriving `delay` seconds from now().  For a
  /// remote destination the delay must be >= the engine's lookahead
  /// (that bound is what makes the conservative window safe; violating
  /// it throws).  dst == id() is a plain local schedule -- no mailbox,
  /// no lookahead floor -- exactly what the serial loopback engine does,
  /// so results stay comparable.
  void send(std::uint32_t dst, Time delay, const Payload& p);

  /// Cross-LP messages this LP has sent / had delivered into its kernel.
  std::uint64_t sent() const noexcept { return sent_; }
  std::uint64_t delivered() const noexcept { return delivered_; }

 private:
  friend class ParallelEngine;

  Lp(ParallelEngine* engine, std::uint32_t id, std::uint32_t lps)
      : engine_(engine), id_(id), out_{Outbox(lps), Outbox(lps)} {}

  /// One window's fused phase on this LP (see des/pdes.hpp): pull the
  /// inbound column from buffer `parity ^ 1` of every source's outbox,
  /// commit_and_run(end), then publish bound_.
  void run_window(Time end, unsigned parity);

  /// Extract the pending messages due by `end`, sort them canonically,
  /// schedule them in one schedule_n() batch, then run the kernel
  /// through `end` (inclusive, matching Simulator::run).  Returns the
  /// earliest message left pending.
  Time commit_and_run(Time end);

  /// Append outbox buffer `parity` of every source LP to pending_.
  void pull(unsigned parity);

  ParallelEngine* engine_;
  std::uint32_t id_ = 0;
  std::uint64_t send_seq_ = 0;   // per-source seq for canonical ordering
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  Simulator sim_;
  Handler handler_;
  using Outbox = std::vector<Mailbox>;
  Outbox out_[2];                // out_[parity][d]: outbound for LP d
  Time sent_min_ = Simulator::kForever;  // earliest send this window
  Time bound_ = Simulator::kForever;     // published lower bound
  std::size_t pulled_ = 0;       // pending_ size after this window's pull
  std::vector<Message> pending_; // pulled inbound awaiting commit
  std::vector<Message> batch_;   // commit scratch (retained capacity)
  std::vector<Simulator::TimedAction> span_;  // schedule_n scratch
};

}  // namespace arch21::des
