// Human network analytics / web search (Table A.1): engineering a
// 100-leaf fork-join service to an SLO.
//
// The example walks the workflow an infrastructure architect would run:
//   1. quantify the tail-amplification problem at the service's fan-out;
//   2. pick a hedging policy that meets the p99 SLO at acceptable extra
//      backend load (sweep of hedge delays);
//   3. validate the choice in the DES cluster, where hedges interfere
//      with queueing;
//   4. size the fleet's power with the facility model.

#include <iostream>

#include "core/arch21.hpp"

int main() {
  using namespace arch21;
  using namespace arch21::cloud;

  std::cout << "search-cluster SLO engineering\n"
            << "==============================\n\n";
  constexpr unsigned kFanout = 100;
  constexpr double kSloP99Ms = 150.0;

  // --- 1: the problem ---------------------------------------------------
  auto leaf = make_leaf_distribution(5.0, 0.4, 0.02, 60.0, 1.4);
  const auto base = simulate_fork_join(kFanout, 20000, leaf, {}, 1);
  std::cout << "without mitigation: p50 "
            << TextTable::num(base.request_latency_ms.p50, 3) << " ms, p99 "
            << TextTable::num(base.request_latency_ms.p99, 4) << " ms ("
            << TextTable::num(tail_amplification(kFanout, 0.99) * 100, 3)
            << "% of requests wait >= leaf p99) -- SLO "
            << (base.request_latency_ms.p99 <= kSloP99Ms ? "met" : "MISSED")
            << "\n\n";

  // --- 2: hedging sweep ---------------------------------------------------
  std::cout << "hedge-delay sweep (fan-out " << kFanout << "):\n";
  TextTable t({"hedge delay ms", "p99 ms", "extra load %", "meets SLO"});
  double chosen_delay = 0;
  for (double delay : {5.0, 10.0, 15.0, 25.0, 50.0}) {
    HedgePolicy pol;
    pol.kind = HedgePolicy::Kind::Hedged;
    pol.hedge_delay_ms = delay;
    const auto r = simulate_fork_join(kFanout, 20000, leaf, pol, 2);
    const bool ok =
        r.request_latency_ms.p99 <= kSloP99Ms && r.extra_load_fraction < 0.05;
    if (ok && chosen_delay == 0) chosen_delay = delay;
    t.row({TextTable::num(delay), TextTable::num(r.request_latency_ms.p99, 4),
           TextTable::num(r.extra_load_fraction * 100, 3),
           ok ? "yes (<5% load)" : "no"});
  }
  t.print(std::cout);
  if (chosen_delay == 0) chosen_delay = 25.0;
  std::cout << "  -> deploying hedge at " << chosen_delay << " ms\n\n";

  // --- 3: validate under queueing ----------------------------------------
  ClusterConfig cfg;
  cfg.leaves = kFanout;
  cfg.duration_s = 12;
  cfg.query_rate_hz = 25;
  cfg.background_rate_hz = 50;
  cfg.background_ms = 4;
  cfg.policy.hedge_after_ms = 0;
  const auto before = simulate_cluster(cfg);
  cfg.policy.hedge_after_ms = chosen_delay;
  const auto after = simulate_cluster(cfg);
  std::cout << "DES cluster validation (with queueing interference):\n"
            << "  p99 before: " << TextTable::num(before.query_ms.quantile(0.99), 4)
            << " ms   p99 after: "
            << TextTable::num(after.query_ms.quantile(0.99), 4)
            << " ms   hedge traffic: "
            << TextTable::num(after.hedge_fraction * 100, 3) << "%\n"
            << "  leaf utilization: "
            << TextTable::num(after.mean_leaf_utilization, 3) << "\n\n";

  // --- 4: fleet power -------------------------------------------------------
  ServerPower srv;
  Facility dc;
  dc.server = srv;
  dc.servers = 4000;
  dc.pue = 1.4;
  const double util = after.mean_leaf_utilization;
  std::cout << "fleet power at measured utilization: "
            << units::si_format(dc.power(util), "W", 2) << " for "
            << units::si_format(dc.throughput(util), "op/s", 2) << " ("
            << units::si_format(dc.ops_per_joule(util), "op/J", 2) << ")\n"
            << "energy-proportionality index of the servers: "
            << TextTable::num(srv.proportionality(), 3)
            << " (1.0 = perfectly proportional)\n";
  return 0;
}
