// E33 power-capped co-simulation drill: runs the E29 overload workload
// (same leaves, rates, seed, and transient fault burst) under an IT
// power cap and asks how the budget should be SPENT.  The ladder holds
// the E29 unprotected client fixed (naive unbudgeted retries, unbounded
// FIFO leaves, a quorum deadline so every query closes) and varies only
// the powercap policy: a naive uniform throttle slows every leaf until
// worst-case power fits the cap, pace adapts p-states to observed
// utilization, race-to-idle keeps leaves at full speed behind the
// energy gate alone, and the cap-aware governor sheds queries at the
// root BEFORE any leaf is throttled.  The throttling policies stretch
// service times past the cluster's knee, so the fault burst tips them
// into the E29 metastable regime -- goodput gone, idle floor still
// burning joules -- while the shedding governor keeps the survivors
// fast and recovers.
//
// Prints the power report and three headline claims, then exits
// nonzero unless:
//   (a) enforcement -- no capped rung's charged power exceeds its cap
//       in ANY accounting window, and no energy-contract overruns;
//   (b) economics -- the governor beats the naive uniform throttle on
//       goodput-per-joule at the tightest (60%) cap [full runs only];
//   (c) determinism -- the multi-trial aggregate (energy series
//       included) is bit-identical across pool sizes 1 / 2 / default.
//
// `--smoke` shrinks the drill for sanitizer runs in tier1.sh; the
// economics claim is skipped there (the small workload is too noisy to
// assert an inequality on), while enforcement and determinism -- both
// by-construction properties -- still run.

#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "cloud/cluster.hpp"
#include "cloud/powercap.hpp"
#include "cloud/resilience.hpp"
#include "core/report.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace arch21;

constexpr double kSettleS = 2.0;

// The E29 workload verbatim (bench_overload.cpp): ~0.54 utilization per
// leaf at nominal frequency, so a uniform throttle to ~0.7x speed lands
// the cluster near its knee and the burst does the rest.
cloud::ClusterConfig base_config(bool smoke) {
  cloud::ClusterConfig cfg;
  cfg.leaves = 20;
  cfg.query_rate_hz = smoke ? 60 : 160;
  cfg.leaf_service_ms = 3.0;
  cfg.service_sigma = 0.35;
  cfg.background_rate_hz = 30;
  cfg.background_ms = 2.0;
  cfg.duration_s = smoke ? 8 : 30;
  cfg.seed = 2014;
  cfg.goodput_window_s = 1.0;
  cfg.faults.burst_leaves = 12;
  cfg.faults.burst_start_s = smoke ? 3 : 10;
  cfg.faults.burst_duration_s = smoke ? 1 : 4;
  return cfg;
}

const cloud::ScenarioResult* find(
    const std::vector<cloud::ScenarioResult>& ladder,
    const std::string& name) {
  for (const auto& s : ladder) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  const auto cfg = base_config(smoke);
  const unsigned trials = smoke ? 2 : 3;
  ThreadPool pool;  // default_threads() / ARCH21_THREADS

  cloud::PowerLadderPolicies knobs;
  // Same client as bench_overload's unprotected rung: the timeout sits
  // above the healthy-state sojourn tail, so at nominal frequency the
  // naive client barely retries -- any pre-burst degradation on a
  // throttled rung is caused by the throttle, not the client.
  knobs.overload.timeout_ms = 25;
  knobs.overload.sojourn_target_ms = 25;

  std::cout << "power-cap drill: " << cfg.leaves << " leaves, "
            << cfg.query_rate_hz << " qps, server "
            << knobs.powercap.server.idle_w << "/"
            << knobs.powercap.server.peak_w << " W idle/peak, window "
            << knobs.powercap.window_s << " s, burst "
            << cfg.faults.burst_leaves << " leaves down for "
            << cfg.faults.burst_duration_s << " s, " << trials
            << " trials/rung, pool=" << pool.size() << "\n\n";

  const auto wall_t0 = std::chrono::steady_clock::now();
  const auto ladder = cloud::power_scenarios(cfg, trials, knobs, &pool);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_t0)
                            .count();
  std::cout << core::render_power_report(ladder, kSettleS) << "\n";

  // --- claim (a): cap enforcement --------------------------------------
  // By construction (the energy contract charges a job's whole dynamic
  // energy at start, behind a strict budget gate), so it must hold on
  // smoke runs too.  peak_window_w merges as max across trials: one bad
  // window in any trial fails the rung.
  bool enforced = true;
  for (const auto& s : ladder) {
    const auto& r = s.result;
    if (r.power_cap_w <= 0) continue;  // uncapped reference: unmetered
    const bool ok = r.peak_window_w <= r.power_cap_w * (1 + 1e-9) &&
                    r.power_overruns == 0;
    if (!ok) {
      std::cout << "claim (a) FAIL: " << s.name << " peak window "
                << r.peak_window_w << " W vs cap " << r.power_cap_w
                << " W, overruns " << r.power_overruns << "\n";
    }
    enforced = enforced && ok;
  }
  std::cout << "claim (a) enforcement: every capped rung stayed under its "
            << "cap in every window -> " << (enforced ? "ok" : "FAIL")
            << "\n";

  // --- claim (b): economics at the tightest cap ------------------------
  const auto* uni = find(ladder, "cap 60% uniform");
  const auto* gov = find(ladder, "cap 60% governor");
  bool economics = uni != nullptr && gov != nullptr;
  double gov_gpj = 0, uni_gpj = 0;
  if (economics) {
    gov_gpj = gov->result.goodput_per_joule();
    uni_gpj = uni->result.goodput_per_joule();
  }
  if (!smoke) {
    economics = economics && gov_gpj > uni_gpj;
    std::cout << "claim (b) economics: 60% cap goodput-per-joule, governor "
              << gov_gpj << " vs uniform throttle " << uni_gpj << " -> "
              << (economics ? "ok" : "FAIL") << "\n";
  } else {
    std::cout << "(smoke: economics threshold skipped; governor "
              << gov_gpj << " vs uniform " << uni_gpj << " answered/J)\n";
  }

  // --- claim (c): determinism across pool sizes ------------------------
  // The governor at the tightest cap exercises every new code path
  // (p-state ladder, root shedding, window events, energy gates), so
  // bit-identity here covers the whole powercap layer.
  ThreadPool p1(1), p2(2);
  const auto check_cfg = cloud::power_rung_config(
      cfg, knobs, 0.6, cloud::PowercapPolicy::kGovernor);
  const auto r1 = cloud::run_cluster_trials(check_cfg, trials, &p1);
  const auto r2 = cloud::run_cluster_trials(check_cfg, trials, &p2);
  const auto rn = cloud::run_cluster_trials(check_cfg, trials, &pool);
  const bool identical = r1 == r2 && r1 == rn;
  std::cout << "claim (c) determinism: pools {1, 2, " << pool.size()
            << "} -> "
            << (identical ? "bit-identical aggregates" : "MISMATCH") << "\n";

  const bool claims_ok = enforced && economics && identical;

  // --- JSON record -----------------------------------------------------
  std::ofstream out("BENCH_power.json");
  out << "{\n  " << bench::meta_json(static_cast<unsigned>(pool.size()))
      << ",\n  \"leaves\": " << cfg.leaves << ",\n  \"trials\": " << trials
      << ",\n  \"threads\": " << pool.size() << ",\n  \"smoke\": "
      << (smoke ? "true" : "false") << ",\n  \"wall_s\": " << wall_s
      << ",\n  \"window_s\": " << knobs.powercap.window_s
      << ",\n  \"burst\": {\"leaves\": " << cfg.faults.burst_leaves
      << ", \"start_s\": " << cfg.faults.burst_start_s
      << ", \"duration_s\": " << cfg.faults.burst_duration_s << "}"
      << ",\n  \"governor_gpj_60\": " << gov_gpj
      << ",\n  \"uniform_gpj_60\": " << uni_gpj
      << ",\n  \"claims_ok\": " << (claims_ok ? "true" : "false")
      << ",\n  \"identical_across_pools\": "
      << (identical ? "true" : "false") << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const auto& r = ladder[i].result;
    const auto h = cloud::goodput_hysteresis(r, ladder[i].config, kSettleS);
    out << "    {\"name\": \"" << ladder[i].name
        << "\", \"cap_w\": " << r.power_cap_w
        << ", \"peak_window_w\": " << r.peak_window_w
        << ", \"energy_j\": " << r.energy_j
        << ", \"goodput_per_joule\": " << r.goodput_per_joule()
        << ", \"goodput_qps\": " << r.goodput_qps
        << ", \"pre_qps\": " << h.pre_qps << ", \"post_qps\": " << h.post_qps
        << ", \"recovery\": " << h.recovery_ratio()
        << ", \"ok\": " << r.ok_queries
        << ", \"degraded\": " << r.degraded_queries
        << ", \"failed\": " << r.failed_queries
        << ", \"power_shed\": " << r.power_shed_queries
        << ", \"gate_stalls\": " << r.power_gate_stalls
        << ", \"overruns\": " << r.power_overruns
        << ", \"p99_ms\": " << r.query_ms.quantile(0.99) << "}"
        << (i + 1 < ladder.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote BENCH_power.json\n";

  return (identical && claims_ok) ? 0 : 1;
}
