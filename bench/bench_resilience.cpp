// E26 resilience harness: runs the canonical mitigation ladder
// (baseline -> failures -> naive retries -> retry budget -> hedging ->
// quorum degradation) over the DES cluster with seeded fault injection,
// prints the three headline claims, verifies the multi-trial aggregate
// is bit-identical across pool sizes 1 / 2 / default, and emits
// BENCH_resilience.json for the PR record.  Exit is nonzero if the
// determinism check fails.
//
// Observability hooks (PR4): `--metrics-out <path>` enables the global
// obs::MetricsRegistry for the whole run (cluster + policy + thread-pool
// metrics), renders the merged snapshot as a table, and dumps it as JSON
// (default BENCH_resilience_metrics.json).  `--trace-out <path>` replays
// ONE budgeted+hedged+quorum trial with a trace sink attached and writes
// Chrome trace_event JSON (default BENCH_resilience_trace.json) -- open
// it in Perfetto.  Both default off, so the headline numbers are always
// measured with recording disabled.

#include <chrono>
#include <cmath>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "cloud/cluster.hpp"
#include "cloud/resilience.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace arch21;

cloud::ClusterConfig base_config() {
  cloud::ClusterConfig cfg;
  cfg.leaves = 100;
  cfg.query_rate_hz = 50;
  cfg.background_rate_hz = 40;
  cfg.background_ms = 4;
  cfg.duration_s = 10;
  cfg.seed = 2014;
  cfg.faults.enabled = true;  // scenarios toggle this per rung
  // ~1% per-leaf unavailability plus rack-level correlated failures.
  cfg.faults.leaf = {.mtbf_hours = 50.0 / 3600, .mttr_hours = 0.5 / 3600};
  cfg.faults.leaves_per_domain = 10;
  cfg.faults.domain = {.mtbf_hours = 500.0 / 3600, .mttr_hours = 1.0 / 3600};
  return cfg;
}

const cloud::ClusterResult* find(
    const std::vector<cloud::ScenarioResult>& ladder, const char* needle) {
  for (const auto& s : ladder) {
    if (s.name.find(needle) != std::string::npos) return &s.result;
  }
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::ObsOutputs obs_out(argc, argv, "resilience");

  const auto cfg = base_config();
  const unsigned trials = 4;
  ThreadPool pool;  // default_threads() / ARCH21_THREADS

  std::cout << "resilience ladder: " << cfg.leaves << " leaves, "
            << trials << " trials/scenario, pool=" << pool.size() << "\n\n";
  // Tight timeout (near the per-call tail) so retries fire on slow as
  // well as dead leaves: the regime where naive retries feed on
  // themselves and the budget earns its keep.
  cloud::ScenarioPolicies knobs;
  knobs.timeout_ms = 15;
  knobs.naive_max_retries = 16;
  knobs.budget_max_retries = 3;
  const auto wall_t0 = std::chrono::steady_clock::now();
  const auto ladder = cloud::resilience_scenarios(cfg, trials, knobs, &pool);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_t0)
                            .count();
  std::cout << core::render_resilience_report(ladder) << "\n";

  // --- headline claims -------------------------------------------------
  const auto* baseline = find(ladder, "baseline");
  const auto* injected = find(ladder, "no mitigation");
  const auto* naive = find(ladder, "naive");
  const auto* budget = find(ladder, "retry budget");
  const auto* quorum = find(ladder, "quorum");
  const double analytic =
      1.0 - std::pow(0.99, static_cast<double>(cfg.leaves));
  std::cout << "claim (a) tail at scale: "
            << baseline->frac_over_leaf_p99 * 100
            << "% of fan-out queries at/after the leaf p99 (analytic 1-0.99^"
            << cfg.leaves << " = " << analytic * 100 << "%)\n";
  std::cout << "claim (b) retry storms: naive amplification "
            << naive->retry_amplification << "x / p99 "
            << naive->query_ms.quantile(0.99) << " ms vs budgeted "
            << budget->retry_amplification << "x / p99 "
            << budget->query_ms.quantile(0.99) << " ms ("
            << budget->budget_denials << " retries denied)\n";
  std::cout << "claim (c) graceful degradation: quality "
            << quorum->mean_result_quality() << " for p99 "
            << quorum->query_ms.quantile(0.99) << " ms vs "
            << injected->query_ms.quantile(0.99)
            << " ms unmitigated (goodput " << quorum->goodput_qps << " vs "
            << injected->goodput_qps << " qps)\n\n";

  // --- determinism across pool sizes ----------------------------------
  auto check_cfg = cfg;
  check_cfg.policy.retry.timeout_ms = 30;
  check_cfg.policy.retry.max_retries = 3;
  check_cfg.policy.budget.enabled = true;
  check_cfg.policy.hedge_after_ms = 20;
  check_cfg.policy.quorum = {.quorum_fraction = 0.95, .deadline_ms = 60};
  ThreadPool p1(1), p2(2);
  const auto r1 = cloud::run_cluster_trials(check_cfg, trials, &p1);
  const auto r2 = cloud::run_cluster_trials(check_cfg, trials, &p2);
  const auto rn = cloud::run_cluster_trials(check_cfg, trials, &pool);
  const bool identical = r1 == r2 && r1 == rn;
  std::cout << "determinism: pools {1, 2, " << pool.size() << "} -> "
            << (identical ? "bit-identical aggregates" : "MISMATCH") << "\n";

  // --- JSON record -----------------------------------------------------
  std::ofstream out("BENCH_resilience.json");
  out << "{\n  "
      << bench::meta_json(static_cast<unsigned>(pool.size()))
      << ",\n  \"leaves\": " << cfg.leaves << ",\n  \"trials\": " << trials
      << ",\n  \"threads\": " << pool.size()
      << ",\n  \"wall_s\": " << wall_s
      << ",\n  \"frac_over_leaf_p99\": " << baseline->frac_over_leaf_p99
      << ",\n  \"frac_over_leaf_p99_analytic\": " << analytic
      << ",\n  \"identical_across_pools\": "
      << (identical ? "true" : "false") << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const auto& r = ladder[i].result;
    out << "    {\"name\": \"" << ladder[i].name
        << "\", \"availability\": " << r.availability_measured
        << ", \"goodput_qps\": " << r.goodput_qps
        << ", \"ok\": " << r.ok_queries
        << ", \"degraded\": " << r.degraded_queries
        << ", \"failed\": " << r.failed_queries
        << ", \"retry_amplification\": " << r.retry_amplification
        << ", \"budget_denials\": " << r.budget_denials
        << ", \"p50_ms\": " << r.query_ms.quantile(0.5)
        << ", \"p99_ms\": " << r.query_ms.quantile(0.99)
        << ", \"quality\": " << r.mean_result_quality() << "}"
        << (i + 1 < ladder.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote BENCH_resilience.json\n";

  if (!obs_out.metrics_out.empty()) {
    // Thread-pool counters are kept unconditionally (plain fields under
    // the pool's own mutex); publish them into the registry as gauges so
    // they land in the same snapshot as the cluster metrics.
    auto& mreg = obs::MetricsRegistry::global();
    const auto ps = pool.stats();
    mreg.gauge_max(mreg.gauge("pool.submitted"),
                   static_cast<double>(ps.submitted));
    mreg.gauge_max(mreg.gauge("pool.executed"),
                   static_cast<double>(ps.executed));
    mreg.gauge_max(mreg.gauge("pool.steals"), static_cast<double>(ps.steals));
    mreg.gauge_max(mreg.gauge("pool.max_queue_depth"),
                   static_cast<double>(ps.max_queue_depth));
  }
  obs_out.write_metrics();
  obs_out.write_trace(check_cfg);  // one trial of the full mitigation stack
  return identical ? 0 : 1;
}
