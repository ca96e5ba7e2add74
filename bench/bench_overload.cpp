// E29 metastable-failure drill: drives the DES cluster past its knee
// with a transient fault burst and measures whether goodput *recovers*
// after the burst clears.  The unprotected configuration (unbounded
// FIFO leaf queues, naive unbudgeted retries) falls into the metastable
// regime -- the trigger is gone, but queues full of already-abandoned
// work plus retry amplification keep goodput pinned near zero -- while
// the protected ladder (bounded queues with deadline drop, admission
// control + retry budget, per-replica circuit breakers) sheds load
// early and snaps back.
//
// Prints the overload report and two headline claims, verifies the
// multi-trial aggregate (including every new overload counter and the
// goodput time series) is bit-identical across pool sizes 1 / 2 /
// default, and writes BENCH_overload.json.  Exit is nonzero if the
// determinism check or either hysteresis claim fails.
//
// Observability: `--metrics-out <path>` enables the global metrics
// registry for the run and dumps the merged snapshot (shed/breaker
// counters included); `--trace-out <path>` replays one fully protected
// trial with a Chrome-trace sink attached (shed/rejected/breaker-*
// instants land on track 0).  Both default off.
//
// `--smoke` shrinks the drill (fewer queries, shorter horizon) for
// sanitizer runs in tier1.sh; the hysteresis claims are skipped there
// (the small workload is too noisy to assert thresholds on), while the
// determinism check still runs.

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
#include "cloud/resilience.hpp"
#include "core/report.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace arch21;

constexpr double kSettleS = 2.0;

cloud::ClusterConfig base_config(bool smoke) {
  cloud::ClusterConfig cfg;
  cfg.leaves = 20;
  // ~0.54 utilization per leaf before mitigation overheads: far enough
  // under the knee to be healthy, close enough that a retry storm
  // (amplification >= ~2x) pins it past saturation.
  cfg.query_rate_hz = smoke ? 60 : 160;
  cfg.leaf_service_ms = 3.0;
  cfg.service_sigma = 0.35;
  cfg.background_rate_hz = 30;
  cfg.background_ms = 2.0;
  cfg.duration_s = smoke ? 8 : 30;
  cfg.seed = 2014;
  cfg.goodput_window_s = 1.0;
  // The trigger: 12 of 20 leaves crash at t=10s and stay down 4s.
  cfg.faults.burst_leaves = 12;
  cfg.faults.burst_start_s = smoke ? 3 : 10;
  cfg.faults.burst_duration_s = smoke ? 1 : 4;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const bench::ObsOutputs obs_out(argc, argv, "overload");

  const auto cfg = base_config(smoke);
  const unsigned trials = smoke ? 2 : 3;
  ThreadPool pool;  // default_threads() / ARCH21_THREADS

  std::cout << "overload drill: " << cfg.leaves << " leaves, "
            << cfg.query_rate_hz << " qps, burst " << cfg.faults.burst_leaves
            << " leaves down for " << cfg.faults.burst_duration_s << " s, "
            << trials << " trials/rung, pool=" << pool.size() << "\n\n";

  cloud::OverloadPolicies knobs;
  // Timeout above the healthy-state sojourn tail: pre-burst the naive
  // client barely retries (the unprotected rung is genuinely stable
  // until the trigger), which is what makes the post-burst collapse a
  // *metastable* failure rather than plain overload.
  knobs.timeout_ms = 25;
  knobs.sojourn_target_ms = 25;
  const auto wall_t0 = std::chrono::steady_clock::now();
  const auto ladder = cloud::overload_scenarios(cfg, trials, knobs, &pool);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_t0)
                            .count();
  std::cout << core::render_overload_report(ladder, kSettleS) << "\n";

  // --- headline claims: hysteresis vs recovery -------------------------
  const auto& unprotected = ladder.front();
  const auto& protected_ = ladder.back();
  const auto h_un =
      cloud::goodput_hysteresis(unprotected.result, unprotected.config,
                                kSettleS);
  const auto h_pr =
      cloud::goodput_hysteresis(protected_.result, protected_.config,
                                kSettleS);
  bool claims_ok = true;
  if (!smoke) {
    // (a) metastability: the unprotected cluster stays >= 40% below its
    //     pre-burst goodput after the fault has cleared.
    const bool stuck = h_un.recovery_ratio() <= 0.60;
    // (b) recovery: the fully protected cluster returns to >= 90%.
    const bool recovered = h_pr.recovery_ratio() >= 0.90;
    claims_ok = stuck && recovered;
    std::cout << "claim (a) metastability: unprotected post/pre goodput "
              << h_un.recovery_ratio() * 100 << "% (<= 60% required) -> "
              << (stuck ? "ok" : "FAIL") << "\n";
    std::cout << "claim (b) recovery: protected post/pre goodput "
              << h_pr.recovery_ratio() * 100 << "% (>= 90% required) -> "
              << (recovered ? "ok" : "FAIL") << "\n\n";
  } else {
    std::cout << "(smoke: hysteresis thresholds skipped)\n\n";
  }

  // --- determinism across pool sizes ----------------------------------
  // The fully protected config exercises every new code path (bounded
  // queue, deadline drops, admission, breakers), so bit-identity here
  // covers the whole overload layer.
  ThreadPool p1(1), p2(2);
  const auto& check_cfg = protected_.config;
  const auto r1 = cloud::run_cluster_trials(check_cfg, trials, &p1);
  const auto r2 = cloud::run_cluster_trials(check_cfg, trials, &p2);
  const auto rn = cloud::run_cluster_trials(check_cfg, trials, &pool);
  const bool identical = r1 == r2 && r1 == rn;
  std::cout << "determinism: pools {1, 2, " << pool.size() << "} -> "
            << (identical ? "bit-identical aggregates" : "MISMATCH") << "\n";

  // --- JSON record -----------------------------------------------------
  std::ofstream out("BENCH_overload.json");
  out << "{\n  "
      << bench::meta_json(static_cast<unsigned>(pool.size()))
      << ",\n  \"leaves\": " << cfg.leaves << ",\n  \"trials\": " << trials
      << ",\n  \"threads\": " << pool.size() << ",\n  \"smoke\": "
      << (smoke ? "true" : "false")
      << ",\n  \"wall_s\": " << wall_s
      << ",\n  \"burst\": {\"leaves\": " << cfg.faults.burst_leaves
      << ", \"start_s\": " << cfg.faults.burst_start_s
      << ", \"duration_s\": " << cfg.faults.burst_duration_s << "}"
      << ",\n  \"unprotected_recovery\": " << h_un.recovery_ratio()
      << ",\n  \"protected_recovery\": " << h_pr.recovery_ratio()
      << ",\n  \"claims_ok\": " << (claims_ok ? "true" : "false")
      << ",\n  \"identical_across_pools\": " << (identical ? "true" : "false")
      << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const auto& r = ladder[i].result;
    const auto h = cloud::goodput_hysteresis(r, ladder[i].config, kSettleS);
    out << "    {\"name\": \"" << ladder[i].name
        << "\", \"pre_qps\": " << h.pre_qps
        << ", \"post_qps\": " << h.post_qps
        << ", \"recovery\": " << h.recovery_ratio()
        << ", \"goodput_qps\": " << r.goodput_qps
        << ", \"ok\": " << r.ok_queries
        << ", \"degraded\": " << r.degraded_queries
        << ", \"failed\": " << r.failed_queries
        << ", \"shed\": " << r.shed_queries
        << ", \"rejected\": " << r.rejected_requests
        << ", \"expired\": " << r.expired_drops
        << ", \"breaker_opens\": " << r.breaker_open_transitions
        << ", \"breaker_short_circuits\": " << r.breaker_short_circuits
        << ", \"retry_amplification\": " << r.retry_amplification
        << ", \"p99_ms\": " << r.query_ms.quantile(0.99) << "}"
        << (i + 1 < ladder.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote BENCH_overload.json\n";

  obs_out.write_metrics();
  obs_out.write_trace(check_cfg);  // one trial of the fully protected stack
  return (identical && claims_ok) ? 0 : 1;
}
