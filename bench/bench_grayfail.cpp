// E34 gray-failure drill: a fail-slow (jittery) burst against the DES
// cluster, measured as goodput CONTAINMENT -- how much of pre-burst
// goodput the client keeps while the burst is running.  The point of
// the drill is the blindness of fail-stop protection: the full E29
// ladder (bounded deadline-drop queues, admission + retry budget,
// per-replica circuit breakers) is defeated, because a jittery replica
// still answers every request -- just late -- so every reply lands a
// *success* in the breaker window and the failure fraction never
// reaches the open threshold.  The gray-aware client (EWMA scoring with
// peer-relative outlier eviction, reply-rate/zombie accounting,
// probation re-admission, adaptive deadlines) contains the same burst.
//
// Prints the grayfail report and three headline claims, verifies the
// multi-trial aggregate (gray counters included) is bit-identical
// across pool sizes 1 / 2 / default, verifies that gray knobs left
// DISABLED leave the simulation byte-identical (the repo determinism
// contract), and writes BENCH_grayfail.json.  Exit is nonzero if any
// claim or check fails.
//
// Observability: `--metrics-out <path>` dumps the merged metrics
// snapshot (gray counters included); `--trace-out <path>` replays one
// fully adaptive trial with a Chrome-trace sink.  Both default off.
//
// `--smoke` shrinks the drill for sanitizer runs in tier1.sh; the
// containment thresholds are skipped there (the small workload is too
// noisy to assert on), while the determinism checks still run.

#include <chrono>
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
#include "reliab/gray.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace arch21;

constexpr double kSettleS = 2.0;

cloud::ClusterConfig base_config(bool smoke) {
  cloud::ClusterConfig cfg;
  cfg.leaves = 20;
  // Healthy operating point ~0.48 utilization per leaf -- low enough
  // that even with 6 of 20 replicas evicted the redirected load (x20/14)
  // keeps the survivors near 0.66, clear of the timeout knee.  The
  // burst's damage is the replies' LATENESS, not server saturation.
  cfg.query_rate_hz = smoke ? 60 : 140;
  cfg.leaf_service_ms = 3.0;
  cfg.service_sigma = 0.35;
  cfg.background_rate_hz = 30;
  cfg.background_ms = 2.0;
  cfg.duration_s = smoke ? 8 : 30;
  cfg.seed = 2014;
  cfg.goodput_window_s = 1.0;
  // The trigger: 6 of 20 leaves turn JITTERY at t=10s for 12s -- a
  // reply is delayed by an exponential spike of mean 1 s with
  // probability 0.45.  The leaves keep full service capacity (this is a
  // NIC/GC hiccup, not overload), and the spike odds are chosen so the
  // per-replica record stream stays SUCCESS-dominated: every spiked
  // attempt times out once (~0.45 failures per attempt) but still
  // delivers its reply eventually (1.0 successes per attempt), so the
  // breaker window's failure fraction hovers near 0.31 -- below the 0.5
  // open threshold.  The breakers genuinely see successes, just late.
  cfg.gray.burst_leaves = 6;
  cfg.gray.burst_start_s = smoke ? 3 : 10;
  cfg.gray.burst_duration_s = smoke ? 2 : 12;
  cfg.gray.burst_mode = reliab::GrayMode::kJittery;
  cfg.gray.burst_severity = 1000.0;  // mean spike, ms
  cfg.gray.spike_prob = 0.45;
  return cfg;
}

cloud::GrayfailPolicies ladder_knobs() {
  cloud::GrayfailPolicies knobs;
  // A high quorum (19/20) is what lets a handful of gray replicas hold
  // whole queries hostage; eviction must redirect, not just skip.
  knobs.quorum_fraction = 0.95;
  // A modest retry budget: enough for the adaptive rung to recover the
  // occasional bounced send, not enough for naive retries to paper over
  // a 6-replica fail-slow burst.
  knobs.budget_ratio = 0.05;
  // Deep enough that redirected load (20 leaves' sends onto 14) rarely
  // bounces; still bounded with deadline drop, per the E29 stack.
  knobs.queue_capacity = 8;
  // Long eviction relative to the probation re-check keeps the fraction
  // of burst time spent re-probing gray replicas small, while still
  // letting a cleared replica re-admit within the post-burst window.
  knobs.gray.evict_ms = 2500;
  return knobs;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const bench::ObsOutputs obs_out(argc, argv, "grayfail");

  const auto cfg = base_config(smoke);
  const auto knobs = ladder_knobs();
  const unsigned trials = smoke ? 2 : 3;
  ThreadPool pool;  // default_threads() / ARCH21_THREADS

  std::cout << "gray-failure drill: " << cfg.leaves << " leaves, "
            << cfg.query_rate_hz << " qps, burst " << cfg.gray.burst_leaves
            << " leaves " << reliab::to_string(cfg.gray.burst_mode)
            << " for " << cfg.gray.burst_duration_s << " s (spike mean "
            << cfg.gray.burst_severity << " ms, p=" << cfg.gray.spike_prob
            << "), " << trials << " trials/rung, pool=" << pool.size()
            << "\n\n";

  const auto wall_t0 = std::chrono::steady_clock::now();
  const auto ladder = cloud::grayfail_scenarios(cfg, trials, knobs, &pool);
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_t0)
                            .count();
  std::cout << core::render_grayfail_report(ladder, kSettleS) << "\n";

  // --- headline claims: fail-stop blindness vs adaptive containment ----
  const auto& failstop = ladder[1];   // E29 stack vs the gray burst
  const auto& adaptive = ladder.back();
  const auto c_fs =
      cloud::gray_containment(failstop.result, failstop.config, kSettleS);
  const auto c_ad =
      cloud::gray_containment(adaptive.result, adaptive.config, kSettleS);
  bool claims_ok = true;
  if (!smoke) {
    // (a) blindness: the E29 fail-stop ladder loses >= 40% of pre-burst
    //     goodput while the fail-slow burst runs.
    const bool blind = c_fs.containment_ratio() <= 0.60;
    // (b) containment: the adaptive ladder keeps >= 90%.
    const bool contained = c_ad.containment_ratio() >= 0.90;
    // (c) the mechanism: the E29 rung's gray replicas spend the large
    //     majority of the burst with their breakers CLOSED -- late
    //     replies land successes, so the failure fraction mostly stays
    //     under the open threshold (spiked attempts time out once each,
    //     so the window flickers open occasionally, but the dominant
    //     state is closed-and-blind).
    const double exposure_ms = static_cast<double>(trials) *
                               cfg.gray.burst_leaves *
                               cfg.gray.burst_duration_s * 1000.0;
    const double open_frac =
        failstop.result.breaker_open_ms / exposure_ms;
    const bool breakers_blind = open_frac <= 0.20;
    claims_ok = blind && contained && breakers_blind;
    std::cout << "claim (a) blindness: E29 during/pre goodput "
              << c_fs.containment_ratio() * 100 << "% (<= 60% required) -> "
              << (blind ? "ok" : "FAIL") << "\n";
    std::cout << "claim (b) containment: adaptive during/pre goodput "
              << c_ad.containment_ratio() * 100 << "% (>= 90% required) -> "
              << (contained ? "ok" : "FAIL") << "\n";
    std::cout << "claim (c) breaker blindness: E29 breakers open "
              << open_frac * 100 << "% of the burst exposure "
              << "(<= 20% allowed) -> " << (breakers_blind ? "ok" : "FAIL")
              << "\n\n";
  } else {
    std::cout << "(smoke: containment thresholds skipped)\n\n";
  }

  // --- determinism across pool sizes ----------------------------------
  // The fully adaptive config exercises every new code path (gray
  // injection, detection, eviction/redirect, adaptive deadlines), so
  // bit-identity here covers the whole gray layer.
  ThreadPool p1(1), p2(2);
  const auto& check_cfg = adaptive.config;
  const auto r1 = cloud::run_cluster_trials(check_cfg, trials, &p1);
  const auto r2 = cloud::run_cluster_trials(check_cfg, trials, &p2);
  const auto rn = cloud::run_cluster_trials(check_cfg, trials, &pool);
  const bool identical = r1 == r2 && r1 == rn;
  std::cout << "determinism: pools {1, 2, " << pool.size() << "} -> "
            << (identical ? "bit-identical aggregates" : "MISMATCH") << "\n";

  // --- disabled-gray byte-identity -------------------------------------
  // Gray knobs that are present but DISABLED must not perturb a single
  // draw: tweak every severity/detection field while leaving the enable
  // bits off, and require the aggregate to match the control rung's.
  auto tweaked_cfg = ladder.front().config;  // control: no gray anywhere
  tweaked_cfg.gray.slow_factor_min = 2.0;
  tweaked_cfg.gray.spike_ms_max = 900.0;
  tweaked_cfg.gray.spike_prob = 0.33;
  tweaked_cfg.gray.burst_severity = 7.5;
  tweaked_cfg.policy.gray = knobs.gray;
  tweaked_cfg.policy.gray.enabled = false;
  const auto r_tweaked = cloud::run_cluster_trials(tweaked_cfg, trials, &pool);
  const bool disabled_identical = ladder.front().result == r_tweaked;
  std::cout << "disabled gray knobs: "
            << (disabled_identical ? "byte-identical to control"
                                   : "PERTURBED the control run")
            << "\n";

  // --- JSON record -----------------------------------------------------
  std::ofstream out("BENCH_grayfail.json");
  out << "{\n  "
      << bench::meta_json(static_cast<unsigned>(pool.size()))
      << ",\n  \"leaves\": " << cfg.leaves << ",\n  \"trials\": " << trials
      << ",\n  \"threads\": " << pool.size() << ",\n  \"smoke\": "
      << (smoke ? "true" : "false")
      << ",\n  \"wall_s\": " << wall_s
      << ",\n  \"burst\": {\"leaves\": " << cfg.gray.burst_leaves
      << ", \"mode\": \"" << reliab::to_string(cfg.gray.burst_mode)
      << "\", \"start_s\": " << cfg.gray.burst_start_s
      << ", \"duration_s\": " << cfg.gray.burst_duration_s
      << ", \"spike_ms\": " << cfg.gray.burst_severity
      << ", \"spike_prob\": " << cfg.gray.spike_prob << "}"
      << ",\n  \"failstop_containment\": " << c_fs.containment_ratio()
      << ",\n  \"adaptive_containment\": " << c_ad.containment_ratio()
      << ",\n  \"claims_ok\": " << (claims_ok ? "true" : "false")
      << ",\n  \"identical_across_pools\": " << (identical ? "true" : "false")
      << ",\n  \"disabled_gray_identical\": "
      << (disabled_identical ? "true" : "false") << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const auto& r = ladder[i].result;
    // The control rung carries no burst; window it on the drill timing.
    const auto& timing = ladder[i].config.gray.burst_enabled()
                             ? ladder[i].config
                             : ladder.back().config;
    const auto c = cloud::gray_containment(r, timing, kSettleS);
    out << "    {\"name\": \"" << ladder[i].name
        << "\", \"pre_qps\": " << c.pre_qps
        << ", \"during_qps\": " << c.during_qps
        << ", \"post_qps\": " << c.post_qps
        << ", \"containment\": " << c.containment_ratio()
        << ", \"recovery\": " << c.recovery_ratio()
        << ", \"goodput_qps\": " << r.goodput_qps
        << ", \"ok\": " << r.ok_queries
        << ", \"degraded\": " << r.degraded_queries
        << ", \"failed\": " << r.failed_queries
        << ", \"gray_episodes\": " << r.gray_episodes
        << ", \"gray_dropped_replies\": " << r.gray_dropped_replies
        << ", \"evictions\": " << r.gray_evictions
        << ", \"probations\": " << r.gray_probations
        << ", \"zombies\": " << r.gray_zombies
        << ", \"redirected\": " << r.gray_redirected_sends
        << ", \"adaptive_deadline_ms\": " << r.adaptive_deadline_ms
        << ", \"breaker_opens\": " << r.breaker_open_transitions
        << ", \"retry_amplification\": " << r.retry_amplification
        << ", \"p99_ms\": " << r.query_ms.quantile(0.99) << "}"
        << (i + 1 < ladder.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote BENCH_grayfail.json\n";

  obs_out.write_metrics();
  obs_out.write_trace(check_cfg);  // one fully adaptive trial
  return (identical && claims_ok && disabled_identical) ? 0 : 1;
}
