// E31 regional cascade drill: 4 WAN-connected regions behind the global
// load balancer, open-loop diurnal traffic, and a full regional blackout
// spanning two diurnal peaks.  The unprotected balancer (fail-open, no
// admission caps, unbounded region queues, naive retries) lets the
// failover wave metastabilize the *surviving* regions -- their queues
// fill with work whose clients have timed out, retries regenerate the
// overload, and goodput stays collapsed long after the region returns --
// while the protected ladder (per-region admission caps + bounded
// deadline-drop queues, then re-admission hysteresis + retry budget +
// circuit breakers) sheds the excess at the edge and snaps back.
//
// Rung 4 (the E34 tie-in) reruns the full stack with the blackout
// swapped for a GRAY-out: the same region goes fail-slow instead of
// dark.  Breakers cannot see it -- a slow region still replies -- so
// recovery proves the speed-aware health probe + re-admission
// hysteresis converge on fail-slow faults too.
//
// Prints the multi-region report and the headline claims, verifies the
// multi-trial aggregate is bit-identical across pool sizes 1 / 2 /
// default, and writes BENCH_multiregion.json.  Exit is nonzero if the
// determinism check or any hysteresis claim fails.
//
// `--smoke` shrinks the drill (3 regions, short horizon) for sanitizer
// runs in tier1.sh; the hysteresis claims are skipped there (the small
// workload is too noisy to assert thresholds on), the determinism check
// still runs.

#include <cstddef>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "cloud/queueing.hpp"
#include "cloud/region.hpp"
#include "cloud/tail.hpp"
#include "core/report.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace arch21;

constexpr double kSettleS = 4.0;

cloud::MultiRegionConfig base_config(bool smoke) {
  cloud::MultiRegionConfig cfg;
  const unsigned nr = smoke ? 3 : 4;
  const char* names[] = {"us-east", "eu-west", "ap-south", "us-west"};
  for (unsigned r = 0; r < nr; ++r) {
    cloud::RegionConfig rc;
    rc.name = names[r];
    rc.servers = smoke ? 4 : 7;
    rc.service_median_ms = 3.0;
    rc.service_sigma = 0.4;
    // Straggler shape 2.5 keeps the Pareto variance finite: a healthy
    // region must ride out a diurnal peak, so the tail should hurt p99,
    // not randomly saturate whole regions absent any fault.
    rc.p_straggler = 0.01;
    rc.straggler_scale_ms = 30.0;
    rc.straggler_alpha = 2.5;
    // One region carries colocated best-effort work under hardware QoS
    // partitioning -- the cloud/qos interference model, mildly degrading
    // its capacity like a real mixed-use cell.
    if (r == 2) {
      rc.be_utilization = 0.4;
      rc.qos_partitioned = true;
    }
    // The protected rungs' bounded deadline-drop queue; rung 1 strips it.
    rc.queue.capacity = 64;
    rc.queue.discipline = des::QueueDiscipline::kDeadline;
    rc.queue.sojourn_target = 60;
    cfg.regions.push_back(rc);
  }
  cfg.wan.regions = nr;
  cfg.wan.base_latency_ms = 40;
  cfg.wan.intra_ms = 1.0;
  cfg.wan.jitter_frac = 0.1;

  // Mean offered query rate = session_rate * mean session length.  Full
  // drill: ~3200 qps against ~4900 qps of 4-region effective capacity
  // (~0.66 utilization healthy, ~0.85 at each diurnal peak -- all four
  // rungs ride those waves out comfortably).  Losing one region drops
  // the survivors to ~3650 qps of capacity, so the blackout pushes them
  // past the knee at peak (~1.15x) -- exactly the regime where retry
  // amplification decides between recovery and metastable collapse.
  cfg.traffic.session_rate_hz = smoke ? 75 : 400;
  cfg.traffic.session_mean_queries = 8;
  cfg.traffic.diurnal_amplitude = 0.3;
  // A compressed "day": short enough that the pre/post measurement
  // windows average over whole periods (so recovery compares like with
  // like), long enough that a peak is a sustained wave, not a blip.
  cfg.traffic.diurnal_period_s = 16;
  cfg.traffic.diurnal_peak_s = smoke ? 8 : 40;

  cfg.duration_s = smoke ? 20 : 80;
  cfg.goodput_window_s = 1.0;
  cfg.seed = 2014;
  cfg.route = cloud::RoutePolicy::kLatencyWeighted;

  // The trigger: one region goes fully dark mid-diurnal-peak, spanning
  // two peak waves in the full drill.
  cfg.blackout_region = 1;
  cfg.blackout_start_s = smoke ? 7 : 38;
  cfg.blackout_duration_s = smoke ? 5 : 24;

  cloud::FailoverPolicy& fo = cfg.failover;
  fo.health_interval_s = 0.25;
  fo.probe_timeout_ms = 60;
  fo.unhealthy_after = 2;
  fo.healthy_after = 4;  // ~1 s of clean probes before re-admission
  // Nominal capacity_qps() ignores the traffic-class service multiplier
  // (mean 1.375x here), so 0.68 nominal ~= 0.94 of effective capacity.
  fo.admission_cap_frac = 0.68;
  fo.admission_burst = 32;
  // Above the healthy-peak sojourn tail (so a fault-free diurnal peak
  // does not by itself start a retry spiral) but far below the queueing
  // delays a dark region's failover wave produces.
  fo.timeout_ms = 150;
  fo.max_retries = 2;
  fo.budget_enabled = true;
  fo.budget_ratio = 0.15;
  fo.budget_burst = 60;
  fo.breaker.enabled = true;
  fo.breaker.open_ms = 250;
  return cfg;
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

  std::cout << "multi-region drill: " << cfg.regions.size() << " regions, "
            << cfg.traffic.mean_query_rate_hz() << " qps mean offered vs "
            << cfg.total_capacity_qps() << " qps nominal capacity, blackout "
            << cfg.blackout_duration_s << " s, " << trials
            << " trials/rung, pool=" << pool.size() << "\n";

  // Per-region queueing forecast (cloud/queueing Erlang-C) at an even
  // healthy-state load split -- where each region's knee sits, and the
  // order-statistics tail the leaf shape implies (cloud/tail).
  const double share_qps =
      cfg.traffic.mean_query_rate_hz() / static_cast<double>(
          cfg.regions.size());
  std::cout << "predicted per-region sojourn at even split:";
  for (const auto& rc : cfg.regions) {
    std::cout << " " << rc.name << "="
              << rc.predicted_sojourn_ms(share_qps * 1.375) << "ms";
  }
  std::cout << "  (tail_amplification(n=" << cfg.regions.size()
            << ", p99) = "
            << cloud::tail_amplification(
                   static_cast<unsigned>(cfg.regions.size()), 0.99)
            << ")\n\n";

  const auto ladder = cloud::failover_scenarios(cfg, trials, &pool);
  std::cout << core::render_multiregion_report(ladder, kSettleS) << "\n";

  // --- headline claims -------------------------------------------------
  // Rung order: naked / capped / full / gray (the gray rung reruns the
  // full stack with the blackout swapped for a fail-slow region).
  const auto& naked = ladder.front();
  const auto& full = ladder[2];
  const auto& gray = ladder.back();
  const auto surv_naked =
      cloud::multiregion_hysteresis(naked.result, naked.config, true,
                                    kSettleS);
  const auto glob_full =
      cloud::multiregion_hysteresis(full.result, full.config, false,
                                    kSettleS);
  const auto glob_gray =
      cloud::multiregion_hysteresis(gray.result, gray.config, false,
                                    kSettleS);
  bool claims_ok = true;
  if (!smoke) {
    // (a) cascade: without caps the SURVIVING regions' goodput stays
    //     <= 60% of pre-fault even after the blacked-out region is back.
    const bool cascaded = surv_naked.recovery_ratio() <= 0.60;
    // (b) containment: the full ladder recovers >= 90% of pre-fault
    //     GLOBAL goodput.
    const bool recovered = glob_full.recovery_ratio() >= 0.90;
    // (c) gray rung: a fail-SLOW region is invisible to breakers (it
    //     still replies), yet the speed-aware health probe must evict it
    //     and the re-admission hysteresis must converge -- global
    //     goodput back to >= 90% of pre-fault after the grayout clears.
    const unsigned gr = gray.config.grayout_region;
    std::uint64_t gray_evictions = 0, gray_readmissions = 0;
    if (gr < gray.result.regions.size()) {
      gray_evictions = gray.result.regions[gr].evictions;
      gray_readmissions = gray.result.regions[gr].readmissions;
    }
    const bool gray_converged = glob_gray.recovery_ratio() >= 0.90 &&
                                gray_evictions >= 1 && gray_readmissions >= 1;
    claims_ok = cascaded && recovered && gray_converged;
    std::cout << "claim (a) cascade: unprotected surviving-region post/pre "
              << surv_naked.recovery_ratio() * 100
              << "% (<= 60% required) -> " << (cascaded ? "ok" : "FAIL")
              << "\n";
    std::cout << "claim (b) containment: full-ladder global post/pre "
              << glob_full.recovery_ratio() * 100
              << "% (>= 90% required) -> " << (recovered ? "ok" : "FAIL")
              << "\n";
    std::cout << "claim (c) gray-out convergence: global post/pre "
              << glob_gray.recovery_ratio() * 100 << "% (>= 90% required), "
              << gray_evictions << " evictions / " << gray_readmissions
              << " readmissions of the grayed region (>= 1 each) -> "
              << (gray_converged ? "ok" : "FAIL") << "\n\n";
  } else {
    std::cout << "(smoke: hysteresis thresholds skipped)\n\n";
  }

  // --- determinism across pool sizes ----------------------------------
  // The full stack exercises every fail-stop code path (caps, bounded
  // queues, hysteresis, budget, breakers, WAN jitter); the gray rung
  // adds the fail-slow path (set_speed + speed-aware probes).  Together
  // bit-identity covers the whole multi-region layer.
  ThreadPool p1(1), p2(2);
  const auto& check_cfg = full.config;
  const auto r1 = cloud::run_multiregion_trials(check_cfg, trials, &p1);
  const auto r2 = cloud::run_multiregion_trials(check_cfg, trials, &p2);
  const auto rn = cloud::run_multiregion_trials(check_cfg, trials, &pool);
  const auto& gray_cfg = gray.config;
  const auto g1 = cloud::run_multiregion_trials(gray_cfg, trials, &p1);
  const auto g2 = cloud::run_multiregion_trials(gray_cfg, trials, &p2);
  const auto gn = cloud::run_multiregion_trials(gray_cfg, trials, &pool);
  const bool identical = r1 == r2 && r1 == rn && g1 == g2 && g1 == gn;
  std::cout << "determinism: pools {1, 2, " << pool.size()
            << "}, blackout + gray-out rungs -> "
            << (identical ? "bit-identical aggregates" : "MISMATCH") << "\n";

  // --- JSON record -----------------------------------------------------
  std::ofstream out("BENCH_multiregion.json");
  out << "{\n  "
      << bench::meta_json(static_cast<unsigned>(pool.size()))
      << ",\n  \"regions\": " << cfg.regions.size()
      << ",\n  \"trials\": " << trials << ",\n  \"threads\": " << pool.size()
      << ",\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"blackout\": {\"region\": " << cfg.blackout_region
      << ", \"start_s\": " << cfg.blackout_start_s
      << ", \"duration_s\": " << cfg.blackout_duration_s << "}"
      << ",\n  \"grayout\": {\"region\": " << gray.config.grayout_region
      << ", \"slow_factor\": " << gray.config.grayout_slow_factor << "}"
      << ",\n  \"unprotected_surviving_recovery\": "
      << surv_naked.recovery_ratio()
      << ",\n  \"full_global_recovery\": " << glob_full.recovery_ratio()
      << ",\n  \"gray_global_recovery\": " << glob_gray.recovery_ratio()
      << ",\n  \"claims_ok\": " << (claims_ok ? "true" : "false")
      << ",\n  \"identical_across_pools\": " << (identical ? "true" : "false")
      << ",\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    const auto& r = ladder[i].result;
    const auto g = cloud::multiregion_hysteresis(r, ladder[i].config, false,
                                                 kSettleS);
    const auto sv = cloud::multiregion_hysteresis(r, ladder[i].config, true,
                                                  kSettleS);
    out << "    {\"name\": \"" << ladder[i].name
        << "\", \"goodput_qps\": " << r.goodput_qps
        << ", \"pre_qps\": " << g.pre_qps << ", \"post_qps\": " << g.post_qps
        << ", \"recovery\": " << g.recovery_ratio()
        << ", \"surviving_recovery\": " << sv.recovery_ratio()
        << ", \"answered\": " << r.answered << ", \"failed\": " << r.failed
        << ", \"shed\": " << r.shed << ", \"timeouts\": " << r.timeouts
        << ", \"lost\": " << r.lost_requests
        << ", \"attempt_amplification\": " << r.attempt_amplification
        << ", \"p99_ms\": " << r.request_ms.quantile(0.99) << "}"
        << (i + 1 < ladder.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote BENCH_multiregion.json\n";

  return (identical && claims_ok) ? 0 : 1;
}
