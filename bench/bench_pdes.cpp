// E30 parallel-DES harness: replays the seeded multi-LP mesh workload
// (des/pdes_workload.hpp) through the serial LoopbackEngine and through
// des::ParallelEngine at workers 1/2/4/8, reports Mev/s per
// configuration, and verifies every parallel replay is bit-identical to
// the serial one -- the engine-level differential determinism check.
// Then the LP-sharded cluster scenario (simulate_cluster at
// net_latency_ms > 0) gets the
// same treatment: one serial reference run (workers=0), then workers
// 1/2/4/8, asserting whole-ClusterResult equality (histograms included)
// and timing each.
//
// Gates (exit nonzero on breach):
//   * ANY divergence between a parallel replay and the serial reference;
//   * full mode: workers=1 mesh overhead vs the serial loopback > 10%
//     (ARCH21_PDES_OVERHEAD_TOL overrides the fraction) -- conservative
//     sync must be near-free when it has nothing to hide;
//   * full mode on a >= 4-core host: mesh speedup at 4 workers < 1.8x.
//     On smaller hosts the speedup is reported but not gated.
// `--smoke` shrinks the workloads and runs only the determinism checks
// (for tier1.sh, including under TSan).  Emits BENCH_pdes.json.
//
// Every parallel row also reports the worker team's PDES efficiency:
// busy time / (busy + barrier-wait time), summed over team members, from
// one extra untimed run per row (ParallelEngine::member_times for the
// mesh, the published pdes.team.* metrics for the cluster).  It is
// host-timed context for the speedup numbers, not a gate.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_meta.hpp"
#include "cloud/cluster.hpp"
#include "des/partition.hpp"
#include "des/pdes.hpp"
#include "des/pdes_workload.hpp"
#include "des/simulator.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace arch21;

constexpr std::uint64_t kSeed = 2014;
constexpr unsigned kWorkerCounts[] = {1, 2, 4, 8};

struct Row {
  std::string name;
  unsigned workers = 0;  // 0 = serial loopback reference
  std::uint64_t events = 0;
  double seconds = 0;
  bool identical = true;  // vs the workers=0 reference (trivially true there)
  double efficiency = -1;  // team busy / (busy + wait); < 0: no team
  double mev_s() const { return seconds > 0 ? events / seconds / 1e6 : 0; }
};

/// Team efficiency, busy / (busy + barrier wait) over all members; -1
/// when nothing was timed.
double efficiency(std::uint64_t busy_ns, std::uint64_t wait_ns) {
  const double total = static_cast<double>(busy_ns + wait_ns);
  return total > 0 ? busy_ns / total : -1;
}

// The efficiency of a row comes from one extra, untimed run, so the timed
// repeats run exactly the code they ran before the team clocks existed.

double metered_mesh_efficiency(const des::PartitionSpec& spec,
                               ThreadPool& pool, double horizon,
                               unsigned work) {
  des::ParallelEngine eng(spec, pool);
  des::run_pdes_mesh(eng, kSeed, horizon, work);
  std::uint64_t busy = 0, wait = 0;
  for (const auto& t : eng.member_times()) {
    busy += t.busy_ns;
    wait += t.wait_ns;
  }
  return efficiency(busy, wait);
}

/// The engine is internal to simulate_cluster, so this reads the
/// pdes.team.* counters it publishes; the registry is on only for this
/// run, because it also records per-query samples.
double metered_cluster_efficiency(const cloud::ClusterConfig& cfg) {
  auto& m = obs::MetricsRegistry::global();
  m.reset();
  m.set_enabled(true);
  cloud::simulate_cluster(cfg);
  m.set_enabled(false);
  std::uint64_t busy = 0, wait = 0;
  for (const auto& e : m.snapshot().entries) {
    if (e.name == "pdes.team.busy_ns") busy = e.count;
    if (e.name == "pdes.team.wait_ns") wait = e.count;
  }
  m.reset();
  return efficiency(busy, wait);
}

template <typename Fn>
double best_seconds(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int best_of = 0;  // 0 = built-in default
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--best-of") == 0 && i + 1 < argc)
      best_of = std::atoi(argv[++i]);
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  // --best-of N: keep the best of N timed repeats (jitter suppression
  // for the regression gate); stamped into the meta provenance.  The
  // non-smoke default is high because the workers=1 overhead gate is a
  // *ratio* of two timings taken seconds apart -- host frequency drift
  // between them reads as phantom overhead unless each side is a
  // min-of-many.
  const int reps = best_of > 0 ? best_of : (smoke ? 1 : 7);

  double overhead_tol = 0.10;
  if (const char* env = std::getenv("ARCH21_PDES_OVERHEAD_TOL")) {
    overhead_tol = std::atof(env);
  }

  // --- mesh workload: kernel-level Mev/s, serial vs parallel ---
  des::PartitionSpec spec;
  spec.lps = 8;
  // Lookahead sized so each conservative window carries ~25 local events
  // per LP (the regime PDES is for: local event rate is ~1 per time
  // unit).  Shrinking it measures window bookkeeping instead of useful
  // work -- that regime is covered by the overhead gate staying finite,
  // not by this workload.
  spec.lookahead = 25.0;
  const double horizon = smoke ? 400.0 : 4000.0;
  const unsigned work = 24;

  std::cout << "PDES engine: serial loopback vs conservative parallel"
            << (smoke ? " (smoke)" : "") << "\n"
            << "mesh: lps=" << spec.lps << " lookahead=" << spec.lookahead
            << " horizon=" << horizon << " host_cores=" << hw << "\n\n";

  std::vector<Row> rows;
  std::vector<double> overhead_ratios;  // one w1/serial ratio per round
  des::PdesWorkloadResult mesh_ref;
  {
    // Serial and workers=1 are the two sides of the overhead gate's
    // ratio, so their timed repeats are *interleaved*: each round times
    // one serial and one workers=1 pass back to back, and each side
    // keeps its own min.  A load spike or frequency step then lands on
    // both sides of the ratio instead of biasing whichever row happened
    // to run during the slow moment.
    ThreadPool pool1(1);
    des::PdesWorkloadResult got1;
    double best_serial = 1e300;
    double best_w1 = 1e300;
    for (int r = 0; r < reps; ++r) {
      const double s = best_seconds(1, [&] {
        des::LoopbackEngine eng(spec);
        mesh_ref = des::run_pdes_mesh(eng, kSeed, horizon, work);
      });
      const double w = best_seconds(1, [&] {
        des::ParallelEngine eng(spec, pool1);
        got1 = des::run_pdes_mesh(eng, kSeed, horizon, work);
      });
      best_serial = std::min(best_serial, s);
      best_w1 = std::min(best_w1, w);
      overhead_ratios.push_back(w / s);
    }
    Row rs;
    rs.name = "mesh";
    rs.workers = 0;
    rs.seconds = best_serial;
    rs.events = mesh_ref.executed;
    rows.push_back(rs);
    Row r1;
    r1.name = "mesh";
    r1.workers = 1;
    r1.seconds = best_w1;
    r1.events = got1.executed;
    r1.identical = got1 == mesh_ref;
    r1.efficiency = metered_mesh_efficiency(spec, pool1, horizon, work);
    rows.push_back(r1);
  }
  for (const unsigned workers : kWorkerCounts) {
    if (workers == 1) continue;  // measured above, paired with serial
    ThreadPool pool(workers);
    Row r;
    r.name = "mesh";
    r.workers = workers;
    des::PdesWorkloadResult got;
    r.seconds = best_seconds(reps, [&] {
      des::ParallelEngine eng(spec, pool);
      got = des::run_pdes_mesh(eng, kSeed, horizon, work);
    });
    r.events = got.executed;
    r.identical = got == mesh_ref;
    r.efficiency = metered_mesh_efficiency(spec, pool, horizon, work);
    rows.push_back(r);
  }

  // --- cluster scenario: whole-result determinism + wall clock ---
  cloud::ClusterConfig cfg;
  cfg.leaves = 64;
  cfg.leaf_groups = 8;
  cfg.net_latency_ms = 1.0;
  cfg.query_rate_hz = smoke ? 60 : 200;
  cfg.background_rate_hz = 30;
  cfg.duration_s = smoke ? 2 : 5;
  cfg.goodput_window_s = 1;
  cfg.seed = kSeed;

  cloud::ClusterResult cluster_ref;
  {
    Row r;
    r.name = "cluster";
    r.workers = 0;
    cfg.workers = 0;
    r.seconds = best_seconds(
        reps, [&] { cluster_ref = cloud::simulate_cluster(cfg); });
    r.events = cluster_ref.leaf_requests;
    rows.push_back(r);
  }
  for (const unsigned workers : kWorkerCounts) {
    Row r;
    r.name = "cluster";
    r.workers = workers;
    cfg.workers = workers;
    cloud::ClusterResult got;
    r.seconds =
        best_seconds(reps, [&] { got = cloud::simulate_cluster(cfg); });
    r.events = got.leaf_requests;
    r.identical = got == cluster_ref;
    r.efficiency = metered_cluster_efficiency(cfg);
    rows.push_back(r);
  }

  bool all_identical = true;
  double mesh_serial_s = 0, mesh_w1_s = 0, mesh_w4_s = 0;
  for (const Row& r : rows) {
    all_identical = all_identical && r.identical;
    if (r.name == "mesh") {
      if (r.workers == 0) mesh_serial_s = r.seconds;
      if (r.workers == 1) mesh_w1_s = r.seconds;
      if (r.workers == 4) mesh_w4_s = r.seconds;
    }
    std::cout << r.name << " workers="
              << (r.workers == 0 ? std::string("serial")
                                 : std::to_string(r.workers))
              << ": " << r.events << " events in " << r.seconds << " s ("
              << r.mev_s() << " Mev/s), result "
              << (r.identical ? "identical" : "DIVERGED");
    if (r.efficiency >= 0) std::cout << ", efficiency " << r.efficiency;
    std::cout << "\n";
  }

  // Gate on the *median* per-round ratio: every round timed serial and
  // workers=1 back to back, so each ratio is free of cross-round drift,
  // and the median discards the rounds a load spike hit.  (min/min over
  // all rounds -- what the row Mev/s numbers use -- still compares
  // timings that can be many seconds apart.)
  double overhead = mesh_serial_s > 0 ? mesh_w1_s / mesh_serial_s - 1.0 : 0;
  if (!overhead_ratios.empty()) {
    std::sort(overhead_ratios.begin(), overhead_ratios.end());
    overhead = overhead_ratios[overhead_ratios.size() / 2] - 1.0;
  }
  const double speedup4 = mesh_w4_s > 0 ? mesh_serial_s / mesh_w4_s : 0;
  bool overhead_ok = true;
  bool speedup_ok = true;
  if (!smoke) {
    overhead_ok = overhead <= overhead_tol;
    std::cout << "\nworkers=1 overhead vs serial (median of " << reps
              << " paired rounds): " << overhead * 100 << "% (tolerance "
              << overhead_tol * 100 << "%) -> "
              << (overhead_ok ? "ok" : "BREACH") << "\n";
    if (hw >= 4) {
      speedup_ok = speedup4 >= 1.8;
      std::cout << "workers=4 speedup: " << speedup4 << "x (floor 1.8x) -> "
                << (speedup_ok ? "ok" : "BREACH") << "\n";
    } else {
      std::cout << "workers=4 speedup: " << speedup4 << "x (not gated: host has "
                << hw << " core" << (hw == 1 ? "" : "s") << ")\n";
    }
  }
  std::cout << "\ndifferential determinism: "
            << (all_identical ? "bit-identical at every worker count"
                              : "DIVERGENCE")
            << "\n";

  std::ofstream out("BENCH_pdes.json");
  out << "{\n  " << bench::meta_json(hw, reps)
      << ",\n  \"smoke\": " << (smoke ? "true" : "false")
      << ",\n  \"identical\": " << (all_identical ? "true" : "false")
      << ",\n  \"workers1_overhead\": " << overhead
      << ",\n  \"workers4_speedup\": " << speedup4
      // One LP kernel's fixed footprint (bucket ring headers, occupancy
      // bitmap, bookkeeping), before any event storage: informational,
      // not gated.
      << ",\n  \"kernel_bytes\": " << sizeof(des::Simulator)
      << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    out << "    {\"name\": \"" << r.name << "\", \"workers\": " << r.workers
        << ", \"events\": " << r.events << ", \"seconds\": " << r.seconds
        << ", \"mev_per_sec\": " << r.mev_s() << ", \"efficiency\": ";
    if (r.efficiency >= 0) {
      out << r.efficiency;
    } else {
      out << "null";
    }
    out << ", \"identical\": " << (r.identical ? "true" : "false") << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote BENCH_pdes.json\n";

  return (all_identical && overhead_ok && speedup_ok) ? 0 : 1;
}
