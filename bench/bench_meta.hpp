#pragma once
// Build/host provenance for BENCH_*.json: a bench number without the
// commit, core count, build type, and sanitizer mode that produced it is
// not comparable to anything, so every JSON writer stamps this "meta"
// object first.  scripts/bench_gate.py refuses to gate numbers whose
// build_type/san do not match the committed baseline's.
//
// ARCH21_BENCH_BUILD_TYPE / ARCH21_BENCH_SAN are injected per-target by
// bench/CMakeLists.txt; the fallbacks keep the header compilable
// standalone (e.g. in a test build).
//
// ObsOutputs is what the cluster drill benches (resilience, overload,
// grayfail) share besides: the `--metrics-out` / `--trace-out` flags and
// the files they write.

#include <cstddef>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "cloud/cluster.hpp"
#include "core/report.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

#ifndef ARCH21_BENCH_BUILD_TYPE
#define ARCH21_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef ARCH21_BENCH_SAN
#define ARCH21_BENCH_SAN ""
#endif

namespace arch21::bench {

/// Short git SHA of the working tree, or "unknown" outside a checkout.
/// One popen at bench shutdown; never on a timed path.
inline std::string git_sha() {
  std::string sha;
  if (std::FILE* p = ::popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, p) != nullptr) sha = buf;
    ::pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  return sha.empty() ? "unknown" : sha;
}

/// The `"meta": {...}` JSON fragment (no trailing comma).  `workers` is
/// the bench's own parallelism knob (pool size / PDES workers); pass 0
/// for a serial bench.  `repeats` is the best-of repeat count the timed
/// sections used (see --best-of); 0 = the bench's built-in default.  A
/// best-of-10 number and a single-shot number are different instruments
/// on a noisy host, so the repeat count is provenance.
inline std::string meta_json(unsigned workers = 0, int repeats = 0) {
  std::ostringstream os;
  os << "\"meta\": {\"git_sha\": \"" << git_sha()
     << "\", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"build_type\": \"" << ARCH21_BENCH_BUILD_TYPE
     << "\", \"san\": \"" << ARCH21_BENCH_SAN << "\", \"compiler\": \""
#if defined(__VERSION__)
     << __VERSION__
#else
     << "unknown"
#endif
     << "\", \"workers\": " << workers << ", \"repeats\": " << repeats << "}";
  return os.str();
}

/// `--metrics-out [path]` enables the global metrics registry for the
/// whole run and writes its merged snapshot at the end; `--trace-out
/// [path]` replays one trial with a Chrome-trace sink attached.  A flag
/// without a path writes BENCH_<name>_metrics.json /
/// BENCH_<name>_trace.json.  Both default off; the bench parses its
/// other flags itself.
struct ObsOutputs {
  std::string metrics_out, trace_out;

  ObsOutputs(int argc, char** argv, const std::string& name) {
    const std::string stem = "BENCH_" + name;
    for (int i = 1; i < argc; ++i) {
      if (std::strcmp(argv[i], "--metrics-out") == 0)
        metrics_out = (i + 1 < argc) ? argv[++i] : stem + "_metrics.json";
      if (std::strcmp(argv[i], "--trace-out") == 0)
        trace_out = (i + 1 < argc) ? argv[++i] : stem + "_trace.json";
    }
    if (!metrics_out.empty()) {
      obs::MetricsRegistry::global().set_enabled(true);
    }
  }

  /// Write the registry snapshot as JSON and print its report.
  void write_metrics() const {
    if (metrics_out.empty()) return;
    const auto snap = obs::MetricsRegistry::global().snapshot();
    std::ofstream mout(metrics_out);
    mout << snap.to_json() << "\n";
    std::cout << "\n" << core::render_metrics_report(snap) << "wrote "
              << metrics_out << "\n";
  }

  /// Run `cfg` once with a trace attached and write it as Chrome JSON:
  /// ms timestamps, so ts_to_us = 1e3; the ring keeps the most recent
  /// 256k records.
  void write_trace(cloud::ClusterConfig cfg) const {
    if (trace_out.empty()) return;
    obs::TraceBuffer trace(std::size_t{1} << 18, 1e3);
    cfg.trace = &trace;
    (void)cloud::simulate_cluster(cfg);
    std::ofstream tout(trace_out);
    trace.write_chrome_json(tout);
    std::cout << "wrote " << trace_out << " (" << trace.size() << " events, "
              << trace.dropped() << " dropped)\n";
  }
};

}  // namespace arch21::bench
