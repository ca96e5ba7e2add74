// Tests for the observability subsystem: the sharded metrics registry
// (lock-free hot path, deterministic merge), the bounded trace ring with
// Chrome trace_event JSON export, and -- most importantly -- the
// contract that attaching metrics or a trace to a simulation NEVER
// changes its results.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/cluster.hpp"
#include "cloud/resilience.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace arch21 {
namespace {

using obs::MetricKind;
using obs::MetricsRegistry;
using obs::TraceBuffer;

// ------------------------------------------------------- metrics registry

TEST(Metrics, DisabledRecordingIsANoOp) {
  MetricsRegistry reg;
  const auto c = reg.counter("ops");
  const auto g = reg.gauge("hwm");
  const auto t = reg.timer("lat");
  ASSERT_FALSE(reg.enabled());
  reg.add(c, 100);
  reg.gauge_max(g, 42.0);
  reg.record(t, 1.0);
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].count, 0u);
  EXPECT_EQ(snap.entries[1].value, 0.0);
  EXPECT_EQ(snap.entries[2].count, 0u);
}

TEST(Metrics, CountersGaugesTimersAccumulate) {
  MetricsRegistry reg;
  const auto c = reg.counter("ops");
  const auto g = reg.gauge("hwm");
  const auto t = reg.timer("lat", 1e-3, 1e3, 30);
  reg.set_enabled(true);
  reg.add(c);
  reg.add(c, 9);
  reg.gauge_max(g, 5.0);
  reg.gauge_max(g, 3.0);  // below the high water: ignored
  for (int i = 1; i <= 100; ++i) reg.record(t, static_cast<double>(i));
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].name, "ops");
  EXPECT_EQ(snap.entries[0].kind, MetricKind::kCounter);
  EXPECT_EQ(snap.entries[0].count, 10u);
  EXPECT_EQ(snap.entries[1].kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(snap.entries[1].value, 5.0);
  EXPECT_EQ(snap.entries[2].kind, MetricKind::kTimer);
  EXPECT_EQ(snap.entries[2].count, 100u);
  EXPECT_NEAR(snap.entries[2].hist.mean(), 50.5, 1e-9);
  EXPECT_NEAR(snap.entries[2].hist.quantile(0.5), 50.0, 5.0);

  reg.reset();
  const auto zero = reg.snapshot();
  EXPECT_EQ(zero.entries[0].count, 0u);
  EXPECT_EQ(zero.entries[2].count, 0u);
}

TEST(Metrics, RegistrationIsIdempotentAndKindChecked) {
  MetricsRegistry reg;
  const auto a = reg.counter("x");
  const auto b = reg.counter("x");
  EXPECT_EQ(a, b);
  EXPECT_EQ(reg.metric_count(), 1u);
  EXPECT_THROW(reg.gauge("x"), std::invalid_argument);
  EXPECT_THROW(reg.timer("x"), std::invalid_argument);
  const auto t = reg.timer("t", 1e-3, 1e3, 30);
  EXPECT_EQ(reg.timer("t", 1e-3, 1e3, 30), t);
  // Same name, different histogram layout: silently merging misaligned
  // buckets downstream would corrupt quantiles, so it must throw.
  EXPECT_THROW(reg.timer("t", 1e-3, 1e3, 60), std::invalid_argument);
  EXPECT_THROW(reg.timer("t", 1e-2, 1e3, 30), std::invalid_argument);
}

TEST(Metrics, ShardsSumExactlyAcrossThreads) {
  MetricsRegistry reg;
  const auto c = reg.counter("ops");
  const auto g = reg.gauge("chunk.max");
  const auto t = reg.timer("val", 1e-3, 1e4, 30);
  reg.set_enabled(true);
  ThreadPool pool(4);
  constexpr std::size_t kN = 10'000;
  pool.parallel_for(
      kN,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) {
          reg.add(c);
          reg.gauge_max(g, static_cast<double>(i));
          reg.record(t, static_cast<double>(i % 97) + 1.0);
        }
      },
      /*grain=*/64);
  // parallel_for blocked until every chunk finished, so the shards are
  // quiescent and snapshot() sees every write.
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.entries[0].count, kN);
  EXPECT_DOUBLE_EQ(snap.entries[1].value, static_cast<double>(kN - 1));
  EXPECT_EQ(snap.entries[2].count, kN);
}

TEST(Metrics, SnapshotJsonHasEveryMetric) {
  MetricsRegistry reg;
  reg.counter("a.count");
  reg.gauge("b.gauge");
  reg.timer("c.timer");
  reg.set_enabled(true);
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"a.count\""), std::string::npos);
  EXPECT_NE(json.find("\"b.gauge\""), std::string::npos);
  EXPECT_NE(json.find("\"c.timer\""), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
}

// ------------------------------------------------------------ trace ring

TEST(Trace, BadConstructionThrows) {
  EXPECT_THROW(TraceBuffer(0), std::invalid_argument);
  EXPECT_THROW(TraceBuffer(16, 0.0), std::invalid_argument);
  EXPECT_THROW(TraceBuffer(16, -1.0), std::invalid_argument);
}

TEST(Trace, RingIsBoundedAndDropsOldest) {
  TraceBuffer tb(8);
  const auto n = tb.intern("tick");
  for (int i = 0; i < 20; ++i) {
    tb.instant(n, static_cast<double>(i), 0);
  }
  EXPECT_EQ(tb.size(), 8u);
  EXPECT_EQ(tb.capacity(), 8u);
  EXPECT_EQ(tb.dropped(), 12u);
  // The survivors are the NEWEST records: ts 12..19 present, 0..11 gone.
  const std::string json = tb.chrome_json();
  EXPECT_NE(json.find("\"ts\":19.000"), std::string::npos);
  EXPECT_EQ(json.find("\"ts\":11.000"), std::string::npos);
  tb.clear();
  EXPECT_EQ(tb.size(), 0u);
  EXPECT_EQ(tb.dropped(), 0u);
}

// Minimal structural JSON check: every brace/bracket outside a string
// balances and the scan ends at depth zero.  Not a full parser -- just
// enough to catch the classic export bugs (trailing commas are caught by
// the required-key checks plus Perfetto; unescaped quotes and unbalanced
// nesting are caught here).
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
  }
  return depth == 0 && !in_string;
}

// Split the export into one string per traceEvents element.  The writer
// emits exactly one event object per line, so line-splitting is a stable
// way to iterate events without a full JSON parser.
std::vector<std::string> event_lines(const std::string& json) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while ((pos = json.find('\n', pos)) != std::string::npos) {
    ++pos;
    if (pos < json.size() && json[pos] == '{') {
      const std::size_t end = json.find('\n', pos);
      out.push_back(json.substr(pos, end - pos));
    }
  }
  return out;
}

double num_field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key << " in " << line;
  return std::stod(line.substr(at + key.size() + 3));
}

std::string str_field(const std::string& line, const std::string& key) {
  const std::size_t at = line.find("\"" + key + "\":\"");
  EXPECT_NE(at, std::string::npos) << key << " in " << line;
  const std::size_t begin = at + key.size() + 4;
  return line.substr(begin, line.find('"', begin) - begin);
}

TEST(Trace, ChromeJsonIsWellFormed) {
  TraceBuffer tb(64, 1e3);
  tb.name_thread(0, "kernel");
  tb.name_thread(1, "leaf \"zero\"\n");  // hostile label must be escaped
  const auto serve = tb.intern("serve");
  const auto fire = tb.intern("fire");
  const auto q = tb.intern("query");
  const auto wait = tb.intern("wait");
  tb.complete(serve, 1.0, 2.5, 1, wait, 0.25);
  tb.instant(fire, 1.5, 0);
  tb.async_begin(q, 7, 0.5);
  tb.async_end(q, 7, 4.0, wait, 1.0);

  const std::string json = tb.chrome_json();
  EXPECT_TRUE(json_balanced(json)) << json;
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("leaf \\\"zero\\\"\\n"), std::string::npos);

  const auto lines = event_lines(json);
  // 1 process_name + 2 thread_name + 4 records.
  ASSERT_EQ(lines.size(), 7u);
  const std::string& x = lines[3];
  EXPECT_EQ(str_field(x, "ph"), "X");
  EXPECT_DOUBLE_EQ(num_field(x, "ts"), 1000.0);   // 1.0 ms -> us
  EXPECT_DOUBLE_EQ(num_field(x, "dur"), 2500.0);  // 2.5 ms -> us
  EXPECT_NE(x.find("\"args\":{\"wait\":0.25}"), std::string::npos);
  EXPECT_EQ(str_field(lines[4], "ph"), "i");
  EXPECT_NE(lines[4].find("\"s\":\"t\""), std::string::npos);
  EXPECT_EQ(str_field(lines[5], "ph"), "b");
  EXPECT_EQ(str_field(lines[5], "id"), "0x7");
  EXPECT_EQ(str_field(lines[5], "cat"), "async");
  EXPECT_EQ(str_field(lines[6], "ph"), "e");
}

// ------------------------------------------- simulation integration

cloud::ClusterConfig traced_cluster_config() {
  cloud::ClusterConfig cfg;
  cfg.leaves = 4;
  cfg.duration_s = 1.0;
  cfg.query_rate_hz = 60;
  cfg.background_rate_hz = 30;
  cfg.background_ms = 2.0;
  cfg.policy.hedge_after_ms = 12;
  cfg.policy.retry.timeout_ms = 30;
  cfg.policy.retry.max_retries = 1;
  cfg.seed = 99;
  return cfg;
}

TEST(TraceIntegration, ClusterSpansNestPerTrack) {
  auto cfg = traced_cluster_config();
  TraceBuffer trace(std::size_t{1} << 18, /*ts_to_us=*/1e3);
  cfg.trace = &trace;
  const auto r = cloud::simulate_cluster(cfg);
  ASSERT_GT(r.queries, 0u);
  ASSERT_EQ(trace.dropped(), 0u) << "enlarge the test ring";

  const std::string json = trace.chrome_json();
  EXPECT_TRUE(json_balanced(json));

  // Perfetto renders 'X' spans on one track correctly only if they do
  // not overlap; the per-server track assignment guarantees it, and this
  // replays the exported JSON to prove it.
  std::map<int, std::vector<std::pair<double, double>>> spans_by_tid;
  std::size_t begins = 0;
  std::size_t ends = 0;
  for (const auto& line : event_lines(json)) {
    const std::string ph = str_field(line, "ph");
    if (ph == "X") {
      spans_by_tid[static_cast<int>(num_field(line, "tid"))].push_back(
          {num_field(line, "ts"), num_field(line, "dur")});
    } else if (ph == "b") {
      ++begins;
    } else if (ph == "e") {
      ++ends;
    }
  }
  ASSERT_FALSE(spans_by_tid.empty());
  for (auto& [tid, spans] : spans_by_tid) {
    EXPECT_GE(tid, 1) << "serve spans live on leaf tracks, not track 0";
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      // 0.01 us slack: ts and dur are exported at %.3f us resolution, so
      // two back-to-back spans can disagree by a rounding ulp or two.
      EXPECT_GE(spans[i].first,
                spans[i - 1].first + spans[i - 1].second - 1e-2)
          << "overlapping serve spans on tid " << tid;
    }
  }
  // Fault-free run drained to completion: every query span that began
  // also ended (ring verified drop-free above).
  EXPECT_EQ(begins, r.queries);
  EXPECT_EQ(ends, begins);
  // Kernel instants landed on track 0.
  EXPECT_NE(json.find("\"des.fire\""), std::string::npos);
  EXPECT_NE(json.find("\"hedge\""), std::string::npos);
}

TEST(TraceIntegration, TracingDoesNotPerturbResults) {
  const auto cfg = traced_cluster_config();
  const auto plain = cloud::simulate_cluster(cfg);

  auto traced_cfg = cfg;
  TraceBuffer trace(std::size_t{1} << 18, 1e3);
  traced_cfg.trace = &trace;
  auto& m = MetricsRegistry::global();
  m.set_enabled(true);
  const auto traced = cloud::simulate_cluster(traced_cfg);
  m.set_enabled(false);

  EXPECT_GT(trace.size(), 0u);
  EXPECT_EQ(plain.queries, traced.queries);
  EXPECT_EQ(plain.ok_queries, traced.ok_queries);
  EXPECT_EQ(plain.degraded_queries, traced.degraded_queries);
  EXPECT_EQ(plain.failed_queries, traced.failed_queries);
  EXPECT_EQ(plain.retries, traced.retries);
  EXPECT_EQ(plain.hedges, traced.hedges);
  EXPECT_EQ(plain.timeouts, traced.timeouts);
  EXPECT_EQ(plain.leaf_requests, traced.leaf_requests);
  EXPECT_EQ(plain.query_ms.count(), traced.query_ms.count());
  EXPECT_DOUBLE_EQ(plain.query_ms.quantile(0.5),
                   traced.query_ms.quantile(0.5));
  EXPECT_DOUBLE_EQ(plain.query_ms.quantile(0.99),
                   traced.query_ms.quantile(0.99));
  EXPECT_DOUBLE_EQ(plain.sum_result_quality, traced.sum_result_quality);
  EXPECT_DOUBLE_EQ(plain.mean_leaf_utilization,
                   traced.mean_leaf_utilization);
}

TEST(TraceIntegration, ClusterMetricsPublishedToGlobalRegistry) {
  auto& m = MetricsRegistry::global();
  m.set_enabled(true);
  m.reset();
  const auto cfg = traced_cluster_config();
  const auto r = cloud::simulate_cluster(cfg);
  const auto snap = m.snapshot();
  m.set_enabled(false);

  auto find = [&](const std::string& name) -> const obs::MetricsSnapshot::Entry* {
    for (const auto& e : snap.entries) {
      if (e.name == name) return &e;
    }
    return nullptr;
  };
  const auto* queries = find("cluster.queries");
  ASSERT_NE(queries, nullptr);
  EXPECT_EQ(queries->count, r.queries);
  const auto* hedges = find("cluster.hedges");
  ASSERT_NE(hedges, nullptr);
  EXPECT_EQ(hedges->count, r.hedges);
  const auto* executed = find("des.executed");
  ASSERT_NE(executed, nullptr);
  EXPECT_GT(executed->count, r.queries);
  const auto* qms = find("cluster.query_ms");
  ASSERT_NE(qms, nullptr);
  EXPECT_EQ(qms->count, r.ok_queries + r.degraded_queries);
  // Same layout as ClusterResult::query_ms, so the quantiles agree.
  EXPECT_DOUBLE_EQ(qms->hist.quantile(0.99), r.query_ms.quantile(0.99));
  const auto* hwm = find("slab.queries.hwm");
  ASSERT_NE(hwm, nullptr);
  EXPECT_GE(hwm->value, 1.0);
}

TEST(TraceIntegration, MultiTrialRunsRejectATraceSink) {
  auto cfg = traced_cluster_config();
  TraceBuffer trace(1024, 1e3);
  cfg.trace = &trace;
  EXPECT_THROW(cloud::run_cluster_trials(cfg, 2), std::invalid_argument);
}

TEST(PoolStats, CountsSubmissionsExecutionsAndSteals) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&] { ++ran; });
  }
  pool.wait_idle();
  const auto s = pool.stats();
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(s.submitted, 64u);
  EXPECT_EQ(s.executed, 64u);
  EXPECT_GE(s.max_queue_depth, 1u);
  EXPECT_LE(s.steals, s.executed);
}

}  // namespace
}  // namespace arch21
