// Tests of the table-driven RpcMetrics registry (DESIGN.md §8): every
// descriptor row records, reports and resets; each row kind folds values as
// documented; concurrent adds stay exact; README's Observability table is
// generated from the rows; the histogram's open-ended top bucket reports a
// true bound.

#include "net/rpc_metrics.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace xrpc::net {
namespace {

constexpr std::string_view kLabel = "xrpc://labelled";

/// The report line starting with `prefix`, plus a trailing space so a
/// " key=1 " search cannot match a longer value; "" when absent.
std::string LineStartingWith(const std::string& report,
                             const std::string& prefix) {
  std::istringstream in(report);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(prefix, 0) == 0) return line + " ";
  }
  return "";
}

/// How a row recorded once renders: " key=1 " or " key: n=1 ".
std::string Cell(const MetricRow& row) {
  std::string cell = " ";
  cell += row.key;
  cell += row.kind == MetricKind::kHistogram ? ": n=1 " : "=1 ";
  return cell;
}

TEST(RpcMetricsTest, GroupsAreContiguousRuns) {
  for (size_t i = 1; i < kMetricCount; ++i) {
    if (kMetricRows[i].group == kMetricRows[i - 1].group) continue;
    for (size_t j = 0; j < i; ++j) {
      EXPECT_NE(kMetricRows[j].group, kMetricRows[i].group)
          << "group " << kMetricRows[i].group << " is split";
    }
  }
}

TEST(RpcMetricsTest, EveryRowRecordsReportsAndResets) {
  for (const MetricRow& row : kMetricRows) {
    const std::string group(row.group);
    SCOPED_TRACE(group + " " + std::string(row.key));
    const bool labelled = row.label != MetricLabel::kNone;
    const std::string_view label = labelled ? kLabel : std::string_view();
    RpcMetrics m;
    m.Add(row.metric, 1, label);
    EXPECT_EQ(m.Get(row.metric), 1);
    EXPECT_EQ(m.Get(row.metric, label), 1);
    if (labelled) {
      EXPECT_EQ(m.Get(row.metric, "xrpc://other"), 0);
    }

    const std::string report = m.Report();
    EXPECT_NE(LineStartingWith(report, "  " + group + ":").find(Cell(row)),
              std::string::npos)
        << report;
    if (labelled) {
      const std::string per_label = "  " + group + " " + std::string(kLabel);
      EXPECT_NE(LineStartingWith(report, per_label + ":").find(Cell(row)),
                std::string::npos)
          << report;
    }

    m.Reset();
    EXPECT_EQ(m.Get(row.metric), 0);
    EXPECT_EQ(LineStartingWith(m.Report(), "  " + group + ":").find(Cell(row)),
              std::string::npos);
  }
}

TEST(RpcMetricsTest, KindsFoldAsDocumented) {
  RpcMetrics m;
  m.Add(Metric::kTxnInDoubt, 2);
  m.Add(Metric::kTxnInDoubt, -5);  // a gauge never goes negative
  EXPECT_EQ(m.Get(Metric::kTxnInDoubt), 0);
  m.Add(Metric::kTxnInDoubt, 1);
  EXPECT_EQ(m.Get(Metric::kTxnInDoubt), 1);

  m.Add(Metric::kReplicaMaxGap, 7);
  m.Add(Metric::kReplicaMaxGap, 3);  // a max keeps its high-water mark
  EXPECT_EQ(m.Get(Metric::kReplicaMaxGap), 7);

  m.Observe(Metric::kFanoutLatency, 10);
  m.Observe(Metric::kFanoutLatency, 300);
  EXPECT_EQ(m.Get(Metric::kFanoutLatency), 2);  // a histogram counts samples
  EXPECT_EQ(m.Histogram(Metric::kFanoutLatency).max_micros(), 300);

  m.RecordExchange("xrpc://a", 10, 20, 100, /*ok=*/true);
  m.RecordExchange("xrpc://b", 1, 0, 50, /*ok=*/false);
  EXPECT_EQ(m.Get(Metric::kRequests), 2);
  EXPECT_EQ(m.Get(Metric::kFailures, "xrpc://b"), 1);
  EXPECT_EQ(m.Get(Metric::kBytesReceived, "xrpc://a"), 20);
  EXPECT_EQ(m.Histogram(Metric::kLatency).samples(), 2);
  EXPECT_EQ(m.Histogram(Metric::kLatency, "xrpc://b").max_micros(), 50);

  using Outcome = RpcMetrics::TenantOutcome;
  m.RecordTenantQuery("batch", Outcome::kOk, 400, /*slo_met=*/true);
  m.RecordTenantQuery("batch", Outcome::kRejected, 0, /*slo_met=*/false);
  EXPECT_EQ(m.Get(Metric::kTenantOffered, "batch"), 2);
  EXPECT_EQ(m.Get(Metric::kTenantOk, "batch"), 1);
  EXPECT_EQ(m.Get(Metric::kTenantRejected, "batch"), 1);
  EXPECT_EQ(m.Get(Metric::kTenantSloMet, "batch"), 1);
  EXPECT_EQ(m.Get(Metric::kTenantLatency, "batch"), 1);  // rejects never ran
}

TEST(RpcMetricsTest, ConcurrentAddsAreExact) {
  constexpr int kThreads = 4;
  constexpr int kAdds = 10000;
  RpcMetrics m;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m, t] {
      const std::string label = "collection" + std::to_string(t);
      for (int i = 0; i < kAdds; ++i) {
        m.Add(Metric::kInjectedFaults);
        m.Add(Metric::kRouteMisses, 1, label);
      }
    });
  }
  std::string report = m.Report();  // a reader racing the writers
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(m.Get(Metric::kInjectedFaults), kThreads * kAdds);
  EXPECT_EQ(m.Get(Metric::kRouteMisses), kThreads * kAdds);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(m.Get(Metric::kRouteMisses, "collection" + std::to_string(t)),
              kAdds);
  }
  report = m.Report();
  EXPECT_NE(report.find("route: key_misses=40000"), std::string::npos)
      << report;
}

/// README's Observability table, generated from the descriptor rows.
std::string GeneratedReadmeTable() {
  static constexpr std::string_view kKind[] = {"counter", "gauge", "max",
                                               "histogram"};
  static constexpr std::string_view kPer[] = {
      "", ", per peer", ", per server", ", per tenant", ", per failed primary",
      ", per collection"};
  std::string out =
      "| Line | Key | Kind | What it counts |\n|---|---|---|---|\n";
  for (const MetricRow& row : kMetricRows) {
    out += "| `" + std::string(row.group) + ":` | `" + std::string(row.key) +
           "` | " + std::string(kKind[static_cast<size_t>(row.kind)]) +
           std::string(kPer[static_cast<size_t>(row.label)]) + " | " +
           std::string(row.help) + " |\n";
  }
  return out;
}

TEST(RpcMetricsTest, ReadmeObservabilityTableMatchesRegistry) {
  std::ifstream in(std::string(XRPC_SOURCE_DIR) + "/README.md");
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string readme = buffer.str();
  const size_t section = readme.find("## Observability");
  ASSERT_NE(section, std::string::npos);
  const size_t begin = readme.find("| Line |", section);
  ASSERT_NE(begin, std::string::npos);
  const size_t end = readme.find("\n\n", begin);
  ASSERT_NE(end, std::string::npos);
  const std::string expected = GeneratedReadmeTable();
  EXPECT_EQ(readme.substr(begin, end + 1 - begin), expected)
      << "README.md's Observability table drifted from kMetricRows; "
         "replace it with:\n"
      << expected;
}

TEST(LatencyHistogramTest, OpenTopBucketBoundCoversMax) {
  LatencyHistogram h;
  h.Record(3000000);
  EXPECT_GT(h.PercentileUpperBound(0.5), 3000000);
  EXPECT_GT(h.PercentileUpperBound(0.99), h.max_micros());
  EXPECT_EQ(h.Summary().find("p50<2097152us"), std::string::npos)
      << h.Summary();
}

}  // namespace
}  // namespace xrpc::net
