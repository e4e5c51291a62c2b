// Tests of the open-loop multi-tenant workload driver (DESIGN.md §16) and
// the no-lost-shard detector of the chaos explorer. The central
// contracts: (seed, config) pins the arrival schedule AND the full SLO
// report byte-for-byte (including the chaos interleaving and the
// RpcMetrics tenant:/slo: lines); admission rejection actually rejects
// under overload; and the sabotage self-test proves the no-lost-shard
// invariant can fire — the detector is non-vacuous.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fuzz/chaos.h"
#include "load/workload.h"

namespace xrpc::load {
namespace {

WorkloadConfig SmallConfig(bool chaos) {
  WorkloadConfig config;
  config.seed = 7;
  config.num_shards = 8;
  config.replication_factor = 2;
  config.duration_us = 200'000;
  config.chaos = chaos;

  TenantSpec interactive;
  interactive.name = "interactive";
  interactive.arrival_qps = 80.0;
  interactive.point_fraction = 0.8;
  interactive.zipf_s = 1.0;
  TenantSpec batch;
  batch.name = "batch";
  batch.arrival_qps = 25.0;
  batch.update_fraction = 0.5;
  batch.point_fraction = 0.2;
  batch.zipf_s = 0.0;
  config.tenants.push_back(interactive);
  config.tenants.push_back(batch);
  return config;
}

TEST(WorkloadTest, ArrivalScheduleIsDeterministicBySeed) {
  const WorkloadConfig config = SmallConfig(/*chaos=*/false);
  const std::vector<Arrival> a = BuildArrivals(config);
  const std::vector<Arrival> b = BuildArrivals(config);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_us, b[i].time_us) << i;
    EXPECT_EQ(a[i].tenant, b[i].tenant) << i;
    EXPECT_EQ(a[i].seq, b[i].seq) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].key, b[i].key) << i;
  }
  // Sorted by (time, tenant, seq) — the replay order is well-defined.
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_LE(a[i - 1].time_us, a[i].time_us) << i;
  }

  // A different seed produces a different schedule.
  WorkloadConfig other = config;
  other.seed = 8;
  const std::vector<Arrival> c = BuildArrivals(other);
  bool differs = c.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].time_us != c[i].time_us || a[i].kind != c[i].kind ||
              a[i].key != c[i].key;
  }
  EXPECT_TRUE(differs);
}

TEST(WorkloadTest, IdenticalSeedsReproduceIdenticalReports) {
  for (bool chaos : {false, true}) {
    auto first = RunWorkload(SmallConfig(chaos));
    auto second = RunWorkload(SmallConfig(chaos));
    ASSERT_TRUE(first.ok()) << first.status();
    ASSERT_TRUE(second.ok()) << second.status();
    // The whole rendered report — schedule, mix, percentiles, goodput —
    // and the RpcMetrics dump must agree byte-for-byte.
    EXPECT_EQ(first->Format(), second->Format()) << "chaos=" << chaos;
    EXPECT_EQ(first->metrics_report, second->metrics_report)
        << "chaos=" << chaos;
    EXPECT_GT(first->arrivals, 0);
    if (chaos) {
      EXPECT_GT(first->chaos_events_fired, 0);
    }
  }
}

TEST(WorkloadTest, ReportCarriesPerTenantAccountingAndSloLines) {
  auto report = RunWorkload(SmallConfig(/*chaos=*/false));
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->tenants.size(), 2u);
  int64_t classified = 0;
  for (const TenantReport& t : report->tenants) {
    EXPECT_GT(t.offered, 0) << t.name;
    EXPECT_EQ(t.offered, t.ok + t.rejected + t.deadline_exceeded + t.failed)
        << t.name;
    EXPECT_EQ(t.offered, t.point_reads + t.join_reads + t.updates) << t.name;
    EXPECT_LE(t.slo_met, t.ok) << t.name;
    classified += t.offered;
  }
  EXPECT_EQ(classified, report->arrivals);
  // The batch tenant's mix includes updates; the interactive one's none.
  EXPECT_EQ(report->tenants[0].updates, 0);
  EXPECT_GT(report->tenants[1].updates, 0);
  // RpcMetrics carries the per-tenant observability lines.
  EXPECT_NE(report->metrics_report.find("tenant interactive:"),
            std::string::npos)
      << report->metrics_report;
  EXPECT_NE(report->metrics_report.find("slo batch:"), std::string::npos)
      << report->metrics_report;
}

TEST(WorkloadTest, OverloadAdmissionRejectsInsteadOfHanging) {
  // One tenant offering far beyond what the modeled fleet can drain with
  // a tiny deadline: open-loop queueing pushes waiting time past the
  // budget and the driver must admission-reject, not dispatch doomed work.
  WorkloadConfig config;
  config.seed = 3;
  config.num_shards = 8;
  config.duration_us = 100'000;
  TenantSpec storm;
  storm.name = "storm";
  storm.arrival_qps = 20000.0;  // ~0.05ms gaps vs ~0.3ms modeled per query
  storm.point_fraction = 0.0;   // all broadcast joins: maximal per-query cost
  storm.deadline_us = 20'000;
  storm.slo_latency_us = 10'000;
  config.tenants.push_back(storm);

  auto report = RunWorkload(config);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_EQ(report->tenants.size(), 1u);
  const TenantReport& t = report->tenants[0];
  EXPECT_GT(t.rejected, 0);
  EXPECT_LT(t.slo_met, t.offered);
}

TEST(WorkloadTest, SabotageSelfTestTripsNoLostShardDetector) {
  // Non-vacuousness proof: with sabotage on, the explorer disconnects
  // every peer serving auctions shard 0 at quiesce instead of healing.
  // The no-lost-shard invariant MUST fire on a plain schedule.
  fuzz::ChaosConfig config;
  config.seed = 5;
  config.sabotage = fuzz::Sabotage::kLostShard;
  fuzz::ChaosExplorer explorer(config);
  fuzz::ChaosResult r = explorer.RunSchedule(explorer.MakeSchedule(0));
  EXPECT_FALSE(r.ok);
  bool hit = false;
  for (const std::string& v : r.violations) {
    if (v.find("no-lost-shard") != std::string::npos) hit = true;
  }
  EXPECT_TRUE(hit) << "violations: " << r.violations.size();

  // And the same schedule without sabotage holds every invariant — the
  // detector fires because of the sabotage, not spuriously.
  fuzz::ChaosConfig clean;
  clean.seed = 5;
  fuzz::ChaosExplorer clean_explorer(clean);
  fuzz::ChaosResult ok = clean_explorer.RunSchedule(
      clean_explorer.MakeSchedule(0));
  EXPECT_TRUE(ok.ok) << (ok.violations.empty() ? "" : ok.violations[0]);
}

TEST(WorkloadTest, TenSecondSmokeSweepStaysHealthy) {
  // The ctest-lane smoke: a short offered-load sweep, chaos on and off,
  // all virtual-time — wall clock stays well under the 10s budget.
  for (double qps : {40.0, 160.0}) {
    for (bool chaos : {false, true}) {
      WorkloadConfig config = SmallConfig(chaos);
      config.tenants[0].arrival_qps = qps;
      auto report = RunWorkload(config);
      ASSERT_TRUE(report.ok()) << report.status();
      int64_t ok_total = 0;
      for (const TenantReport& t : report->tenants) ok_total += t.ok;
      EXPECT_GT(ok_total, 0) << "qps=" << qps << " chaos=" << chaos;
    }
  }
}

}  // namespace
}  // namespace xrpc::load
