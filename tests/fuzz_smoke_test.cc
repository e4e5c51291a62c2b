// Budgeted smoke lane for the fuzzing subsystem (label: fuzz; also driven
// by tools/check_fuzz.sh). Fixed seeds keep it deterministic and fast —
// the long soak campaigns run through the tools/fuzz_* CLIs instead.

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fuzz/chaos.h"
#include "fuzz/differential.h"
#include "fuzz/generator.h"
#include "fuzz/schedule.h"
#include "tests/test_util.h"

namespace xrpc::fuzz {
namespace {

TEST(FuzzGeneratorTest, StreamIsDeterministicPerSeed) {
  GeneratorConfig config;
  config.seed = 7;
  QueryGenerator a(config);
  QueryGenerator b(config);
  std::set<std::string> distinct;
  for (int i = 0; i < 25; ++i) {
    GeneratedQuery qa = a.Next();
    GeneratedQuery qb = b.Next();
    EXPECT_EQ(qa.Text(), qb.Text()) << "query " << i;
    EXPECT_EQ(qa.updating, qb.updating);
    distinct.insert(qa.Text());
  }
  // The stream must actually vary, not emit one query 25 times.
  EXPECT_GE(distinct.size(), 15u);

  config.seed = 8;
  QueryGenerator c(config);
  EXPECT_NE(a.Next().Text(), c.Next().Text());
}

TEST(FuzzDifferentialSmokeTest, SixtyQueriesAgreeAcrossEngines) {
  GeneratorConfig gcfg;
  gcfg.seed = 20260806;
  QueryGenerator gen(gcfg);
  DifferentialHarness harness;
  for (int i = 0; i < 60; ++i) {
    GeneratedQuery q = gen.Next();
    Divergence d;
    const bool diverged = harness.RunAndMinimize(&q, &d);
    EXPECT_FALSE(diverged) << "query " << i << " diverged:\n"
                           << d.query << "\n  relational : "
                           << d.comparison.relational_result
                           << "\n  interpreter: "
                           << d.comparison.interpreter_result;
  }
  const DiffStats& s = harness.stats();
  EXPECT_EQ(s.executed, 60);
  EXPECT_EQ(s.diverged, 0);
  // Differential coverage: every read-only query runs on the relational
  // engine rather than falling back to the interpreter on both sides.
  EXPECT_EQ(s.fell_back_read, 0);
  EXPECT_LT(s.fell_back_update, s.executed / 2);
}

TEST(FuzzScheduleSmokeTest, GridSliceHoldsAllInvariants) {
  ScheduleConfig config;
  config.seed = 20260806;
  ScheduleExplorer explorer(config);
  // One full crash x fault sweep at retry=1 plus a sampled tail.
  const int grid = explorer.GridSize();
  for (int i = 0; i < 120 && i < grid; ++i) {
    ScheduleResult r = explorer.RunSchedule(explorer.MakeSchedule(i));
    EXPECT_TRUE(r.ok) << r.schedule.Describe() << "\n  "
                      << (r.violations.empty() ? "" : r.violations[0]);
  }
  for (int i = grid; i < grid + 40; ++i) {
    ScheduleResult r = explorer.RunSchedule(explorer.MakeSchedule(i));
    EXPECT_TRUE(r.ok) << r.schedule.Describe() << "\n  "
                      << (r.violations.empty() ? "" : r.violations[0]);
  }
  EXPECT_EQ(explorer.stats().violations, 0);
  EXPECT_GT(explorer.stats().committed, 0);
  EXPECT_GT(explorer.stats().aborted, 0);
}

TEST(FuzzScheduleSmokeTest, DurableWalSchedulesHoldInvariants) {
  ScheduleConfig config;
  config.seed = 11;
  config.wal_dir = ::testing::TempDir();
  ScheduleExplorer explorer(config);
  int wal_runs = 0;
  for (int i = 0; i < explorer.GridSize() && wal_runs < 12; ++i) {
    Schedule s = explorer.MakeSchedule(i);
    if (!s.durable_wal) continue;
    ++wal_runs;
    ScheduleResult r = explorer.RunSchedule(s);
    EXPECT_TRUE(r.ok) << s.Describe() << "\n  "
                      << (r.violations.empty() ? "" : r.violations[0]);
  }
  EXPECT_EQ(wal_runs, 12);
}

TEST(FuzzScheduleSmokeTest, SabotageSelfTestTripsTheDetector) {
  ScheduleConfig config;
  config.seed = 1;
  config.sabotage_double_apply = true;
  ScheduleExplorer explorer(config);
  // Schedule 0 is the healthy-network commit; the injected double-apply
  // at y must trip at-most-once, all-or-nothing AND serial-equivalence.
  ScheduleResult r = explorer.RunSchedule(explorer.MakeSchedule(0));
  ASSERT_FALSE(r.ok);
  EXPECT_EQ(r.delta_y, 2);
  EXPECT_EQ(r.delta_z, 1);
  std::set<std::string> kinds;
  for (const std::string& v : r.violations) {
    kinds.insert(v.substr(0, v.find(':')));
  }
  EXPECT_TRUE(kinds.count("at-most-once"));
  EXPECT_TRUE(kinds.count("all-or-nothing"));
  EXPECT_TRUE(kinds.count("serial-equivalence"));
}

TEST(FuzzScheduleSmokeTest, ScheduleReproRoundTripsAndReplays) {
  ScheduleConfig config;
  config.seed = 5;
  ScheduleExplorer explorer(config);
  const int index = 42;
  ScheduleResult first = explorer.RunSchedule(explorer.MakeSchedule(index));

  auto parsed = ParseRepro(FormatRepro(first));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().seed, 5u);
  EXPECT_EQ(parsed.value().index, index);

  // MakeSchedule is a pure function of (seed, index): the re-derived
  // schedule and a re-run both reproduce byte-identically.
  Schedule again = explorer.MakeSchedule(parsed.value().index);
  EXPECT_EQ(again.Describe(), first.schedule.Describe());
  ScheduleResult second = explorer.RunSchedule(again);
  EXPECT_EQ(second.ok, first.ok);
  EXPECT_EQ(second.delta_y, first.delta_y);
  EXPECT_EQ(second.delta_z, first.delta_z);
  EXPECT_EQ(second.committed_known, first.committed_known);
  EXPECT_EQ(second.committed, first.committed);
}

TEST(ChaosSmokeTest, GridSliceHoldsAllInvariants) {
  ChaosConfig config;
  config.seed = 20260809;
  ChaosExplorer explorer(config);
  // Every third grid cell: stride 3 is coprime with every dimension's
  // radix, so the slice mixes writes on/off, kills, revives, bumps and the
  // breaker. The full grid runs through fuzz_schedules --chaos.
  bool saw_write[2] = {false, false};
  for (int i = 0; i < explorer.GridSize(); i += 3) {
    ChaosResult r = explorer.RunSchedule(explorer.MakeSchedule(i));
    EXPECT_TRUE(r.ok) << r.schedule.Describe() << "\n  "
                      << (r.violations.empty() ? "" : r.violations[0]);
    saw_write[r.schedule.writes] = true;
  }
  const ChaosStats& s = explorer.stats();
  EXPECT_EQ(s.violations, 0);
  EXPECT_TRUE(saw_write[0] && saw_write[1]);
  EXPECT_GT(s.writes_committed, 0);
  // The slice must exercise failover and the read-side epoch fence, not
  // only healthy runs.
  EXPECT_GT(s.failover_successes, 0);
  EXPECT_GT(s.read_reroutes, 0);
}

TEST(ChaosSmokeTest, SampledSliceHoldsAllInvariants) {
  ChaosConfig config;
  config.seed = 20260809;
  ChaosExplorer explorer(config);
  for (int i = explorer.GridSize(); i < explorer.GridSize() + 40; ++i) {
    ChaosResult r = explorer.RunSchedule(explorer.MakeSchedule(i));
    EXPECT_TRUE(r.ok) << r.schedule.Describe() << "\n  "
                      << (r.violations.empty() ? "" : r.violations[0]);
  }
  const ChaosStats& s = explorer.stats();
  EXPECT_EQ(s.violations, 0);
  EXPECT_GT(s.queries_ok, 0);
  // Membership must actually change mid-run, not only no-op.
  EXPECT_GT(s.fired[ChaosEvent::kJoin], 0);
  EXPECT_GT(s.fired[ChaosEvent::kRebalance], 0);
}

TEST(ChaosSmokeTest, SchedulesAreDeterministicAndVaried) {
  ChaosConfig config;
  config.seed = 4;
  ChaosExplorer a(config);
  ChaosExplorer b(config);
  std::set<std::string> grid, sampled;
  for (int i = 0; i < 40; ++i) {
    for (int index : {i, a.GridSize() + i}) {
      ChaosSchedule sa = a.MakeSchedule(index);
      EXPECT_EQ(sa.Describe(), b.MakeSchedule(index).Describe()) << index;
      (index < a.GridSize() ? grid : sampled).insert(sa.Describe());
    }
  }
  // (No-kill grid cells differ only in an unused kill instant.)
  EXPECT_GE(grid.size(), 30u);
  EXPECT_GE(sampled.size(), 30u);
  // The sampled stream depends on the seed.
  config.seed = 5;
  EXPECT_NE(ChaosExplorer(config).MakeSchedule(a.GridSize()).Describe(),
            a.MakeSchedule(a.GridSize()).Describe());
}

// Formats and parses the repro of schedule `offset` (counted from the
// first sampled index when `sampled`), replays it, and checks that the
// replay reproduces the first run.
void ExpectReproRoundTripsAndReplays(bool sampled, int offset) {
  ChaosConfig config;
  config.seed = 9;
  ChaosExplorer explorer(config);
  const int index = (sampled ? explorer.GridSize() : 0) + offset;
  ChaosResult first = explorer.RunSchedule(explorer.MakeSchedule(index));
  auto parsed = ParseRepro(FormatRepro(first));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().seed, 9u);
  EXPECT_EQ(parsed.value().index, index);

  ChaosSchedule again = explorer.MakeSchedule(parsed.value().index);
  EXPECT_EQ(again.Describe(), first.schedule.Describe());
  ChaosResult second = explorer.RunSchedule(again);
  EXPECT_EQ(second.ok, first.ok);
  EXPECT_EQ(second.outcomes, first.outcomes);
  EXPECT_EQ(second.events_fired, first.events_fired);
  EXPECT_EQ(second.elapsed_us, first.elapsed_us);
  EXPECT_GT(first.events_fired, 0) << first.schedule.Describe();
}

TEST(ChaosSmokeTest, ChaosReproRoundTripsAndReplays) {
  // A grid cell: rf 2, shard peer 0 killed at serial 2 and revived at 5,
  // writes on.
  ExpectReproRoundTripsAndReplays(/*sampled=*/false, 71);
}

TEST(ElasticChaosSmokeTest, ElasticReproRoundTripsAndReplays) {
  // A sampled membership-event schedule past the grid.
  ExpectReproRoundTripsAndReplays(/*sampled=*/true, 17);
}

// Each sabotage value names the detector it proves non-vacuous; that
// detector must fire on every one of schedules 0-19, whatever else the
// run does.
void ExpectSabotageTrips(Sabotage sabotage, const std::string& detector) {
  ChaosConfig config;
  config.seed = 1;
  config.sabotage = sabotage;
  ChaosExplorer explorer(config);
  for (int i = 0; i < 20; ++i) {
    ChaosResult r = explorer.RunSchedule(explorer.MakeSchedule(i));
    bool hit = false;
    for (const std::string& v : r.violations) {
      if (v.substr(0, v.find(':')) == detector) hit = true;
    }
    EXPECT_TRUE(hit) << detector << " silent on " << r.schedule.Describe();
  }
}

TEST(ChaosSmokeTest, SabotageSelfTestTripsByteIdentity) {
  // A corrupted shard-0 primary fragment diverges from the baseline.
  ExpectSabotageTrips(Sabotage::kCorruptPrimary, "byte-identity");
}

TEST(ChaosSmokeTest, SabotageSelfTestTripsReplicaConvergence) {
  // A write to shard 0's primary alone leaves its replicas behind.
  ExpectSabotageTrips(Sabotage::kPrimaryOnlyWrite, "replica-convergence");
}

TEST(ElasticChaosSmokeTest, SabotageSelfTestTripsNoLostShard) {
  // Every peer serving auctions shard 0 is disconnected at quiesce.
  ExpectSabotageTrips(Sabotage::kLostShard, "no-lost-shard");
}

TEST(ChaosSmokeTest, RebalanceOntoCurrentPrimaryKeepsCommittedWrite) {
  // rf 1, the write commits, then shard 0 is "rebalanced" onto the peer
  // that already serves it. Re-materializing the generated fragment there
  // would reset the only copy to data version 0 — the committed write
  // would be lost with no donor to repair from.
  ChaosExplorer explorer;
  ChaosSchedule s;
  s.replication_factor = 1;
  s.writes = true;
  // Past the write's 2PC (4 execute + 4 prepare + 4 commit posts after
  // queries 0 and 1), before the last broadcast.
  s.events.push_back(
      ChaosEvent{ChaosEvent::kRebalance, /*serial=*/19, /*peer=*/0,
                 /*shard=*/0});
  ChaosResult r = explorer.RunSchedule(s);
  EXPECT_TRUE(r.write_committed);
  EXPECT_EQ(r.events_fired, 1);
  EXPECT_TRUE(r.ok) << (r.violations.empty() ? "" : r.violations[0]);
}

}  // namespace
}  // namespace xrpc::fuzz
