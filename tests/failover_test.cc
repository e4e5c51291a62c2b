// Integration tests of shard replica failover and catalog epoch fencing
// (DESIGN.md §14). The central contracts: a read-only shard subcall whose
// primary is unreachable re-issues to a replica and returns a result
// byte-identical to the healthy run; an updating subcall NEVER fails over
// (at-most-once); when no replica survives, the query fails with one clean
// retriable-class fault within the deadline budget instead of hanging; and
// a mid-flight catalog version bump fences every stamped request, causing
// exactly one shard-map refetch + re-route.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/peer_network.h"
#include "server/rpc_client.h"
#include "soap/message.h"
#include "xdm/item.h"
#include "xml/serializer.h"
#include "xmark/shard_loader.h"
#include "xmark/xmark.h"

namespace xrpc::core {
namespace {

constexpr char kImportB[] =
    "import module namespace b=\"functions_b\" at \"b.xq\";\n";

// Key-less call: broadcasts one shard-scoped subcall per shard, so a dead
// primary anywhere in the ring is on the query's critical path.
const char kBroadcast[] = R"(execute at {"shard:auctions.xml"} {b:Q_B1()})";

// Updating module used to prove at-most-once: each shard peer resolves
// doc("auctions.xml") to its own fragment, so the insert lands locally.
constexpr char kUpdModule[] = R"(
  module namespace u = "upd_shard";
  declare updating function u:stamp()
  { insert nodes <stamp/> into doc("auctions.xml")/site };
)";

constexpr int kNumShards = 3;
constexpr int64_t kDeadlineUs = 5'000'000;

xmark::XmarkConfig SmallConfig() {
  xmark::XmarkConfig cfg;
  cfg.num_persons = 24;
  cfg.num_closed_auctions = 40;
  cfg.num_matches = 6;
  cfg.annotation_bytes = 16;
  return cfg;
}

struct Deployment {
  std::unique_ptr<PeerNetwork> net;
  Peer* p0 = nullptr;
  std::vector<Peer*> shards;  ///< shard k's primary peer at index k
};

// Replicated ring deployment: `replication_factor` copies of every
// fragment (copy r of shard k at peer (k+r) mod kNumShards), plus a p0
// originator of the given engine.
Deployment MakeDeployment(int replication_factor, EngineKind p0_engine) {
  Deployment d;
  d.net = std::make_unique<PeerNetwork>();
  xmark::ShardLoadOptions opts;
  opts.num_shards = kNumShards;
  opts.replication_factor = replication_factor;
  auto loaded = xmark::LoadShardedXmark(d.net.get(), SmallConfig(), opts);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  d.shards = loaded->peers;
  d.p0 = d.net->AddPeer("p0", p0_engine);
  EXPECT_TRUE(
      d.p0->AddDocument("persons.xml", xmark::GeneratePersons(SmallConfig()))
          .ok());
  EXPECT_TRUE(d.p0
                  ->RegisterModule(xmark::FunctionsBModuleSource(d.p0->uri()),
                                   "b.xq")
                  .ok());
  return d;
}

std::string RunBroadcast(Deployment& d) {
  ExecuteOptions opts;
  opts.deadline_us = kDeadlineUs;
  auto report = d.net->Execute("p0", std::string(kImportB) + kBroadcast, opts);
  if (!report.ok()) return "ERROR: " + report.status().ToString();
  return xdm::SequenceToString(report->result);
}

// The healthy-run result every surviving chaos run must reproduce byte for
// byte. Computed once per engine from a fresh un-replicated deployment —
// replica answers must be indistinguishable from primary answers.
std::string HealthyBaseline(EngineKind engine) {
  Deployment d = MakeDeployment(/*replication_factor=*/1, engine);
  std::string out = RunBroadcast(d);
  EXPECT_EQ(out.find("ERROR"), std::string::npos) << out;
  EXPECT_FALSE(out.empty());
  return out;
}

TEST(FailoverTest, DeadPrimaryFailsOverToReplicaByteIdentically) {
  for (EngineKind engine :
       {EngineKind::kRelational, EngineKind::kInterpreter}) {
    const std::string baseline = HealthyBaseline(engine);
    Deployment d = MakeDeployment(/*replication_factor=*/2, engine);
    // Shard 0's primary goes dark; its replica (ring: peer 1) answers.
    d.shards[0]->Disconnect();
    EXPECT_EQ(RunBroadcast(d), baseline) << EngineKindToString(engine);
    const net::RpcMetrics& m = d.net->metrics();
    EXPECT_GE(m.failover_attempts(), 1) << EngineKindToString(engine);
    EXPECT_GE(m.failover_successes(), 1) << EngineKindToString(engine);
    EXPECT_EQ(m.failover_exhausted(), 0) << EngineKindToString(engine);
    // The observability contract the soak harness greps for.
    EXPECT_NE(m.Report().find("failover:"), std::string::npos);
  }
}

TEST(FailoverTest, MidScatterKillFailsOverWithinDeadline) {
  // The acceptance scenario: a replica-covered shard peer dies WHILE the
  // scatter is in flight (after the first post went out), and the query
  // still returns the byte-identical result within the deadline budget.
  for (EngineKind engine :
       {EngineKind::kRelational, EngineKind::kInterpreter}) {
    const std::string baseline = HealthyBaseline(engine);
    Deployment d = MakeDeployment(/*replication_factor=*/2, engine);
    bool killed = false;
    d.net->network().set_post_hook([&](int64_t serial) {
      if (serial >= 2 && !killed) {
        killed = true;
        d.shards[2]->Disconnect();  // replica lives at peer (2+1) mod 3 = 0
      }
    });
    const int64_t start_us = d.net->network().clock().NowMicros();
    EXPECT_EQ(RunBroadcast(d), baseline) << EngineKindToString(engine);
    const int64_t elapsed_us = d.net->network().clock().NowMicros() - start_us;
    EXPECT_LE(elapsed_us, kDeadlineUs) << EngineKindToString(engine);
    EXPECT_TRUE(killed);
    EXPECT_GE(d.net->metrics().failover_successes(), 1)
        << EngineKindToString(engine);
  }
}

TEST(FailoverTest, AllReplicasDeadYieldsOneCleanFaultWithinBudget) {
  // Shard 0 lives at peers 0 (primary) and 1 (replica); killing both
  // leaves it uncovered. The query must fail — with a single retriable-
  // class fault, inside the deadline budget, never a hang or a partial
  // merge.
  Deployment d = MakeDeployment(/*replication_factor=*/2,
                                EngineKind::kRelational);
  d.shards[0]->Disconnect();
  d.shards[1]->Disconnect();
  ExecuteOptions opts;
  opts.deadline_us = kDeadlineUs;
  const int64_t start_us = d.net->network().clock().NowMicros();
  auto report = d.net->Execute("p0", std::string(kImportB) + kBroadcast, opts);
  const int64_t elapsed_us = d.net->network().clock().NowMicros() - start_us;
  ASSERT_FALSE(report.ok());
  EXPECT_TRUE(report.status().code() == StatusCode::kNetworkError ||
              report.status().code() == StatusCode::kDeadlineExceeded)
      << report.status();
  EXPECT_LE(elapsed_us, kDeadlineUs + 1000);
  // Shard 0 exhausted its candidate list. (Shard 1 — whose primary, peer 1,
  // is also down — legitimately fails over to its live replica at peer 2;
  // the query still fails on shard 0's fault.)
  EXPECT_GE(d.net->metrics().failover_exhausted(), 1);
}

TEST(FailoverTest, UpdatingCallNeverFailsOver) {
  // At-most-once: the updating envelope toward the dead primary may have
  // reached it before the partition; re-issuing it to the replica could
  // apply the insert twice. The subcall must fail — with ZERO failover
  // attempts — even though a live replica holds the fragment.
  Deployment d = MakeDeployment(/*replication_factor=*/2,
                                EngineKind::kInterpreter);
  for (Peer* p : d.shards) {
    ASSERT_TRUE(p->RegisterModule(kUpdModule, "u.xq").ok());
  }
  ASSERT_TRUE(d.p0->RegisterModule(kUpdModule, "u.xq").ok());
  d.shards[0]->Disconnect();
  ExecuteOptions opts;
  opts.deadline_us = kDeadlineUs;
  auto report = d.net->Execute(
      "p0",
      "import module namespace u=\"upd_shard\" at \"u.xq\";\n"
      R"(execute at {"shard:auctions.xml"} {u:stamp()})",
      opts);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNetworkError)
      << report.status();
  EXPECT_EQ(d.net->metrics().failover_attempts(), 0);
  EXPECT_EQ(d.net->metrics().failover_successes(), 0);
}

TEST(FailoverTest, StaleEpochRejectReroutesExactlyOnce) {
  // The catalog version bumps after the scatter was stamped but before the
  // first request is admitted: every stamped request hits the epoch fence
  // (retriable StaleCatalog), the client refetches the shard map and
  // re-dispatches ONCE with the new version, and the result is still
  // byte-identical.
  for (EngineKind engine :
       {EngineKind::kRelational, EngineKind::kInterpreter}) {
    const std::string baseline = HealthyBaseline(engine);
    Deployment d = MakeDeployment(/*replication_factor=*/2, engine);
    bool bumped = false;
    d.net->network().set_post_hook([&](int64_t) {
      if (bumped) return;
      bumped = true;
      // An identical re-registration: only the version changes, so the
      // single re-route must succeed.
      ShardedCollection c;
      int64_t version = 0;
      ASSERT_TRUE(d.net->catalog().Snapshot("persons.xml", &c, &version));
      ASSERT_TRUE(d.net->catalog().RegisterCollection(c).ok());
    });
    EXPECT_EQ(RunBroadcast(d), baseline) << EngineKindToString(engine);
    EXPECT_TRUE(bumped);
    const net::RpcMetrics& m = d.net->metrics();
    EXPECT_GE(m.stale_catalog_rejects(), 1) << EngineKindToString(engine);
    EXPECT_GE(m.stale_catalog_observed(), 1) << EngineKindToString(engine);
    EXPECT_EQ(m.stale_catalog_reroutes(), 1) << EngineKindToString(engine);
  }
}

TEST(FailoverTest, OpenBreakerSkipsStraightToReplica) {
  // With a per-peer circuit breaker, the second query toward a dead
  // primary never dials it: the breaker short-circuits locally and the
  // failover path goes straight to the replica.
  const std::string baseline = HealthyBaseline(EngineKind::kRelational);
  Deployment d = MakeDeployment(/*replication_factor=*/2,
                                EngineKind::kRelational);
  d.net->EnableCircuitBreaker(
      {/*failure_threshold=*/1, /*cooldown_us=*/3'600'000'000});
  d.shards[0]->Disconnect();
  EXPECT_EQ(RunBroadcast(d), baseline);  // dial fails, opens the circuit
  const int64_t short_circuits_before = d.net->metrics().breaker_short_circuits();
  EXPECT_EQ(RunBroadcast(d), baseline);  // no dial: local refusal + failover
  const net::RpcMetrics& m = d.net->metrics();
  EXPECT_GE(m.breaker_opens(), 1);
  EXPECT_GT(m.breaker_short_circuits(), short_circuits_before);
  EXPECT_GE(m.failover_successes(), 2);
}

// -- Replicated writes and anti-entropy resync (DESIGN.md §17) --------------

// Updating broadcast through repeatable-read 2PC: every copy of every
// shard enlists as a participant (all-copies write).
constexpr char kUpdBroadcast[] =
    "declare option xrpc:isolation \"repeatable\";\n"
    "declare option xrpc:timeout \"60\";\n"
    "import module namespace u=\"upd_shard\" at \"u.xq\";\n"
    R"(execute at {"shard:auctions.xml"} {u:stamp()})";

std::string FragName(int shard) {
  return "auctions.xml." + std::to_string(shard);
}

/// Serialized bytes of one fragment as a peer currently stores it — the
/// unit of the byte-identity checks below.
std::string FragmentBytes(Peer* peer, const std::string& doc) {
  auto d = peer->database().GetDocument(doc);
  if (!d.ok()) return "<missing: " + d.status().ToString() + ">";
  return xml::SerializeNode(*d.value());
}

void RegisterUpdModule(Deployment& d) {
  for (Peer* p : d.shards) {
    ASSERT_TRUE(p->RegisterModule(kUpdModule, "u.xq").ok());
  }
  ASSERT_TRUE(d.p0->RegisterModule(kUpdModule, "u.xq").ok());
}

TEST(FailoverTest, UnknownCollectionFenceWinsOverDataVersionFence) {
  // Regression: the admission fences must check "is this collection known
  // here at all" BEFORE any version comparison. A scope naming a foreign
  // collection with an arbitrarily high data version must come back as the
  // catalog-class "unknown" fault — never StaleReplica, which would send
  // the caller skipping replicas of a collection this peer has never held.
  Deployment d = MakeDeployment(/*replication_factor=*/2,
                                EngineKind::kRelational);
  server::RpcClient client(&d.net->network(), {});
  soap::XrpcRequest req;
  req.module_ns = "functions_b";
  req.method = "Q_B1";
  req.arity = 0;
  req.calls.emplace_back();
  req.shard = soap::XrpcRequest::ShardScope{"ghost.xml", 0,
                                            /*catalog_version=*/1,
                                            /*data_version=*/999};
  auto resp = client.ExecuteBulk(d.shards[0]->uri(), req);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kStaleCatalog) << resp.status();
  EXPECT_NE(resp.status().ToString().find("unknown"), std::string::npos)
      << resp.status();
  EXPECT_EQ(d.net->metrics().stale_replica_rejects(), 0);
}

TEST(FailoverTest, LaggingDataVersionFencesWithStaleReplica) {
  // The data fence proper: known collection, matching catalog version,
  // served shard — but the caller routed by a data version this copy has
  // not applied. The reject must be the retriable StaleReplica class (so
  // failover skips to a current copy) and land in its own metric.
  Deployment d = MakeDeployment(/*replication_factor=*/2,
                                EngineKind::kRelational);
  ShardedCollection c;
  int64_t version = 0;
  ASSERT_TRUE(d.net->catalog().Snapshot("auctions.xml", &c, &version));
  server::RpcClient client(&d.net->network(), {});
  soap::XrpcRequest req;
  req.module_ns = "functions_b";
  req.method = "Q_B1";
  req.arity = 0;
  req.calls.emplace_back();
  req.shard = soap::XrpcRequest::ShardScope{"auctions.xml", 0, version,
                                            /*data_version=*/7};
  auto resp = client.ExecuteBulk(c.shards[0].peer_uri, req);
  ASSERT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kStaleReplica) << resp.status();
  EXPECT_GE(d.net->metrics().stale_replica_rejects(), 1);
  EXPECT_NE(d.net->metrics().Report().find("stale-replica:"),
            std::string::npos);
}

size_t CountStamps(const std::string& bytes) {
  size_t n = 0;
  for (size_t at = bytes.find("<stamp/>"); at != std::string::npos;
       at = bytes.find("<stamp/>", at + 1)) {
    ++n;
  }
  return n;
}

TEST(FailoverTest, CatalogBumpMidUpdatingScatterNeverDoubleApplies) {
  // The catalog version bumps at the second POST of an all-copies updating
  // broadcast: shard 0's primary already admitted (and staged) its call,
  // every later request is fenced with StaleCatalog. An updating call must
  // not re-route — that would stage shard 0's insert twice — so the write
  // either aborts everywhere or commits exactly once on every copy.
  for (EngineKind engine :
       {EngineKind::kRelational, EngineKind::kInterpreter}) {
    SCOPED_TRACE(EngineKindToString(engine));
    Deployment d = MakeDeployment(/*replication_factor=*/2, engine);
    RegisterUpdModule(d);
    bool bumped = false;
    d.net->network().set_post_hook([&](int64_t serial) {
      if (bumped || serial < 2) return;
      bumped = true;
      ShardedCollection c;
      ASSERT_TRUE(d.net->catalog().Snapshot("auctions.xml", &c, nullptr));
      ASSERT_TRUE(d.net->catalog().RegisterCollection(std::move(c)).ok());
    });
    auto report = d.net->Execute("p0", kUpdBroadcast);
    d.net->network().set_post_hook(nullptr);
    EXPECT_TRUE(bumped);
    const bool committed = report.ok() && report->committed;
    for (int k = 0; k < kNumShards; ++k) {
      const std::string primary = FragmentBytes(d.shards[k], FragName(k));
      const std::string replica =
          FragmentBytes(d.shards[(k + 1) % kNumShards], FragName(k));
      EXPECT_EQ(CountStamps(primary), committed ? 1u : 0u) << "shard " << k;
      EXPECT_EQ(CountStamps(replica), committed ? 1u : 0u) << "shard " << k;
      EXPECT_TRUE(primary == replica) << "copies of shard " << k << " differ";
    }
    EXPECT_EQ(d.net->metrics().stale_catalog_reroutes(), 0);
  }
}

TEST(FailoverTest, CatalogBumpDuringShardDocAssemblyReadsASnapshot) {
  // doc("shard:C") at p0 fetches every fragment over the network. A
  // re-registration of C landing during that fetch replaces the catalog's
  // shard list; assembly must keep reading its own copy of the map. Reading
  // the catalog's map in place reads freed memory, which only ASan reports.
  for (EngineKind engine :
       {EngineKind::kRelational, EngineKind::kInterpreter}) {
    SCOPED_TRACE(EngineKindToString(engine));
    Deployment d = MakeDeployment(/*replication_factor=*/2, engine);
    bool bumped = false;
    d.net->network().set_post_hook([&](int64_t) {
      if (bumped) return;
      bumped = true;
      ShardedCollection c;
      ASSERT_TRUE(d.net->catalog().Snapshot("auctions.xml", &c, nullptr));
      ASSERT_TRUE(d.net->catalog().RegisterCollection(std::move(c)).ok());
    });
    auto report = d.net->Execute(
        "p0", R"(count(doc("shard:auctions.xml")//closed_auction))");
    d.net->network().set_post_hook(nullptr);
    EXPECT_TRUE(bumped);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(xdm::SequenceToString(report->result), "40");
  }
}

TEST(FailoverTest, ReplicaCrashDuringCommitResyncsByteIdentically) {
  // The acceptance scenario: a replica crashes during phase 2 (the commit
  // decision is durable, its apply was lost), restarts, resyncs — and then
  // holds fragments byte-identical to every surviving copy, while the
  // cluster-wide read is byte-identical to a healthy updated run.
  Deployment healthy = MakeDeployment(/*replication_factor=*/1,
                                      EngineKind::kInterpreter);
  RegisterUpdModule(healthy);
  auto ref = healthy.net->Execute("p0", kUpdBroadcast);
  ASSERT_TRUE(ref.ok()) << ref.status();
  ASSERT_TRUE(ref->committed) << ref->abort_reason;
  const std::string updated_baseline = RunBroadcast(healthy);
  ASSERT_EQ(updated_baseline.find("ERROR"), std::string::npos);

  Deployment d = MakeDeployment(/*replication_factor=*/2,
                                EngineKind::kInterpreter);
  RegisterUpdModule(d);
  d.shards[1]->InjectCrash(server::CrashPoint::kBeforeCommitApply);
  auto report = d.net->Execute("p0", kUpdBroadcast);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->committed) << report->abort_reason;
  EXPECT_TRUE(d.shards[1]->crashed());
  ASSERT_FALSE(report->in_doubt.empty());

  // Restart replays the WAL, resolves the in-doubt prepare by coordinator
  // inquiry, and runs the anti-entropy resync.
  ASSERT_TRUE(d.shards[1]->Restart().ok());
  ASSERT_TRUE(d.p0->service().RetryInDoubt(&d.net->network()).ok());

  // Peer 1 holds shard 0's replica and shard 1's primary (ring layout);
  // both must be byte-identical to the other copy of the same shard.
  EXPECT_EQ(FragmentBytes(d.shards[1], FragName(0)),
            FragmentBytes(d.shards[0], FragName(0)));
  EXPECT_EQ(FragmentBytes(d.shards[1], FragName(1)),
            FragmentBytes(d.shards[2], FragName(1)));
  EXPECT_NE(FragmentBytes(d.shards[1], FragName(0)).find("<stamp/>"),
            std::string::npos);
  // And the cluster serves the healthy updated result, byte for byte.
  EXPECT_EQ(RunBroadcast(d), updated_baseline);
}

TEST(FailoverTest, StaleReplicaSkipIsolatesLaggingCopy) {
  // A copy that verifiably missed a commit (crashed before applying it,
  // restarted without a transport, so it could not resolve its in-doubt
  // prepare) self-fences with StaleReplica; a read whose primary is also
  // dead must skip past it to the one current copy and still answer byte
  // for byte.
  Deployment d = MakeDeployment(/*replication_factor=*/3,
                                EngineKind::kInterpreter);
  RegisterUpdModule(d);
  d.shards[1]->InjectCrash(server::CrashPoint::kBeforeCommitApply);
  auto report = d.net->Execute("p0", kUpdBroadcast);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->committed) << report->abort_reason;
  const std::string updated_baseline = RunBroadcast(d);
  ASSERT_EQ(updated_baseline.find("ERROR"), std::string::npos);

  // WAL-only restart: the prepare is parked in doubt, the commit stays
  // unapplied, so peer 1 serves — but lags every fragment it holds.
  ASSERT_TRUE(d.shards[1]->service().Restart(nullptr).ok());
  EXPECT_LT(d.shards[1]->database().AppliedDataVersion(FragName(0)),
            d.net->catalog().FragmentDataVersion("auctions.xml", 0));

  d.shards[0]->Disconnect();  // shard 0: primary dead, replica 1 lagging
  EXPECT_EQ(RunBroadcast(d), updated_baseline);
  const net::RpcMetrics& m = d.net->metrics();
  EXPECT_GE(m.stale_replica_rejects(), 1);
  EXPECT_GE(m.stale_replica_skips(), 1);
  EXPECT_GE(m.failover_successes(), 1);
  EXPECT_NE(m.Report().find("stale-replica:"), std::string::npos);

  // Repair heals the lag (in-doubt inquiry at the live coordinator), after
  // which the copy is byte-identical and serves again.
  ASSERT_TRUE(d.shards[1]->Repair().ok());
  EXPECT_EQ(d.shards[1]->database().AppliedDataVersion(FragName(0)),
            d.net->catalog().FragmentDataVersion("auctions.xml", 0));
  EXPECT_EQ(FragmentBytes(d.shards[1], FragName(0)),
            FragmentBytes(d.shards[2], FragName(0)));
}

TEST(FailoverTest, JoinedReplicaCatchesUpByDonorWalReplay) {
  // Anti-entropy delta path: a replica that joins AFTER a commit holds the
  // pre-update fragment at applied version 0 while the catalog says 1. Its
  // resync must replay the missed PUL from a donor's WAL (no full
  // transfer) and converge byte-identically. rf=1 keeps each donor's PUL
  // scoped to a single fragment — with more copies per peer the PUL also
  // writes fragments the joiner does not hold, which (by design) fails the
  // delta replay and falls back to full transfer.
  Deployment d = MakeDeployment(/*replication_factor=*/1,
                                EngineKind::kInterpreter);
  RegisterUpdModule(d);
  const std::string pre_update = FragmentBytes(d.shards[0], FragName(0));
  auto report = d.net->Execute("p0", kUpdBroadcast);
  ASSERT_TRUE(report.ok()) << report.status();
  ASSERT_TRUE(report->committed) << report->abort_reason;

  Peer* joiner = d.net->AddPeer("joiner", EngineKind::kInterpreter);
  ASSERT_TRUE(joiner->AddDocument(FragName(0), pre_update).ok());
  ShardedCollection c;
  ASSERT_TRUE(d.net->catalog().Snapshot("auctions.xml", &c, nullptr));
  c.shards[0].replicas.push_back(joiner->uri());
  ASSERT_TRUE(d.net->catalog().RegisterCollection(std::move(c)).ok());

  ASSERT_TRUE(joiner->Repair().ok());
  EXPECT_EQ(joiner->database().AppliedDataVersion(FragName(0)),
            d.net->catalog().FragmentDataVersion("auctions.xml", 0));
  EXPECT_EQ(FragmentBytes(joiner, FragName(0)),
            FragmentBytes(d.shards[0], FragName(0)));
  const net::RpcMetrics& m = d.net->metrics();
  EXPECT_GE(m.repair_resyncs(), 1);
  EXPECT_GE(m.repair_puls_replayed(), 1);
  EXPECT_EQ(m.repair_full_transfers(), 0);
  EXPECT_NE(m.Report().find("repair:"), std::string::npos);
}

TEST(FailoverTest, RevivedPrimaryServesAgain) {
  // Disconnect models a partition, not a crash: after Reconnect the
  // primary answers again with its untouched state, no failover needed.
  const std::string baseline = HealthyBaseline(EngineKind::kRelational);
  Deployment d = MakeDeployment(/*replication_factor=*/2,
                                EngineKind::kRelational);
  d.shards[0]->Disconnect();
  EXPECT_EQ(RunBroadcast(d), baseline);
  const int64_t attempts_after_failover = d.net->metrics().failover_attempts();
  d.shards[0]->Reconnect();
  EXPECT_EQ(RunBroadcast(d), baseline);
  EXPECT_EQ(d.net->metrics().failover_attempts(), attempts_after_failover);
}

}  // namespace
}  // namespace xrpc::core
