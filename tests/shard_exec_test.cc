// Integration tests of the sharded-collection subsystem (DESIGN.md §13):
// catalog-driven decomposition of `execute at {"shard:<collection>"}` into
// per-shard Bulk RPC, partition-key pruning, the order-preserving
// scatter-gather merge, and shard-aware document resolution. The central
// contract: a key-routed semijoin is byte-identical whether the collection
// lives on 1, 4, or 16 shards — and identical to the unsharded two-peer
// baseline of strategies_test.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "core/peer_network.h"
#include "xdm/item.h"
#include "xmark/shard_loader.h"
#include "xmark/xmark.h"

namespace xrpc::core {
namespace {

constexpr char kImportB[] =
    "import module namespace b=\"functions_b\" at \"b.xq\";\n";

// Q7 semijoin over the logical sharded destination: every call carries the
// partition key (buyer id) as its first argument, so the decomposition can
// prune each iteration to exactly one shard.
const char kShardSemiJoin[] = R"(
for $p in doc("persons.xml")//person
let $ca := execute at {"shard:auctions.xml"} {b:Q_B3(string($p/@id))}
return if (empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>)";

// No argument binds the partition key: must broadcast to every shard and
// merge the answers in shard order.
const char kShardBroadcast[] =
    R"(execute at {"shard:auctions.xml"} {b:Q_B1()})";

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
};

// `num_shards` interpreter shard peers plus a p0 peer (of the given
// engine) holding the unsharded persons document and the functions_b
// module for import resolution.
Deployment MakeDeployment(int num_shards, EngineKind p0_engine) {
  Deployment d;
  d.net = std::make_unique<PeerNetwork>();
  xmark::ShardLoadOptions opts;
  opts.num_shards = num_shards;
  auto loaded = xmark::LoadShardedXmark(d.net.get(), SmallConfig(), opts);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
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

std::string RunQuery(Deployment& d, const std::string& query) {
  auto report = d.net->Execute("p0", query);
  if (!report.ok()) return "ERROR: " + report.status().ToString();
  return xdm::SequenceToString(report->result);
}

// The unsharded two-peer semijoin of strategies_test, as the ground truth
// the sharded runs must reproduce byte for byte.
std::string UnshardedBaseline() {
  PeerNetwork net;
  Peer* a = net.AddPeer("A", EngineKind::kRelational);
  Peer* b = net.AddPeer("B", EngineKind::kInterpreter);
  EXPECT_TRUE(
      a->AddDocument("persons.xml", xmark::GeneratePersons(SmallConfig()))
          .ok());
  EXPECT_TRUE(
      b->AddDocument("auctions.xml", xmark::GenerateAuctions(SmallConfig()))
          .ok());
  std::string module = xmark::FunctionsBModuleSource("xrpc://A");
  EXPECT_TRUE(b->RegisterModule(module, "b.xq").ok());
  EXPECT_TRUE(a->RegisterModule(module, "b.xq").ok());
  const std::string query = std::string(kImportB) +
                            R"(
for $p in doc("persons.xml")//person
let $ca := execute at {"xrpc://B"} {b:Q_B3(string($p/@id))}
return if (empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>)";
  auto report = net.Execute("A", query);
  EXPECT_TRUE(report.ok()) << report.status();
  if (!report.ok()) return "ERROR";
  return xdm::SequenceToString(report->result);
}

TEST(ShardExecTest, SemiJoinIsByteIdenticalAcross1_4_16Shards) {
  const std::string baseline = UnshardedBaseline();
  ASSERT_FALSE(baseline.empty());
  const std::string query = std::string(kImportB) + kShardSemiJoin;
  for (int shards : {1, 4, 16}) {
    Deployment d = MakeDeployment(shards, EngineKind::kRelational);
    EXPECT_EQ(RunQuery(d, query), baseline) << shards << " shards";
  }
}

TEST(ShardExecTest, InterpreterP0AgreesWithRelationalP0) {
  const std::string query = std::string(kImportB) + kShardSemiJoin;
  Deployment relational = MakeDeployment(4, EngineKind::kRelational);
  Deployment interp = MakeDeployment(4, EngineKind::kInterpreter);
  std::string expected = RunQuery(relational, query);
  ASSERT_EQ(expected.find("ERROR"), std::string::npos) << expected;
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(RunQuery(interp, query), expected);

  // Broadcast merge order must also agree between the loop-lifted
  // scatter-gather operator and the interpreter's shard-order concat.
  const std::string broadcast = std::string(kImportB) + kShardBroadcast;
  EXPECT_EQ(RunQuery(interp, broadcast), RunQuery(relational, broadcast));
}

TEST(ShardExecTest, PartitionKeyPruningSendsOneRequest) {
  // The call's first argument is a literal partition key: the catalog
  // routes it to exactly one of the 4 shards — 1 request, not 4.
  const std::string pruned = std::string(kImportB) +
                             R"(execute at {"shard:auctions.xml"}
                                {b:Q_B3("person0")})";
  for (EngineKind engine :
       {EngineKind::kRelational, EngineKind::kInterpreter}) {
    Deployment d = MakeDeployment(4, engine);
    auto report = d.net->Execute("p0", pruned);
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(report->requests_sent, 1) << EngineKindToString(engine);
  }
}

TEST(ShardExecTest, BroadcastFansOutToEveryShard) {
  const std::string query = std::string(kImportB) + kShardBroadcast;
  Deployment d = MakeDeployment(4, EngineKind::kRelational);
  auto report = d.net->Execute("p0", query);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->requests_sent, 4);
  EXPECT_EQ(report->result.size(),
            static_cast<size_t>(SmallConfig().num_closed_auctions));
}

TEST(ShardExecTest, LiftedSemiJoinGroupsCallsPerShardPeer) {
  // 24 persons prune to at most 4 distinct shards; Bulk RPC groups the
  // calls per destination peer, so at most one request per shard goes out
  // (versus 24 under one-at-a-time).
  const std::string query = std::string(kImportB) + kShardSemiJoin;
  Deployment d = MakeDeployment(4, EngineKind::kRelational);
  auto report = d.net->Execute("p0", query);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->used_relational);
  EXPECT_FALSE(report->fell_back);
  EXPECT_LE(report->requests_sent, 4);
}

TEST(ShardExecTest, ShardDocAssemblySpansEveryFragment) {
  // doc("shard:...") at p0 splices the fragments (in shard order) into one
  // virtual document; counts must match the whole collection.
  Deployment d = MakeDeployment(4, EngineKind::kRelational);
  EXPECT_EQ(RunQuery(d, R"(count(doc("shard:auctions.xml")//closed_auction))"),
            std::to_string(SmallConfig().num_closed_auctions));
  EXPECT_EQ(RunQuery(d, R"(count(doc("shard:persons.xml")//person))"),
            std::to_string(SmallConfig().num_persons));

  // The broadcast union and the assembled document agree element-for-
  // element (same shard order on both paths).
  EXPECT_EQ(RunQuery(d, std::string(kImportB) + kShardBroadcast),
            RunQuery(d, R"(doc("shard:auctions.xml")//closed_auction)"));
}

TEST(ShardExecTest, ShardPeerResolvesLogicalNameToLocalFragment) {
  // Module bodies at shard peers keep saying doc("auctions.xml"); each
  // peer resolves the logical name to its own fragment, so the per-shard
  // counts partition the collection.
  Deployment d = MakeDeployment(4, EngineKind::kRelational);
  int64_t total = 0;
  for (int k = 0; k < 4; ++k) {
    auto report = d.net->Execute("shard" + std::to_string(k),
                                 R"(count(doc("auctions.xml")//closed_auction))");
    ASSERT_TRUE(report.ok()) << report.status();
    ASSERT_EQ(report->result.size(), 1u);
    total += std::stoll(xdm::SequenceToString(report->result));
  }
  EXPECT_EQ(total, SmallConfig().num_closed_auctions);
}

TEST(ShardExecTest, MapChangeMidScatterReroutesOnceNeverPartialMerge) {
  // The shard map genuinely changes between decomposition and merge:
  // shard 0's primary moves to a fresh spare peer while the broadcast
  // scatter is in flight (the hook fires at the second POST, so shard 0's
  // answer already arrived under the old version). The epoch fence rejects
  // every still-stamped request, the client refetches the map and
  // re-dispatches exactly once, and the merged result is byte-identical
  // to the healthy run — stale partials are never combined with
  // new-version answers. Both p0 engines route through the same router.
  const std::string query = std::string(kImportB) + kShardBroadcast;
  for (EngineKind engine :
       {EngineKind::kRelational, EngineKind::kInterpreter}) {
    SCOPED_TRACE(EngineKindToString(engine));
    std::string baseline;
    {
      Deployment d = MakeDeployment(4, engine);
      baseline = RunQuery(d, query);
      ASSERT_EQ(baseline.find("ERROR"), std::string::npos) << baseline;
      ASSERT_FALSE(baseline.empty());
    }

    Deployment d = MakeDeployment(4, engine);
    // The spare holds shard 0's fragment under the same doc name and the
    // functions_b module, so it can serve the shard-scoped subcall
    // byte-identically to the old primary.
    Peer* spare = d.net->AddPeer("spare0", EngineKind::kInterpreter);
    const std::string fragment0 =
        xmark::GenerateAuctionsFragments(SmallConfig(), 4)[0];
    ASSERT_TRUE(spare->AddDocument("auctions.xml.0", fragment0).ok());
    ASSERT_TRUE(
        spare->RegisterModule(xmark::FunctionsBModuleSource(spare->uri()))
            .ok());

    bool moved = false;
    d.net->network().set_post_hook([&](int64_t serial) {
      if (moved || serial < 2) return;
      moved = true;
      ShardedCollection c;
      int64_t version = 0;
      ASSERT_TRUE(d.net->catalog().Snapshot("auctions.xml", &c, &version));
      c.shards[0].peer_uri = spare->uri();
      ASSERT_TRUE(d.net->catalog().RegisterCollection(std::move(c)).ok());
    });
    EXPECT_EQ(RunQuery(d, query), baseline);
    EXPECT_TRUE(moved);
    d.net->network().set_post_hook(nullptr);

    const net::RpcMetrics& m = d.net->metrics();
    EXPECT_GE(m.stale_catalog_rejects(), 1);
    EXPECT_EQ(m.stale_catalog_reroutes(), 1);

    // A fresh broadcast under the settled new map routes shard 0's subcall
    // to the spare — the map change was real, not a version-only bump.
    const int64_t spare_before = m.PeerStats(spare->uri()).requests;
    EXPECT_EQ(RunQuery(d, query), baseline);
    EXPECT_GT(m.PeerStats(spare->uri()).requests, spare_before);
  }
}

TEST(ShardExecTest, UnknownCollectionIsAnError) {
  Deployment d = MakeDeployment(2, EngineKind::kRelational);
  const std::string query =
      std::string(kImportB) + R"(execute at {"shard:nope.xml"} {b:Q_B1()})";
  std::string out = RunQuery(d, query);
  EXPECT_NE(out.find("ERROR"), std::string::npos) << out;
  EXPECT_NE(out.find("nope.xml"), std::string::npos) << out;
}

}  // namespace
}  // namespace xrpc::core
