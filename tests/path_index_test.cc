// Tests of a peer's path index (DESIGN.md §6), on interpreter and on
// relational shards: a point read builds the index entry for its fragment
// once and probes it on every later request, and every way the data behind
// an entry can change (an in-place update, a 2PC commit that installs a new
// tree, a replica healed by WAL-delta replay or by full transfer, a
// re-registered module) makes the next read answer from the new data.
// Entries must not pin replaced trees, and concurrent readers share them.

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/peer_network.h"
#include "soap/message.h"
#include "xdm/item.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xmark/shard_loader.h"
#include "xmark/xmark.h"
#include "xquery/parser.h"
#include "xquery/path_index.h"

namespace xrpc::core {
namespace {

using net::Metric;

constexpr char kImports[] =
    "import module namespace b=\"functions_b\" at \"b.xq\";\n"
    "import module namespace u=\"rebuy\" at \"u.xq\";\n"
    "import module namespace t=\"frag_reads\" at \"t.xq\";\n";

// u:rebuy hands every closed auction bought by $from to $to; u:mark
// writes every fragment it is broadcast to.
constexpr char kRebuyModule[] = R"(
  module namespace u = "rebuy";
  declare updating function u:rebuy($from as xs:string, $to as xs:string)
  { for $a in doc("auctions.xml")//closed_auction[./buyer/@person=$from]
    return replace value of node $a/buyer/@person with $to };
  declare updating function u:mark()
  { insert nodes <mark/> into doc("auctions.xml")/site };
)";

// Q_B3 over a document named by the caller: reads one stored fragment.
constexpr char kFragReadsModule[] = R"(
  module namespace t = "frag_reads";
  declare function t:buyers($doc as xs:string, $pid as xs:string) as node()*
  { doc($doc)//closed_auction[./buyer/@person=$pid] };
)";

xmark::XmarkConfig Config() {
  xmark::XmarkConfig cfg;
  cfg.num_persons = 30;
  cfg.num_closed_auctions = 120;
  cfg.num_matches = cfg.num_closed_auctions;  // every buyer is a person
  cfg.annotation_bytes = 8;
  return cfg;
}

Status RegisterModules(Peer* peer) {
  XRPC_RETURN_IF_ERROR(peer->RegisterModule(
      xmark::FunctionsBModuleSource(peer->uri()), "b.xq"));
  XRPC_RETURN_IF_ERROR(peer->RegisterModule(kRebuyModule, "u.xq"));
  return peer->RegisterModule(kFragReadsModule, "t.xq");
}

std::string Run(PeerNetwork& net, const std::string& body,
                bool repeatable = false) {
  std::string text = kImports + body;
  if (repeatable) {
    text = "declare option xrpc:isolation \"repeatable\";\n" + text;
  }
  auto report = net.Execute("p0", text);
  if (!report.ok()) return "ERROR: " + report.status().ToString();
  if (!report->committed) return "ABORTED: " + report->abort_reason;
  return xdm::SequenceToString(report->result);
}

// One peer `s` running `kind` and holding the whole auctions document, and
// a p0 that sends it one-call requests.
struct SinglePeer {
  PeerNetwork net;
  Peer* s = nullptr;
  Peer* p0 = nullptr;

  explicit SinglePeer(EngineKind kind) {
    s = net.AddPeer("s", kind);
    p0 = net.AddPeer("p0", kind);
    EXPECT_TRUE(
        s->AddDocument("auctions.xml", xmark::GenerateAuctions(Config()))
            .ok());
    EXPECT_TRUE(RegisterModules(s).ok());
    EXPECT_TRUE(RegisterModules(p0).ok());
  }

  std::string Read(const std::string& pid) {
    return Run(net, "execute at {\"xrpc://s\"} {b:Q_B3(\"" + pid + "\")}");
  }
  std::string Rebuy(const std::string& from, const std::string& to,
                    bool repeatable) {
    return Run(net,
               "execute at {\"xrpc://s\"} {u:rebuy(\"" + from + "\", \"" +
                   to + "\")}",
               repeatable);
  }
  int64_t Builds() { return net.metrics().Get(Metric::kIndexBuilds, s->uri()); }
  int64_t Hits() { return net.metrics().Get(Metric::kIndexHits, s->uri()); }
};

// Defines test `name` twice: on interpreter peers, and with the suffix
// OnRelationalShards on relational ones. The body sees `kind`.
#define PATH_INDEX_TEST(name)                                   \
  void name(EngineKind kind);                                   \
  TEST(PathIndexTest, name) { name(EngineKind::kInterpreter); } \
  TEST(PathIndexTest, name##OnRelationalShards) {               \
    name(EngineKind::kRelational);                              \
  }                                                             \
  void name(EngineKind kind)

PATH_INDEX_TEST(PointReadsBuildOnceThenProbe) {
  SinglePeer d(kind);
  const std::string first = d.Read("person1");
  ASSERT_NE(first.find("<closed_auction"), std::string::npos) << first;
  for (int i = 1; i < 100; ++i) ASSERT_EQ(d.Read("person1"), first);
  // One entry for Q_B3's path over the document; the predicate's
  // `./buyer/@person`, evaluated per candidate, creates none.
  EXPECT_EQ(d.Builds(), 1);
  EXPECT_EQ(d.Hits(), 99);
  EXPECT_NE(d.net.metrics().Report().find("path-index: builds=1 hits=99"),
            std::string::npos)
      << d.net.metrics().Report();
}

PATH_INDEX_TEST(InPlaceUpdateRebuildsTheEntry) {
  SinglePeer d(kind);
  const std::string before = d.Read("person1");
  ASSERT_NE(before.find("<closed_auction"), std::string::npos);
  ASSERT_EQ(d.Read("person29x"), "");
  // isolation "none": the PUL is applied to the live tree in place.
  ASSERT_EQ(d.Rebuy("person1", "person29x", /*repeatable=*/false), "");
  const int64_t builds = d.Builds();
  EXPECT_EQ(d.Read("person1"), "");
  EXPECT_EQ(d.Builds(), builds + 1);
  // The same auctions, now bought by person29x.
  std::string expected = before;
  const std::string from = "<buyer person=\"person1\"";
  const std::string to = "<buyer person=\"person29x\"";
  for (size_t at = expected.find(from); at != std::string::npos;
       at = expected.find(from, at + to.size())) {
    expected.replace(at, from.size(), to);
  }
  EXPECT_EQ(d.Read("person29x"), expected);
  EXPECT_EQ(d.Builds(), builds + 1);
}

PATH_INDEX_TEST(RepeatableCommitServesTheNewTreeAndFreesTheOld) {
  SinglePeer d(kind);
  std::weak_ptr<xml::Node> old_root =
      d.s->database().GetDocument("auctions.xml").value();
  const std::string before = d.Read("person2");
  ASSERT_NE(before.find("<closed_auction"), std::string::npos);
  // Repeatable read: the PUL runs against a private clone and the 2PC
  // commit installs a new tree in place of the old one.
  ASSERT_EQ(d.Rebuy("person2", "person30x", /*repeatable=*/true), "");
  EXPECT_EQ(d.Read("person2"), "");
  EXPECT_NE(d.Read("person30x").find("person=\"person30x\""),
            std::string::npos);
  // Nothing holds the replaced tree: the index keeps no Items.
  EXPECT_TRUE(old_root.expired());
}

PATH_INDEX_TEST(ReregisteredModuleAnswersFromItsNewBody) {
  SinglePeer d(kind);
  // Sellers are unique persons outside the buyers' id range.
  const std::string seller = "person100035";
  ASSERT_NE(d.Read("person3").find("<closed_auction"), std::string::npos);
  ASSERT_EQ(d.Read(seller), "");
  std::string source = xmark::FunctionsBModuleSource(d.s->uri());
  const std::string from = "./buyer/@person=$pid";
  ASSERT_NE(source.find(from), std::string::npos);
  source.replace(source.find(from), from.size(), "./seller/@person=$pid");
  ASSERT_TRUE(d.s->RegisterModule(source, "b.xq").ok());
  EXPECT_EQ(d.Read("person3"), "");
  const std::string by_seller = d.Read(seller);
  EXPECT_EQ(by_seller.find("<closed_auction><seller person=\"" + seller),
            0u)
      << by_seller;
  EXPECT_EQ(by_seller.find("<closed_auction", 1), std::string::npos);
}

PATH_INDEX_TEST(ConcurrentReadersShareOneService) {
  SinglePeer d(kind);
  constexpr int kThreads = 4;
  constexpr int kReadsPerThread = 50;
  auto request_for = [&](int person) {
    soap::XrpcRequest request;
    request.module_ns = "functions_b";
    request.method = "Q_B3";
    request.location = "b.xq";
    request.arity = 1;
    request.calls.push_back({xdm::SingletonString(
        "person" + std::to_string(person))});
    return soap::SerializeRequest(request);
  };
  std::vector<std::string> expected;
  for (int t = 0; t < kThreads; ++t) {
    auto reply = d.s->service().Handle("/xrpc", request_for(t));
    ASSERT_TRUE(reply.ok()) << reply.status();
    expected.push_back(reply.value());
  }
  const int64_t builds = d.Builds();
  const int64_t hits = d.Hits();
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string request = request_for(t);
      for (int i = 0; i < kReadsPerThread; ++i) {
        auto reply = d.s->service().Handle("/xrpc", request);
        if (!reply.ok() || reply.value() != expected[t]) ++mismatches[t];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
  EXPECT_EQ(d.Builds(), builds);
  EXPECT_EQ(d.Hits() - hits, kThreads * kReadsPerThread);
}

// -- Replicas healed by anti-entropy repair (DESIGN.md §17) -----------------

std::string FragName(int shard) {
  return "auctions.xml." + std::to_string(shard);
}

std::string FragmentBytes(Peer* peer, const std::string& doc) {
  auto d = peer->database().GetDocument(doc);
  if (!d.ok()) return "<missing: " + d.status().ToString() + ">";
  return xml::SerializeNode(*d.value());
}

// A sharded deployment of `kind` peers at replication factor `rf`, whose
// update hands every auction of shard 0's first buyer to a new person and
// marks every fragment, after a peer "joiner" took a pre-update copy of
// shard 0. The joiner's
// index is warm when Repair() heals it; its next read must match the
// primary's.
void HealJoinerAfterWarmRead(EngineKind kind, int rf,
                             bool expect_full_transfer) {
  PeerNetwork net;
  xmark::ShardLoadOptions opts;
  opts.num_shards = 3;
  opts.replication_factor = rf;
  opts.engine = kind;
  auto loaded = xmark::LoadShardedXmark(&net, Config(), opts);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  std::vector<Peer*> shards = loaded->peers;
  Peer* p0 = net.AddPeer("p0", kind);
  ASSERT_TRUE(RegisterModules(p0).ok());
  for (Peer* shard : shards) ASSERT_TRUE(RegisterModules(shard).ok());

  const std::string pre_update = FragmentBytes(shards[0], FragName(0));
  Peer* joiner = net.AddPeer("joiner", kind);
  ASSERT_TRUE(RegisterModules(joiner).ok());
  ASSERT_TRUE(joiner->AddDocument(FragName(0), pre_update).ok());
  std::weak_ptr<xml::Node> joiner_root =
      joiner->database().GetDocument(FragName(0)).value();

  auto read_at = [&](Peer* peer, const std::string& pid) {
    return Run(net, "execute at {\"" + peer->uri() + "\"} {t:buyers(\"" +
                        FragName(0) + "\", \"" + pid + "\")}");
  };
  const std::string attr = "<buyer person=\"";
  const size_t at = pre_update.find(attr) + attr.size();
  const std::string buyer =
      pre_update.substr(at, pre_update.find('"', at) - at);
  const std::string warm = read_at(joiner, buyer);
  ASSERT_NE(warm.find("<closed_auction"), std::string::npos) << warm;

  ASSERT_EQ(Run(net,
                "(execute at {\"shard:auctions.xml\"} {u:rebuy(\"" + buyer +
                    "\", \"healed\")},\n"
                    " execute at {\"shard:auctions.xml\"} {u:mark()})",
                /*repeatable=*/true),
            "");
  ShardedCollection c;
  ASSERT_TRUE(net.catalog().Snapshot("auctions.xml", &c, nullptr));
  c.shards[0].replicas.push_back(joiner->uri());
  ASSERT_TRUE(net.catalog().RegisterCollection(std::move(c)).ok());
  ASSERT_TRUE(joiner->Repair().ok());
  ASSERT_EQ(FragmentBytes(joiner, FragName(0)),
            FragmentBytes(shards[0], FragName(0)));
  const net::RpcMetrics& m = net.metrics();
  EXPECT_EQ(m.Get(Metric::kRepairFullTransfers) > 0, expect_full_transfer);
  EXPECT_EQ(m.Get(Metric::kRepairPulsReplayed) > 0, !expect_full_transfer);

  EXPECT_EQ(read_at(joiner, buyer), "");
  const std::string healed = read_at(joiner, "healed");
  EXPECT_EQ(healed, read_at(shards[0], "healed"));
  EXPECT_NE(healed.find("<closed_auction"), std::string::npos) << healed;
  // A full transfer replaces the tree; the index does not keep the old one.
  EXPECT_EQ(joiner_root.expired(), expect_full_transfer);
}

PATH_INDEX_TEST(ReplicaHealedByWalDeltaReplayServesTheNewData) {
  // rf 1: the donor's PUL writes only shard 0, so it replays in place.
  HealJoinerAfterWarmRead(kind, /*rf=*/1, /*expect_full_transfer=*/false);
}

PATH_INDEX_TEST(ReplicaHealedByFullTransferServesTheNewData) {
  // rf 2: every donor holds two fragments and its PUL marks both, one of
  // which the joiner lacks, so the delta cannot replay and the whole
  // fragment is transferred.
  HealJoinerAfterWarmRead(kind, /*rf=*/2, /*expect_full_transfer=*/true);
}

// -- One entry per path on a relational shard --------------------------------

std::string BulkRequest(const std::string& method, int calls) {
  soap::XrpcRequest request;
  request.module_ns = "functions_b";
  request.method = method;
  request.location = "b.xq";
  request.arity = method == "Q_B3" ? 1 : 0;
  for (int i = 0; i < calls; ++i) {
    std::vector<xdm::Sequence> params;
    if (request.arity == 1) {
      params.push_back(xdm::SingletonString("person" + std::to_string(i)));
    }
    request.calls.push_back(std::move(params));
  }
  return soap::SerializeRequest(request);
}

TEST(PathIndexTest, RelationalShardAnswersQB1AndBulkQB3FromOneEntryEach) {
  SinglePeer relational(EngineKind::kRelational);
  SinglePeer interpreter(EngineKind::kInterpreter);
  for (const std::string& body :
       {BulkRequest("Q_B1", 1), BulkRequest("Q_B3", 62)}) {
    auto want = interpreter.s->service().Handle("/xrpc", body);
    ASSERT_TRUE(want.ok()) << want.status();
    ASSERT_NE(want->find("<closed_auction"), std::string::npos);
    for (int round = 0; round < 2; ++round) {
      auto got = relational.s->service().Handle("/xrpc", body);
      ASSERT_TRUE(got.ok()) << got.status();
      EXPECT_EQ(got.value(), want.value());
    }
  }
  // Each path's first request builds its entry; the second request hits
  // it. All 62 calls of a Q_B3 request are one loop: one lookup, then one
  // hash probe per call.
  EXPECT_EQ(relational.Builds(), 2);
  EXPECT_EQ(relational.Hits(), 2);
}

// -- Property: an entry holds what the axis walk yields ----------------------

class PathIndexProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(PathIndexProperty, DescendantCountsMatchDom) {
  auto doc = xml::ParseXml(GetParam());
  ASSERT_TRUE(doc.ok()) << doc.status();
  std::function<int(const xml::Node&)> count_elems =
      [&](const xml::Node& n) -> int {
    int c = 0;
    for (const auto& child : n.children()) {
      if (child->kind() == xml::NodeKind::kElement) c++;
      c += count_elems(*child);
    }
    return c;
  };
  const int expected = count_elems(*doc.value());
  auto query = xquery::ParseMainModule("doc(\"d.xml\")/descendant::*");
  ASSERT_TRUE(query.ok()) << query.status();
  const xquery::Expr& path = *query->body;
  const xquery::IndexedHead head = xquery::HeadOf(path);
  ASSERT_EQ(head.end(), 1u);
  xquery::PathIndex index;
  xquery::PathIndex::Counters counters;
  const xdm::Item source = xdm::Item::Node(doc.value());
  auto entry = index.Lookup(path, head, source, &counters);
  EXPECT_EQ(static_cast<int>(entry->nodes.size()), expected);
  EXPECT_EQ(index.Lookup(path, head, source, &counters), entry);
  EXPECT_EQ(counters.builds, 1);
  EXPECT_EQ(counters.hits, 1);
  // Each engine answers the path from an entry of its own evaluation.
  for (EngineKind kind : {EngineKind::kInterpreter, EngineKind::kRelational}) {
    PeerNetwork net;
    Peer* p0 = net.AddPeer("p0", kind);
    ASSERT_TRUE(p0->AddDocumentNode("d.xml", doc.value()).ok());
    auto report = net.Execute("p0", "count(doc(\"d.xml\")//*)");
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_EQ(xdm::SequenceToString(report->result),
              std::to_string(expected))
        << EngineKindToString(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Docs, PathIndexProperty,
    ::testing::Values("<a/>", "<a><b/></a>", "<a>text</a>",
                      "<a><b><c><d/></c></b><e/></a>",
                      "<r><x/><x/><x/><x/><x/></r>",
                      "<r><a><a><a/></a></a></r>",
                      "<r>t1<a/>t2<b/>t3</r>"));

}  // namespace
}  // namespace xrpc::core
