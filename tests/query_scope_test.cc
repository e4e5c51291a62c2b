// The per-query scope every peer evaluates under (server/query_scope.h):
// the document resolver's rules, one row each, and the metrics a served
// hop's nested `execute at` reports through the scope's client.

#include "server/query_scope.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/peer_network.h"
#include "xdm/item.h"
#include "xml/serializer.h"

namespace xrpc::server {
namespace {

using core::EngineKind;
using core::Peer;
using core::PeerNetwork;

/// Two peers and a catalog: "self" resolves, "remote" serves sys:doc.
/// c.xml has shard 0 at self and shard 1 at remote (replicated at self);
/// one.xml is one fragment at self.
struct World {
  World() {
    self = net.AddPeer("self", EngineKind::kInterpreter);
    remote = net.AddPeer("remote", EngineKind::kInterpreter);
    EXPECT_TRUE(self->AddDocument("plain.xml", "<p>live</p>").ok());
    EXPECT_TRUE(self->AddDocument("c.xml.0", "<c><x>0</x></c>").ok());
    EXPECT_TRUE(self->AddDocument("c.xml.1", "<c><x>1</x></c>").ok());
    EXPECT_TRUE(self->AddDocument("one.xml.0", "<one/>").ok());
    EXPECT_TRUE(remote->AddDocument("c.xml.1", "<c><x>1</x></c>").ok());
    EXPECT_TRUE(remote->AddDocument("r.xml", "<r/>").ok());
    core::ShardedCollection c;
    c.name = "c.xml";
    c.shards = {{.index = 0, .peer_uri = self->uri(), .doc_name = "c.xml.0"},
                {.index = 1,
                 .peer_uri = remote->uri(),
                 .doc_name = "c.xml.1",
                 .replicas = {self->uri()}}};
    EXPECT_TRUE(net.catalog().RegisterCollection(std::move(c)).ok());
    core::ShardedCollection one;
    one.name = "one.xml";
    one.shards = {
        {.index = 0, .peer_uri = self->uri(), .doc_name = "one.xml.0"}};
    EXPECT_TRUE(net.catalog().RegisterCollection(std::move(one)).ok());
  }

  std::unique_ptr<DocumentResolver> Resolver(QuerySession* session,
                                             bool with_client) {
    return std::make_unique<DocumentResolver>(
        &self->database(), session, with_client ? &client : nullptr,
        &net.catalog(), self->uri());
  }

  PeerNetwork net;
  Peer* self = nullptr;
  Peer* remote = nullptr;
  RpcClient client{&net.network(), {}};
};

struct Row {
  const char* rule;
  std::string uri;
  /// The resolved document serialized, or the error message.
  std::string want;
  StatusCode code = StatusCode::kOk;
  /// sys:doc requests the remote peer serves for both reads of `uri`.
  int64_t fetches = 0;
  /// When set, `uri` resolves to this stored tree itself.
  std::string stored;
  std::pair<std::string, std::string> pin;  ///< collection -> fragment
  bool with_client = true;
  bool snapshot = false;  ///< read under a queryID's session
};

TEST(DocumentResolverTest, EachRuleResolvesAsSpecified) {
  const std::vector<Row> rows = {
      {.rule = "shard: assembles every fragment in shard order",
       .uri = "shard:c.xml",
       .want = "<c><x>0</x></c><c><x>1</x></c>",
       .fetches = 1},
      {.rule = "shard: of one fragment is that fragment",
       .uri = "shard:one.xml",
       .want = "<one/>",
       .stored = "one.xml.0"},
      {.rule = "a pinned collection name reads the pinned fragment",
       .uri = "c.xml",
       .want = "<c><x>1</x></c>",
       .stored = "c.xml.1",
       .pin = {"c.xml", "c.xml.1"}},
      {.rule = "a pin to a missing fragment names pin and collection",
       .uri = "c.xml",
       .want = "pinned fragment c.xml.7 of c.xml: document not found: c.xml.7",
       .code = StatusCode::kNotFound,
       .pin = {"c.xml", "c.xml.7"}},
      {.rule = "a logical name falls back to the local fragments",
       .uri = "c.xml",
       .want = "<c><x>0</x></c>",
       .stored = "c.xml.0"},
      {.rule = "xrpc:// is fetched once per query",
       .uri = "xrpc://remote/r.xml",
       .want = "<r/>",
       .fetches = 1},
      {.rule = "xrpc:// without a transport fails",
       .uri = "xrpc://remote/r.xml",
       .want = "no outgoing transport for remote document xrpc://remote/r.xml",
       .code = StatusCode::kNetworkError,
       .with_client = false},
      {.rule = "a plain name reads the live tree",
       .uri = "plain.xml",
       .want = "<p>live</p>",
       .stored = "plain.xml"},
      {.rule = "a queryID reads its snapshot, blind to later live writes",
       .uri = "plain.xml",
       .want = "<p>live</p>",
       .snapshot = true},
      {.rule = "an unknown name is NotFound",
       .uri = "nope.xml",
       .want = "document not found: nope.xml",
       .code = StatusCode::kNotFound},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.rule);
    World world;
    QuerySession* session = nullptr;
    if (row.snapshot) {
      soap::QueryId id;
      id.id = "q-snapshot";
      auto s = world.self->service().isolation().GetSession(id);
      ASSERT_TRUE(s.ok()) << s.status();
      session = s.value();
    }
    auto resolver = world.Resolver(session, row.with_client);
    if (!row.pin.first.empty()) {
      resolver->PinFragment(row.pin.first, row.pin.second);
    }
    const int64_t served_before = world.remote->service().requests_handled();

    auto first = resolver->GetDocument(row.uri);
    if (row.code != StatusCode::kOk) {
      ASSERT_FALSE(first.ok());
      EXPECT_EQ(first.status().code(), row.code);
      EXPECT_EQ(first.status().message(), row.want);
      continue;
    }
    ASSERT_TRUE(first.ok()) << first.status();
    EXPECT_EQ(xml::SerializeNode(*first.value()), row.want);
    if (!row.stored.empty()) {
      EXPECT_EQ(first.value(),
                world.self->database().GetDocument(row.stored).value());
    }
    if (row.snapshot) {
      // A live write lands, and the query's next call reads again.
      ASSERT_TRUE(
          world.self->AddDocument("plain.xml", "<p>rewritten</p>").ok());
      resolver = world.Resolver(session, row.with_client);
      EXPECT_NE(first.value(),
                world.self->database().GetDocument("plain.xml").value());
    }
    // doc(u) is doc(u) within one query.
    auto second = resolver->GetDocument(row.uri);
    ASSERT_TRUE(second.ok()) << second.status();
    EXPECT_EQ(second.value(), first.value());
    EXPECT_EQ(world.remote->service().requests_handled() - served_before,
              row.fetches);
  }
}

constexpr char kFilmModule[] = R"(
  module namespace film = "films";
  declare function film:filmsByActor($actor as xs:string) as node()*
  { doc("filmDB.xml")//name[../actor=$actor] };
)";

// A served hop's nested `execute at` reports its fan-out to the network's
// metrics registry, as p0's own calls do.
TEST(QueryScopeTest, NestedHopFanoutReachesMetrics) {
  PeerNetwork net;
  Peer* p0 = net.AddPeer("p0.example.org", EngineKind::kRelational);
  Peer* y = net.AddPeer("y.example.org", EngineKind::kRelational);
  Peer* z = net.AddPeer("z.example.org", EngineKind::kRelational);
  Peer* w = net.AddPeer("w.example.org", EngineKind::kRelational);
  ASSERT_TRUE(z->AddDocument("filmDB.xml",
                             "<films><film><name>The Rock</name>"
                             "<actor>Sean Connery</actor></film></films>")
                  .ok());
  ASSERT_TRUE(w->AddDocument("filmDB.xml",
                             "<films><film><name>Goldfinger</name>"
                             "<actor>Sean Connery</actor></film></films>")
                  .ok());
  for (Peer* p : {p0, y, z, w}) {
    ASSERT_TRUE(
        p->RegisterModule(kFilmModule, "http://x.example.org/film.xq").ok());
  }
  ASSERT_TRUE(y->RegisterModule(R"(
    module namespace fwd = "forward";
    import module namespace film = "films" at "film.xq";
    declare function fwd:both($actor as xs:string) as node()*
    { for $d in ("xrpc://z.example.org", "xrpc://w.example.org")
      return execute at {$d} {film:filmsByActor($actor)} };)")
                  .ok());

  auto report = net.Execute("p0.example.org", R"(
    import module namespace f="forward" at "http://y.example.org/fwd.xq";
    execute at {"xrpc://y.example.org"} {f:both("Sean Connery")})");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(xdm::SequenceToString(report->result),
            "<name>The Rock</name> <name>Goldfinger</name>");
  // p0 sent one request to one peer, which records no fan-out; y's one
  // loop-lifted `execute at` is one group over two destinations.
  EXPECT_EQ(net.metrics().Get(net::Metric::kFanoutGroups), 1);
  EXPECT_EQ(net.metrics().Get(net::Metric::kFanoutDestinations), 2);
}

}  // namespace
}  // namespace xrpc::server
