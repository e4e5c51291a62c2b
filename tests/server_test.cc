// End-to-end tests of the peer runtime: XRPC service over the simulated
// network, isolation levels (rules RFr/R'Fr/RFu/R'Fu), snapshot expiry,
// WS-AT two-phase commit including aborts and conflicts, and the
// participating-peers piggyback.

#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "net/simulated_network.h"
#include "server/rpc_client.h"
#include "server/xrpc_service.h"
#include "tests/test_util.h"
#include "xmark/xmark.h"
#include "xml/serializer.h"

namespace xrpc::server {
namespace {

using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;

constexpr char kFilmDb[] =
    "<films>"
    "<film><name>The Rock</name><actor>Sean Connery</actor></film>"
    "<film><name>Goldfinger</name><actor>Sean Connery</actor></film>"
    "<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>"
    "</films>";

constexpr char kFilmModule[] = R"(
  module namespace film = "films";
  declare function film:filmsByActor($actor as xs:string) as node()*
  { doc("filmDB.xml")//name[../actor=$actor] };
  declare function film:countFilms() as xs:integer
  { count(doc("filmDB.xml")//film) };
  declare updating function film:addFilm($name as xs:string,
                                         $actor as xs:string)
  { insert nodes <film><name>{$name}</name><actor>{$actor}</actor></film>
    into doc("filmDB.xml")/films };
)";

// One simulated XRPC peer: database + registry + interpreter engine +
// service, registered on a shared SimulatedNetwork.
class TestPeer {
 public:
  TestPeer(const std::string& name, net::SimulatedNetwork* net)
      : uri_("xrpc://" + name),
        engine_(),
        service_({uri_}, &db_, &registry_, &engine_, net) {
    net->RegisterPeer(net::ParseXrpcUri(uri_).value(), &service_);
  }

  Database& db() { return db_; }
  ModuleRegistry& registry() { return registry_; }
  XrpcService& service() { return service_; }
  const std::string& uri() const { return uri_; }

 private:
  std::string uri_;
  Database db_;
  ModuleRegistry registry_;
  InterpreterEngine engine_;
  XrpcService service_;
};

class ServerTest : public ::testing::Test {
 protected:
  ServerTest() : peer_("y.example.org", &net_) {
    EXPECT_TRUE(peer_.db().PutDocumentText("filmDB.xml", kFilmDb).ok());
    EXPECT_TRUE(peer_.registry().RegisterModule(kFilmModule).ok());
  }

  xquery::RpcCall FilmsByActor(const std::string& actor) {
    xquery::RpcCall call;
    call.dest_uri = peer_.uri();
    call.module_ns = "films";
    call.function = xml::QName("films", "filmsByActor");
    call.args = {Sequence{Item(AtomicValue::String(actor))}};
    return call;
  }

  soap::XrpcRequest AddFilmRequest(const std::string& name,
                                   const std::string& actor) {
    soap::XrpcRequest req;
    req.module_ns = "films";
    req.method = "addFilm";
    req.arity = 2;
    req.updating = true;
    req.calls.push_back({Sequence{Item(AtomicValue::String(name))},
                         Sequence{Item(AtomicValue::String(actor))}});
    return req;
  }

  net::SimulatedNetwork net_;
  TestPeer peer_;
};

TEST_F(ServerTest, SingleCallRoundTrip) {
  RpcClient client(&net_, {});
  auto result = client.Execute(FilmsByActor("Sean Connery"));
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ(xml::SerializeNode(*result.value()[0].node()),
            "<name>The Rock</name>");
  EXPECT_EQ(client.requests_sent(), 1);
  EXPECT_EQ(peer_.service().requests_handled(), 1);
  EXPECT_EQ(*client.participating_peers().begin(), peer_.uri());
}

TEST_F(ServerTest, BulkRequestExecutesAllCalls) {
  RpcClient client(&net_, {});
  soap::XrpcRequest req;
  req.module_ns = "films";
  req.method = "filmsByActor";
  req.arity = 1;
  req.calls.push_back({Sequence{Item(AtomicValue::String("Julie Andrews"))}});
  req.calls.push_back({Sequence{Item(AtomicValue::String("Sean Connery"))}});
  req.calls.push_back(
      {Sequence{Item(AtomicValue::String("Gerard Depardieu"))}});
  auto response = client.ExecuteBulk(peer_.uri(), std::move(req));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->results.size(), 3u);
  EXPECT_TRUE(response->results[0].empty());
  EXPECT_EQ(response->results[1].size(), 2u);
  EXPECT_EQ(response->results[2].size(), 1u);
  // One network message for three calls.
  EXPECT_EQ(net_.messages_sent(), 1);
  EXPECT_EQ(peer_.service().calls_handled(), 3);
}

TEST_F(ServerTest, UnknownModuleYieldsSoapFault) {
  RpcClient client(&net_, {});
  xquery::RpcCall call = FilmsByActor("x");
  call.module_ns = "no-such-module";
  auto result = client.Execute(call);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSoapFault);
  EXPECT_NE(result.status().message().find("could not load module"),
            std::string::npos);
}

TEST_F(ServerTest, UnknownFunctionYieldsSoapFault) {
  RpcClient client(&net_, {});
  xquery::RpcCall call = FilmsByActor("x");
  call.function = xml::QName("films", "noSuchFunction");
  auto result = client.Execute(call);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSoapFault);
}

TEST_F(ServerTest, IsolationNoneSeesLatestState) {
  // Rule RFr: each request sees the current database state.
  RpcClient client(&net_, {});
  auto r1 = client.Execute(FilmsByActor("Sean Connery"));
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->size(), 2u);
  // Another transaction replaces the database between the two calls.
  ASSERT_TRUE(peer_.db()
                  .PutDocumentText("filmDB.xml",
                                   "<films><film><name>Dr. No</name>"
                                   "<actor>Sean Connery</actor></film>"
                                   "</films>")
                  .ok());
  auto r2 = client.Execute(FilmsByActor("Sean Connery"));
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->size(), 1u);
}

TEST_F(ServerTest, RepeatableReadPinsSnapshot) {
  // Rule R'Fr: both requests of the same query see db_p(t_q^p).
  RpcClient::Options opts;
  opts.isolation = IsolationLevel::kRepeatable;
  soap::QueryId qid;
  qid.id = "query-1";
  qid.host = "xrpc://p0";
  qid.timeout_sec = 60;
  opts.query_id = qid;
  RpcClient client(&net_, opts);

  auto r1 = client.Execute(FilmsByActor("Sean Connery"));
  ASSERT_TRUE(r1.ok()) << r1.status();
  EXPECT_EQ(r1->size(), 2u);
  ASSERT_TRUE(
      peer_.db().PutDocumentText("filmDB.xml", "<films/>").ok());
  auto r2 = client.Execute(FilmsByActor("Sean Connery"));
  ASSERT_TRUE(r2.ok()) << r2.status();
  EXPECT_EQ(r2->size(), 2u);  // same snapshot, unaffected by the update
  EXPECT_EQ(peer_.service().isolation().active_sessions(), 1u);

  // A different query sees the new state.
  RpcClient fresh(&net_, {});
  auto r3 = fresh.Execute(FilmsByActor("Sean Connery"));
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3->size(), 0u);
}

TEST_F(ServerTest, ExpiredQueryIdIsRejected) {
  int64_t fake_now = 1'000'000;
  peer_.service().isolation().SetTimeSource([&] { return fake_now; });

  RpcClient::Options opts;
  opts.isolation = IsolationLevel::kRepeatable;
  soap::QueryId qid;
  qid.id = "query-2";
  qid.host = "xrpc://p0";
  qid.timestamp = 77;
  qid.timeout_sec = 10;
  opts.query_id = qid;
  RpcClient client(&net_, opts);

  ASSERT_TRUE(client.Execute(FilmsByActor("Sean Connery")).ok());
  fake_now += 11'000'000;  // advance past the 10 s timeout
  auto late = client.Execute(FilmsByActor("Sean Connery"));
  ASSERT_FALSE(late.ok());
  EXPECT_NE(late.status().message().find("expired"), std::string::npos);
  // The expired id is remembered: even a brand-new request with the same
  // id errors out.
  auto again = client.Execute(FilmsByActor("Sean Connery"));
  EXPECT_FALSE(again.ok());
}

TEST_F(ServerTest, UpdatingCallWithoutIsolationAppliesImmediately) {
  // Rule RFu: the pending update list is applied per request.
  RpcClient client(&net_, {});
  uint64_t version_before = peer_.db().VersionOf("filmDB.xml");
  auto response =
      client.ExecuteBulk(peer_.uri(), AddFilmRequest("Dr. No", "Sean Connery"));
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_GT(peer_.db().VersionOf("filmDB.xml"), version_before);

  auto count = client.Execute([this] {
    xquery::RpcCall call;
    call.dest_uri = peer_.uri();
    call.module_ns = "films";
    call.function = xml::QName("films", "countFilms");
    return call;
  }());
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value()[0].atomic().AsInteger(), 4);
}

TEST_F(ServerTest, IsolatedUpdateDeferredUntilCommit) {
  // Rule R'Fu + 2PC: updates stay invisible until Commit.
  RpcClient::Options opts;
  opts.isolation = IsolationLevel::kRepeatable;
  soap::QueryId qid;
  qid.id = "upd-1";
  qid.host = "xrpc://p0";
  qid.timeout_sec = 60;
  opts.query_id = qid;
  RpcClient client(&net_, opts);

  ASSERT_TRUE(
      client.ExecuteBulk(peer_.uri(), AddFilmRequest("Dr. No", "Sean Connery"))
          .ok());
  // Not yet visible.
  RpcClient reader(&net_, {});
  xquery::RpcCall count_call;
  count_call.dest_uri = peer_.uri();
  count_call.module_ns = "films";
  count_call.function = xml::QName("films", "countFilms");
  auto before = reader.Execute(count_call);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value()[0].atomic().AsInteger(), 3);

  // Commit through WS-AT.
  std::vector<std::string> participants(client.participating_peers().begin(),
                                        client.participating_peers().end());
  auto outcome = RunTwoPhaseCommit(&net_, participants, "upd-1");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->committed);
  EXPECT_EQ(outcome->prepares_sent, 1);
  EXPECT_EQ(outcome->commits_sent, 1);
  EXPECT_EQ(peer_.service().txn_log().CountAppended(
                TxnLog::RecordType::kPrepared),
            1u);
  EXPECT_EQ(peer_.service().txn_log().CountAppended(
                TxnLog::RecordType::kCommitted),
            1u);

  auto after = reader.Execute(count_call);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value()[0].atomic().AsInteger(), 4);
  EXPECT_EQ(peer_.service().isolation().active_sessions(), 0u);
}

TEST_F(ServerTest, PrepareFailureAbortsDistributedTransaction) {
  RpcClient::Options opts;
  opts.isolation = IsolationLevel::kRepeatable;
  soap::QueryId qid;
  qid.id = "upd-2";
  qid.host = "xrpc://p0";
  qid.timeout_sec = 60;
  opts.query_id = qid;
  RpcClient client(&net_, opts);
  ASSERT_TRUE(
      client.ExecuteBulk(peer_.uri(), AddFilmRequest("Dr. No", "Sean Connery"))
          .ok());

  peer_.service().txn_log().FailNextAppend(
      Status::TransactionError("disk full"));
  auto outcome = RunTwoPhaseCommit(&net_, {peer_.uri()}, "upd-2");
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_FALSE(outcome->committed);
  EXPECT_NE(outcome->abort_reason.find("disk full"), std::string::npos);

  // The database is untouched and the session is gone.
  RpcClient reader(&net_, {});
  xquery::RpcCall count_call;
  count_call.dest_uri = peer_.uri();
  count_call.module_ns = "films";
  count_call.function = xml::QName("films", "countFilms");
  auto count = reader.Execute(count_call);
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value()[0].atomic().AsInteger(), 3);
  EXPECT_EQ(peer_.service().isolation().active_sessions(), 0u);
}

TEST_F(ServerTest, WriteWriteConflictAbortsAtPrepare) {
  // First-committer-wins: a transaction that committed after our snapshot
  // forces an abort at Prepare.
  RpcClient::Options opts;
  opts.isolation = IsolationLevel::kRepeatable;
  soap::QueryId qid;
  qid.id = "upd-3";
  qid.host = "xrpc://p0";
  qid.timeout_sec = 60;
  opts.query_id = qid;
  RpcClient client(&net_, opts);
  ASSERT_TRUE(
      client.ExecuteBulk(peer_.uri(), AddFilmRequest("Dr. No", "Sean Connery"))
          .ok());

  // Meanwhile another (non-isolated) update commits.
  RpcClient other(&net_, {});
  ASSERT_TRUE(other
                  .ExecuteBulk(peer_.uri(),
                               AddFilmRequest("Thunderball", "Sean Connery"))
                  .ok());

  auto outcome = RunTwoPhaseCommit(&net_, {peer_.uri()}, "upd-3");
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->committed);
  EXPECT_NE(outcome->abort_reason.find("conflict"), std::string::npos);
}

TEST_F(ServerTest, NestedCallsPiggybackParticipants) {
  // y calls z from within a module function; p0 must learn about z from
  // the piggybacked peer list.
  TestPeer z("z.example.org", &net_);
  ASSERT_TRUE(z.db().PutDocumentText("filmDB.xml", kFilmDb).ok());
  ASSERT_TRUE(z.registry().RegisterModule(kFilmModule).ok());
  ASSERT_TRUE(peer_.registry()
                  .RegisterModule(R"(
    module namespace fwd = "forward";
    import module namespace film = "films" at "film.xq";
    declare function fwd:remoteCount() as xs:integer
    { execute at {"xrpc://z.example.org"} {film:countFilms()} };)")
                  .ok());

  RpcClient client(&net_, {});
  xquery::RpcCall call;
  call.dest_uri = peer_.uri();
  call.module_ns = "forward";
  call.function = xml::QName("forward", "remoteCount");
  auto result = client.Execute(call);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result.value()[0].atomic().AsInteger(), 3);
  EXPECT_EQ(client.participating_peers().count("xrpc://z.example.org"), 1u);
  EXPECT_EQ(client.participating_peers().count("xrpc://y.example.org"), 1u);
}

TEST_F(ServerTest, NetworkTimeAccumulatesOnClient) {
  RpcClient client(&net_, {});
  ASSERT_TRUE(client.Execute(FilmsByActor("Sean Connery")).ok());
  ASSERT_TRUE(client.Execute(FilmsByActor("Julie Andrews")).ok());
  EXPECT_GE(client.network_micros(), 4 * net_.profile().latency_us);
  EXPECT_EQ(client.requests_sent(), 2);
}

// InterpreterEngine evaluates all calls of one Bulk RPC request in one
// evaluation context, so the path memo and join index are shared across
// calls. The shared context must change no answer and no update order.
class InterpreterBulkTest : public ::testing::Test {
 protected:
  InterpreterBulkTest() {
    xmark::XmarkConfig config;
    config.num_persons = 64;
    config.num_closed_auctions = 400;
    config.num_matches = 40;
    config.annotation_bytes = 16;
    docs_.AddDocument("auctions.xml", xmark::GenerateAuctions(config));
    docs_.AddDocument("filmDB.xml", kFilmDb);
    EXPECT_TRUE(
        modules_.AddModule(xmark::FunctionsBModuleSource("xrpc://a")).ok());
    EXPECT_TRUE(modules_.AddModule(R"(
      module namespace t = "bulk";
      declare function t:shape($n as xs:integer) as xs:string {
        let $e := <a>{for $i in 1 to $n return <b/>}</a>
        let $d := document { if ($n = 0) then () else
                             <r>{for $i in 1 to $n
                                 return <c k="{$i mod 2}">{$i}</c>}</r> }
        return concat(count($e/b), ":",
                      string-join(for $c in $d/r/c[@k = "1"]
                                  return string($c), ","))
      };
      declare function t:docStep($n as xs:integer) as xs:integer
      { count(document { if ($n mod 2 = 0) then () else <r/> }/r) };
      declare function t:countFilms($i as xs:integer) as xs:integer
      { $i + count(doc("filmDB.xml")//film) };
      declare updating function t:maybeAdd($n as xs:integer) {
        if ($n mod 2 = 0)
        then insert nodes <film><name>{$n}</name></film>
             into doc("filmDB.xml")/films
        else ()
      };)")
                    .ok());
  }

  static soap::XrpcRequest Request(const std::string& ns,
                                   const std::string& method,
                                   const std::vector<Sequence>& args) {
    soap::XrpcRequest req;
    req.module_ns = ns;
    req.method = method;
    req.arity = 1;
    for (const Sequence& arg : args) req.calls.push_back({arg});
    return req;
  }

  /// Executes `req` on the engine; `documents` defaults to the fixture's.
  StatusOr<std::vector<Sequence>> Run(
      const soap::XrpcRequest& req, xquery::PendingUpdateList* pul = nullptr,
      xquery::DocumentProvider* documents = nullptr,
      const CancellationToken* cancel = nullptr) {
    CallContext context;
    context.documents = documents != nullptr ? documents : &docs_;
    context.modules = &modules_;
    context.cancel = cancel;
    return engine_.ExecuteRequest(req, context, pul);
  }

  /// Runs `args` as one N-call request and as N one-call requests; both
  /// must render identically, call by call. Returns the bulk rendering.
  std::vector<std::string> ExpectBulkMatchesSingleCalls(
      const std::string& ns, const std::string& method,
      const std::vector<Sequence>& args) {
    auto bulk = Run(Request(ns, method, args));
    EXPECT_TRUE(bulk.ok()) << bulk.status();
    if (!bulk.ok()) return {};
    EXPECT_EQ(bulk->size(), args.size());
    std::vector<std::string> rendered;
    for (size_t i = 0; i < bulk->size(); ++i) {
      rendered.push_back(xdm::SequenceToString((*bulk)[i]));
      auto single = Run(Request(ns, method, {args[i]}));
      EXPECT_TRUE(single.ok()) << single.status();
      if (!single.ok()) continue;
      EXPECT_EQ(rendered.back(), xdm::SequenceToString((*single)[0]))
          << "call " << i;
    }
    return rendered;
  }

  /// One line per PUL entry: call index, primitive kind, target and
  /// serialized content.
  static std::string RenderPul(const xquery::PendingUpdateList& pul) {
    std::string out;
    for (const auto& entry : pul.entries()) {
      out += std::to_string(entry.call_index) + " " +
             std::to_string(static_cast<int>(entry.primitive.kind)) + " " +
             entry.primitive.target.node()->name().local;
      for (const Item& item : entry.primitive.content) {
        out += " " + xml::SerializeNode(*item.node());
      }
      out += "\n";
    }
    return out;
  }

  testing::MapDocumentProvider docs_;
  testing::MapModuleResolver modules_;
  InterpreterEngine engine_;
};

TEST_F(InterpreterBulkTest, SemiJoinBulkEqualsOneCallRequests) {
  std::vector<Sequence> pids;
  for (int i = 0; i < 62; ++i) {
    pids.push_back(
        Sequence{Item(AtomicValue::String("person" + std::to_string(i)))});
  }
  pids.push_back(Sequence{Item(AtomicValue::String("nobody"))});
  std::vector<std::string> results =
      ExpectBulkMatchesSingleCalls("functions_b", "Q_B3", pids);
  size_t non_empty = 0;
  for (const std::string& r : results) non_empty += r.empty() ? 0 : 1;
  EXPECT_GT(non_empty, 5u);  // the comparison is not vacuous
  EXPECT_TRUE(results.back().empty());
}

TEST_F(InterpreterBulkTest, ConstructedTreesArePathSteppedPerCall) {
  // Every call builds fresh trees (one of them document-rooted, large
  // enough for the join index, or with an empty path prefix when n = 0)
  // and steps into them. No call may see a tree or an index entry of
  // another, even when a new tree reuses a freed tree's address.
  std::vector<Sequence> sizes;
  for (int n : {0, 3, 20, 0, 17, 3, 32, 0}) {
    sizes.push_back(xdm::SingletonInt(n));
  }
  std::vector<std::string> results =
      ExpectBulkMatchesSingleCalls("bulk", "shape", sizes);
  ASSERT_EQ(results.size(), sizes.size());
  EXPECT_EQ(results[0], "0:");
  EXPECT_EQ(results[1], "3:1,3");
  EXPECT_EQ(results[4], "17:1,3,5,7,9,11,13,15,17");
  EXPECT_EQ(results[5], "3:1,3");
  EXPECT_EQ(results[7], "0:");
}

TEST_F(InterpreterBulkTest, FreedDocumentAddressesDoNotHitTheMemo) {
  // Even calls leave an empty memoized prefix for a document that dies
  // with the call; the memo entry must keep that document alive, or a
  // later call's document can take its address and read "0".
  std::vector<Sequence> args;
  for (int i = 0; i < 8; ++i) args.push_back(xdm::SingletonInt(i));
  std::vector<std::string> results =
      ExpectBulkMatchesSingleCalls("bulk", "docStep", args);
  std::string joined;
  for (const std::string& r : results) joined += r;
  EXPECT_EQ(joined, "01010101");
}

TEST_F(InterpreterBulkTest, UpdatingBulkKeepsPerCallPulOrder) {
  std::vector<Sequence> ns;
  for (int n : {2, 1, 4, 6, 3, 8}) ns.push_back(xdm::SingletonInt(n));
  xquery::PendingUpdateList bulk_pul;
  auto bulk = Run(Request("bulk", "maybeAdd", ns), &bulk_pul);
  ASSERT_TRUE(bulk.ok()) << bulk.status();

  xquery::PendingUpdateList single_pul;
  for (const Sequence& n : ns) {
    ASSERT_TRUE(Run(Request("bulk", "maybeAdd", {n}), &single_pul).ok());
  }
  EXPECT_EQ(bulk_pul.size(), 4u);
  EXPECT_EQ(RenderPul(bulk_pul), RenderPul(single_pul));
  // Entries follow the calls that produced them.
  const auto& entries = bulk_pul.entries();
  for (size_t i = 1; i < entries.size(); ++i) {
    EXPECT_LT(entries[i - 1].call_index, entries[i].call_index);
  }
  EXPECT_NE(RenderPul(bulk_pul).find("<name>2</name>"), std::string::npos);
}

// Runs `hook` on a document when the `at`-th fetch (1-based) happens:
// lets a test act in the middle of one call of a request.
class FetchHookDocuments : public xquery::DocumentProvider {
 public:
  FetchHookDocuments(xquery::DocumentProvider* base, int at,
                     std::function<void(xml::Node* doc)> hook)
      : base_(base), at_(at), hook_(std::move(hook)) {}

  StatusOr<xml::NodePtr> GetDocument(const std::string& uri) override {
    XRPC_ASSIGN_OR_RETURN(xml::NodePtr doc, base_->GetDocument(uri));
    if (++fetches_ == at_) hook_(doc.get());
    return doc;
  }

  int fetches() const { return fetches_; }

 private:
  xquery::DocumentProvider* base_;
  int at_;
  std::function<void(xml::Node* doc)> hook_;
  int fetches_ = 0;
};

TEST_F(InterpreterBulkTest, MemoSeesDocumentsMutatedMidRequest) {
  // The third call's fetch appends a film in place, as a nested update
  // applied at this peer mid-request would; later calls must count it.
  FetchHookDocuments docs(&docs_, /*at=*/3, [](xml::Node* doc) {
    doc->children()[0]->AppendChild(xml::Node::NewElement(xml::QName("film")));
  });
  std::vector<Sequence> args;
  for (int i = 0; i < 5; ++i) args.push_back(xdm::SingletonInt(i * 10));
  auto result = Run(Request("bulk", "countFilms", args), nullptr, &docs);
  ASSERT_TRUE(result.ok()) << result.status();
  std::string rendered;
  for (const Sequence& r : *result) rendered += xdm::SequenceToString(r) + " ";
  EXPECT_EQ(rendered, "3 13 24 34 44 ");
}

TEST_F(InterpreterBulkTest, CancellationStopsBetweenCalls) {
  // The second call's fetch is its last expression dispatch, so that call
  // completes and the request stops before the next call starts.
  CancellationToken token;
  FetchHookDocuments docs(&docs_, /*at=*/2, [&token](xml::Node*) {
    token.Cancel(Status::Cancelled("stop"));
  });
  std::vector<Sequence> args;
  for (int i = 0; i < 5; ++i) args.push_back(xdm::SingletonInt(i));
  auto result =
      Run(Request("bulk", "countFilms", args), nullptr, &docs, &token);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(docs.fetches(), 2);  // calls 3..5 never started
}

}  // namespace
}  // namespace xrpc::server
