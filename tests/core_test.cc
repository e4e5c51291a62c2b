// End-to-end tests of the public API: the paper's example queries Q1-Q3
// and Q6, Bulk RPC generation, out-of-order map-back, engine
// interoperability (relational peer + wrapper peer), distributed updates
// with 2PC, and the Section 5 strategy queries in miniature.

#include <gtest/gtest.h>

#include "core/peer_network.h"
#include "xdm/item.h"

namespace xrpc::core {
namespace {

constexpr char kFilmDbY[] =
    "<films>"
    "<film><name>The Rock</name><actor>Sean Connery</actor></film>"
    "<film><name>Goldfinger</name><actor>Sean Connery</actor></film>"
    "<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>"
    "</films>";

constexpr char kFilmDbZ[] =
    "<films>"
    "<film><name>Sound Of Music</name><actor>Julie Andrews</actor></film>"
    "</films>";

constexpr char kFilmModule[] = R"(
  module namespace film = "films";
  declare function film:filmsByActor($actor as xs:string) as node()*
  { doc("filmDB.xml")//name[../actor=$actor] };
  declare updating function film:addFilm($name as xs:string,
                                         $actor as xs:string)
  { insert nodes <film><name>{$name}</name><actor>{$actor}</actor></film>
    into doc("filmDB.xml")/films };
)";

class CoreTest : public ::testing::Test {
 protected:
  CoreTest() {
    p0_ = net_.AddPeer("p0.example.org", EngineKind::kRelational);
    y_ = net_.AddPeer("y.example.org", EngineKind::kRelational);
    z_ = net_.AddPeer("z.example.org", EngineKind::kRelational);
    EXPECT_TRUE(y_->AddDocument("filmDB.xml", kFilmDbY).ok());
    EXPECT_TRUE(z_->AddDocument("filmDB.xml", kFilmDbZ).ok());
    for (Peer* p : {p0_, y_, z_}) {
      EXPECT_TRUE(
          p->RegisterModule(kFilmModule, "http://x.example.org/film.xq").ok());
    }
  }

  std::string Run(const std::string& query, const ExecuteOptions& opts = {}) {
    auto report = net_.Execute("p0.example.org", query, opts);
    if (!report.ok()) return "ERROR: " + report.status().ToString();
    last_report_ = std::move(report).value();
    return xdm::SequenceToString(last_report_.result);
  }

  PeerNetwork net_;
  Peer* p0_;
  Peer* y_;
  Peer* z_;
  ExecutionReport last_report_;
};

TEST_F(CoreTest, PaperQ1SingleCall) {
  EXPECT_EQ(Run(R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    <films> {
      execute at {"xrpc://y.example.org"}
      {f:filmsByActor("Sean Connery")}
    } </films>)"),
            "<films><name>The Rock</name><name>Goldfinger</name></films>");
  EXPECT_TRUE(last_report_.used_relational);
  EXPECT_EQ(last_report_.requests_sent, 1);
}

TEST_F(CoreTest, PaperQ2BulkToOneDestination) {
  // Two iterations, one destination => ONE Bulk RPC request.
  EXPECT_EQ(Run(R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    <films> {
      for $actor in ("Julie Andrews", "Sean Connery")
      let $dst := "xrpc://y.example.org"
      return execute at {$dst} {f:filmsByActor($actor)}
    } </films>)"),
            "<films><name>The Rock</name><name>Goldfinger</name></films>");
  EXPECT_EQ(last_report_.requests_sent, 1);
  EXPECT_EQ(y_->service().calls_handled(), 2);
}

TEST_F(CoreTest, PaperQ3BulkToTwoDestinations) {
  // Four iterations, two destinations => TWO Bulk RPC requests (one per
  // peer), results merged back into query order.
  EXPECT_EQ(Run(R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    <films> {
      for $actor in ("Julie Andrews", "Sean Connery")
      for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
      return execute at {$dst} {f:filmsByActor($actor)}
    } </films>)"),
            "<films>"
            "<name>Sound Of Music</name>"       // iter 2: Julie @ z
            "<name>The Rock</name>"             // iter 3: Sean @ y
            "<name>Goldfinger</name>"
            "</films>");
  EXPECT_EQ(last_report_.requests_sent, 2);
  EXPECT_EQ(y_->service().calls_handled(), 2);
  EXPECT_EQ(z_->service().calls_handled(), 2);
}

TEST_F(CoreTest, Figure1TraceCapturesIntermediateTables) {
  ExecuteOptions opts;
  opts.trace_bulk_rpc = true;
  Run(R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    for $actor in ("Julie Andrews", "Sean Connery")
    for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
    return execute at {$dst} {f:filmsByActor($actor)})",
      opts);
  ASSERT_EQ(last_report_.traces.size(), 1u);
  const compiler::BulkRpcTrace& trace = last_report_.traces[0];
  std::string rendered = "dst:\n" + trace.dst.ToString();
  for (const compiler::BulkRpcTrace::PerPeer& peer : trace.peers) {
    rendered += "peer " + peer.peer + "\nmap:\n" + peer.MapToString();
    for (const algebra::Table& req : peer.req) {
      rendered += "req:\n" + req.ToString();
    }
    rendered += "msg:\n" + peer.msg.ToString();
    rendered += "res:\n" + peer.res.ToString();
  }
  rendered += "result:\n" + trace.result.ToString();
  // Figure 1: peer y gets iterations 1 and 3 renumbered to iterp 1 and 2,
  // peer z iterations 2 and 4; each response maps back through `map`
  // (msg_z's iterp 1 becomes res_z's iter 2), and the merge-union
  // restores query order.
  EXPECT_EQ(rendered,
            "dst:\n"
            "iter | pos | item\n"
            "1 | 1 | \"xrpc://y.example.org\"\n"
            "2 | 1 | \"xrpc://z.example.org\"\n"
            "3 | 1 | \"xrpc://y.example.org\"\n"
            "4 | 1 | \"xrpc://z.example.org\"\n"
            "peer xrpc://y.example.org\n"
            "map:\n"
            "iter | iterp\n"
            "1 | 1\n"
            "3 | 2\n"
            "req:\n"
            "iter | pos | item\n"
            "1 | 1 | \"Julie Andrews\"\n"
            "2 | 1 | \"Sean Connery\"\n"
            "msg:\n"
            "iter | pos | item\n"
            "2 | 1 | <name>\n"
            "2 | 2 | <name>\n"
            "res:\n"
            "iter | pos | item\n"
            "3 | 1 | <name>\n"
            "3 | 2 | <name>\n"
            "peer xrpc://z.example.org\n"
            "map:\n"
            "iter | iterp\n"
            "2 | 1\n"
            "4 | 2\n"
            "req:\n"
            "iter | pos | item\n"
            "1 | 1 | \"Julie Andrews\"\n"
            "2 | 1 | \"Sean Connery\"\n"
            "msg:\n"
            "iter | pos | item\n"
            "1 | 1 | <name>\n"
            "res:\n"
            "iter | pos | item\n"
            "2 | 1 | <name>\n"
            "result:\n"
            "iter | pos | item\n"
            "2 | 1 | <name>\n"
            "3 | 1 | <name>\n"
            "3 | 2 | <name>\n");
}

TEST_F(CoreTest, PaperQ6OutOfOrderBulk) {
  // Q6: sequence construction of two calls to the same peer — two Bulk
  // RPCs, each processing both loop iterations (out-of-order relative to
  // the query text), with the final result back in query order.
  EXPECT_EQ(Run(R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    for $name in ("Julie", "Sean")
    let $connery := concat($name, " ", "Connery")
    let $andrews := concat($name, " ", "Andrews")
    return (
      execute at {"xrpc://y.example.org"} {f:filmsByActor($connery)},
      execute at {"xrpc://y.example.org"} {f:filmsByActor($andrews)} ))"),
            "<name>The Rock</name> <name>Goldfinger</name>");
  EXPECT_EQ(last_report_.requests_sent, 2);  // one bulk per call site
  EXPECT_EQ(y_->service().calls_handled(), 4);
}

TEST_F(CoreTest, OneAtATimeComparisonMode) {
  ExecuteOptions opts;
  opts.force_one_at_a_time = true;
  EXPECT_EQ(Run(R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    for $actor in ("Julie Andrews", "Sean Connery")
    return execute at {"xrpc://y.example.org"} {f:filmsByActor($actor)})",
                opts),
            "<name>The Rock</name> <name>Goldfinger</name>");
  EXPECT_FALSE(last_report_.used_relational);
  EXPECT_EQ(last_report_.requests_sent, 2);  // one per iteration
}

TEST_F(CoreTest, BulkBeatsOneAtATimeOnNetworkTime) {
  const char* query = R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    for $i in 1 to 50
    return execute at {"xrpc://y.example.org"}
           {f:filmsByActor("Gerard Depardieu")})";
  Run(query);
  int64_t bulk_net = last_report_.network_micros;
  EXPECT_EQ(last_report_.requests_sent, 1);
  ExecuteOptions opts;
  opts.force_one_at_a_time = true;
  Run(query, opts);
  int64_t singles_net = last_report_.network_micros;
  EXPECT_EQ(last_report_.requests_sent, 50);
  EXPECT_GT(singles_net, 10 * bulk_net);
}

TEST_F(CoreTest, WrapperPeerInteroperates) {
  // Replace z with a wrapper ("Saxon") peer: cross-engine distributed
  // query, exactly the Section 4/5 interoperability story.
  Peer* saxon = net_.AddPeer("saxon.example.org", EngineKind::kWrapper);
  ASSERT_TRUE(saxon->AddDocument("filmDB.xml", kFilmDbZ).ok());
  ASSERT_TRUE(saxon->RegisterModule(kFilmModule).ok());
  EXPECT_EQ(Run(R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    for $a in ("Julie Andrews", "Sean Connery")
    return execute at {"xrpc://saxon.example.org"} {f:filmsByActor($a)})"),
            "<name>Sound Of Music</name>");
  EXPECT_EQ(last_report_.requests_sent, 1);  // still one bulk request
  EXPECT_GT(saxon->wrapper_engine()->last_timings().total_us, 0);
}

TEST_F(CoreTest, DataShippingRemoteDoc) {
  // fn:doc with an xrpc:// URI ships the document to p0.
  EXPECT_EQ(
      Run("count(doc(\"xrpc://y.example.org/filmDB.xml\")//film)"), "3");
  EXPECT_EQ(last_report_.requests_sent, 1);
}

TEST_F(CoreTest, ExecutionRelocation) {
  // Section 5: run the whole join at the remote peer.
  ASSERT_TRUE(y_->RegisterModule(R"(
    module namespace b = "functions_b";
    declare function b:countSean() as xs:integer
    { count(doc("filmDB.xml")//film[actor="Sean Connery"]) };)")
                  .ok());
  EXPECT_EQ(Run(R"(
    import module namespace b="functions_b" at "http://example.org/b.xq";
    execute at {"xrpc://y.example.org"} {b:countSean()})"),
            "2");
}

TEST_F(CoreTest, DistributedSemiJoinPattern) {
  // Loop-dependent parameter (the semi-join of Section 5) in miniature.
  ASSERT_TRUE(p0_->AddDocument(
                      "actors.xml",
                      "<actors><a>Sean Connery</a><a>Nobody</a></actors>")
                  .ok());
  EXPECT_EQ(Run(R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    for $a in doc("actors.xml")//a
    let $films := execute at {"xrpc://y.example.org"}
                  {f:filmsByActor(string($a))}
    return if (empty($films)) then ()
           else <hit actor="{$a}">{count($films)}</hit>)"),
            "<hit actor=\"Sean Connery\">2</hit>");
  EXPECT_EQ(last_report_.requests_sent, 1);  // one bulk with 2 calls
}

TEST_F(CoreTest, UpdatingQueryNoIsolationAppliesImmediately) {
  EXPECT_EQ(Run(R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    execute at {"xrpc://y.example.org"} {f:addFilm("Dr. No", "Sean Connery")})"),
            "");
  EXPECT_EQ(Run(R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    count(execute at {"xrpc://y.example.org"}
          {f:filmsByActor("Sean Connery")}))"),
            "3");
}

TEST_F(CoreTest, UpdatingQueryWithIsolationCommitsVia2PC) {
  EXPECT_EQ(Run(R"(
    declare option xrpc:isolation "repeatable";
    declare option xrpc:timeout "60";
    import module namespace f="films" at "http://x.example.org/film.xq";
    (execute at {"xrpc://y.example.org"} {f:addFilm("A", "X")},
     execute at {"xrpc://z.example.org"} {f:addFilm("B", "Y")}))"),
            "");
  EXPECT_TRUE(last_report_.committed) << last_report_.abort_reason;
  EXPECT_EQ(last_report_.participants.size(), 2u);
  // Both peers applied their update atomically.
  EXPECT_EQ(Run(R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    (count(execute at {"xrpc://y.example.org"} {f:filmsByActor("X")}),
     count(execute at {"xrpc://z.example.org"} {f:filmsByActor("Y")})))"),
            "1 1");
  using server::TxnLog;
  EXPECT_EQ(y_->service().txn_log().CountAppended(TxnLog::RecordType::kPrepared),
            1u);
  EXPECT_EQ(z_->service().txn_log().CountAppended(TxnLog::RecordType::kPrepared),
            1u);
  // The coordinator journaled its decision and its completion.
  EXPECT_EQ(p0_->service().txn_log().CountAppended(
                TxnLog::RecordType::kCoordCommit),
            1u);
  EXPECT_EQ(p0_->service().txn_log().CountAppended(TxnLog::RecordType::kCoordEnd),
            1u);
}

TEST_F(CoreTest, UpdatingQueryAbortsWhenPrepareFails) {
  z_->service().txn_log().FailNextAppend(
      Status::TransactionError("injected disk failure"));
  EXPECT_EQ(Run(R"(
    declare option xrpc:isolation "repeatable";
    import module namespace f="films" at "http://x.example.org/film.xq";
    (execute at {"xrpc://y.example.org"} {f:addFilm("A", "X")},
     execute at {"xrpc://z.example.org"} {f:addFilm("B", "Y")}))"),
            "");
  EXPECT_FALSE(last_report_.committed);
  EXPECT_NE(last_report_.abort_reason.find("disk failure"),
            std::string::npos);
  // Neither peer shows the update (atomic abort).
  EXPECT_EQ(Run(R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    (count(execute at {"xrpc://y.example.org"} {f:filmsByActor("X")}),
     count(execute at {"xrpc://z.example.org"} {f:filmsByActor("Y")})))"),
            "0 0");
}

TEST_F(CoreTest, RepeatableReadAcrossBulkCalls) {
  // Two call sites to the same peer under repeatable isolation: both see
  // the same snapshot even though another update commits in between...
  // within one query evaluation there is no interleaving in this test, so
  // instead verify the session machinery engages and reads are stable.
  EXPECT_EQ(Run(R"(
    declare option xrpc:isolation "repeatable";
    import module namespace f="films" at "http://x.example.org/film.xq";
    (count(execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")}),
     count(execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")})))"),
            "2 2");
  EXPECT_EQ(y_->service().isolation().active_sessions(), 1u);
}

TEST_F(CoreTest, SimpleQuerySkipsQueryId) {
  // A single non-nested XRPC call under repeatable isolation needs no
  // queryID (Section 3.2) — no session is created at the destination.
  EXPECT_EQ(Run(R"(
    declare option xrpc:isolation "repeatable";
    import module namespace f="films" at "http://x.example.org/film.xq";
    count(execute at {"xrpc://y.example.org"} {f:filmsByActor("Sean Connery")}))"),
            "2");
  EXPECT_EQ(y_->service().isolation().active_sessions(), 0u);
}

TEST_F(CoreTest, RemoteErrorBecomesRuntimeError) {
  std::string result = Run(R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    execute at {"xrpc://y.example.org"} {f:noSuchFunction("x")})");
  EXPECT_NE(result.find("ERROR"), std::string::npos);
  EXPECT_NE(result.find("SoapFault"), std::string::npos);
}

TEST_F(CoreTest, UnknownPeerIsNetworkError) {
  std::string result = Run(R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    execute at {"xrpc://nowhere.example.org"} {f:filmsByActor("X")})");
  EXPECT_NE(result.find("ERROR"), std::string::npos);
}

TEST_F(CoreTest, LocalQueryNeedsNoNetwork) {
  ASSERT_TRUE(p0_->AddDocument("filmDB.xml", kFilmDbY).ok());
  EXPECT_EQ(Run("count(doc(\"filmDB.xml\")//film)"), "3");
  EXPECT_EQ(last_report_.requests_sent, 0);
}

TEST_F(CoreTest, MalformedOrNegativeTimeoutOptionIsRejected) {
  for (const char* bad : {"-5", "soon", "9223372036855"}) {
    SCOPED_TRACE(bad);
    EXPECT_EQ(Run(std::string("declare option xrpc:isolation \"repeatable\";"
                              "declare option xrpc:timeout \"") +
                  bad + "\"; 1"),
              std::string("ERROR: InvalidArgument: malformed xrpc:timeout "
                          "option: ") +
                  bad);
  }
  EXPECT_EQ(Run("declare option xrpc:timeout \"0\"; 1"), "1");
}

TEST_F(CoreTest, NestedXrpcCallsAcrossThreePeers) {
  // p0 -> y -> z: the function at y itself performs an XRPC call to z.
  ASSERT_TRUE(y_->RegisterModule(R"(
    module namespace fwd = "forward";
    import module namespace film = "films" at "film.xq";
    declare function fwd:viaZ($actor as xs:string) as node()*
    { execute at {"xrpc://z.example.org"} {film:filmsByActor($actor)} };)")
                  .ok());
  EXPECT_EQ(Run(R"(
    import module namespace w="forward" at "http://y.example.org/fwd.xq";
    execute at {"xrpc://y.example.org"} {w:viaZ("Julie Andrews")})"),
            "<name>Sound Of Music</name>");
  EXPECT_EQ(last_report_.participants.count("xrpc://z.example.org"), 1u);
}

}  // namespace
}  // namespace xrpc::core
