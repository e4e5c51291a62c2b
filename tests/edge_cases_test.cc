// Assorted edge-case and failure-injection coverage across modules:
// protocol robustness, marshaling corner cases, isolation misuse, engine
// fallback behavior, and network failures surfacing as query errors.

#include <gtest/gtest.h>

#include "core/peer_network.h"
#include "soap/message.h"
#include "tests/test_util.h"
#include "wrapper/wrapper_engine.h"
#include "xmark/xmark.h"
#include "xml/serializer.h"

namespace xrpc {
namespace {

using ::xrpc::testing::EvalToString;
using ::xrpc::testing::MapDocumentProvider;

// ---- SOAP / marshaling corner cases ----

// One result sequence through a whole response envelope, as on the wire.
StatusOr<xdm::Sequence> WireRoundTrip(const xdm::Sequence& seq,
                                      std::string* wire = nullptr) {
  soap::XrpcResponse resp;
  resp.results.push_back(seq);
  std::string text = soap::SerializeResponse(resp);
  if (wire != nullptr) *wire = text;
  XRPC_ASSIGN_OR_RETURN(soap::XrpcResponse back, soap::ParseResponse(text));
  if (back.results.size() != 1) return Status::Internal("lost the result");
  return std::move(back.results[0]);
}

TEST(EdgeCases, EmptySequenceMarshalsToEmptyElement) {
  std::string wire;
  auto back = WireRoundTrip({}, &wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_NE(wire.find("<xrpc:sequence/>"), std::string::npos);
  EXPECT_TRUE(back->empty());
}

TEST(EdgeCases, WhitespaceOnlyStringSurvivesTheWire) {
  xdm::Sequence seq{xdm::Item(xdm::AtomicValue::String("  a  b  "))};
  auto back = WireRoundTrip(seq);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value()[0].atomic().ToString(), "  a  b  ");
}

TEST(EdgeCases, DeeplyNestedElementParameter) {
  std::string xml_text = "<a>";
  for (int i = 0; i < 60; ++i) xml_text += "<n>";
  xml_text += "x";
  for (int i = 0; i < 60; ++i) xml_text += "</n>";
  xml_text += "</a>";
  auto doc = xml::ParseXml(xml_text);
  ASSERT_TRUE(doc.ok());
  xdm::Sequence seq{xdm::Item::Node(doc.value()->children()[0])};
  auto back = WireRoundTrip(seq);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value()[0].node()->StringValue(), "x");
}

TEST(EdgeCases, RequestWithZeroArityFunction) {
  soap::XrpcRequest req;
  req.module_ns = "m";
  req.method = "f";
  req.arity = 0;
  req.calls.push_back({});
  req.calls.push_back({});
  auto back = soap::ParseRequest(soap::SerializeRequest(req));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->calls.size(), 2u);
  EXPECT_TRUE(back->calls[0].empty());
}

// ---- interpreter edge cases ----

TEST(EdgeCases, ZeroLengthRangesAndReversedRanges) {
  EXPECT_EQ(EvalToString("count(5 to 4)"), "0");
  EXPECT_EQ(EvalToString("count(5 to 5)"), "1");
  EXPECT_EQ(EvalToString("count(() to 5)"), "0");
}

TEST(EdgeCases, NestedFlworScoping) {
  // Inner $x shadows outer $x; outer binding visible again afterwards.
  EXPECT_EQ(EvalToString(
                "for $x in (1,2) return (for $x in (10) return $x, $x)"),
            "10 1 10 2");
}

TEST(EdgeCases, PredicateOnEmptyStep) {
  MapDocumentProvider docs;
  docs.AddDocument("d.xml", "<r/>");
  EXPECT_EQ(EvalToString("count(doc(\"d.xml\")//nothing[@x=\"1\"])", &docs),
            "0");
}

TEST(EdgeCases, AttributeValueWithQuotesAndAmps) {
  // A bare '&' in an XQuery string literal is illegal...
  EXPECT_NE(EvalToString(R"(<a v="{concat('x & y', '!')}"/>)").find("ERROR"),
            std::string::npos);
  // ...the escaped form round-trips with attribute escaping on output.
  EXPECT_EQ(EvalToString(R"(<a v="{concat('x &amp; ', '"', 'y')}"/>)"),
            "<a v=\"x &amp; &quot;y\"/>");
}

TEST(EdgeCases, StringFunctionsOnEmpty) {
  EXPECT_EQ(EvalToString("concat((), \"a\")"), "a");
  EXPECT_EQ(EvalToString("string-join((), \",\")"), "");
  EXPECT_EQ(EvalToString("substring(\"abc\", 0)"), "abc");
  EXPECT_EQ(EvalToString("substring(\"abc\", 5)"), "");
}

TEST(EdgeCases, ComparisonTypeErrors) {
  EXPECT_NE(EvalToString("1 eq \"1\"").find("ERROR"), std::string::npos);
  EXPECT_EQ(EvalToString("1 = 1.0"), "true");
  EXPECT_EQ(EvalToString("\"10\" < \"9\""), "true");  // string compare
  EXPECT_EQ(EvalToString("10 < 9"), "false");
}

TEST(EdgeCases, JoinIndexHandlesDuplicateKeys) {
  // >16 candidates with duplicate key values: the join index path must
  // return every match, in document order.
  std::string doc_text = "<r>";
  for (int i = 0; i < 30; ++i) {
    doc_text += "<p k=\"" + std::string(i % 3 == 0 ? "hit" : "miss") +
                "\"><v>" + std::to_string(i) + "</v></p>";
  }
  doc_text += "</r>";
  MapDocumentProvider docs;
  docs.AddDocument("d.xml", doc_text);
  EXPECT_EQ(EvalToString(R"(
      let $k := "hit"
      return count(doc("d.xml")//p[@k = $k]))",
                         &docs),
            "10");
  // Same via a function called repeatedly (the bulk pattern).
  EXPECT_EQ(EvalToString(R"(
      declare function local:find($k as xs:string) as node()*
      { doc("d.xml")//p[@k = $k] };
      (count(local:find("hit")), count(local:find("miss")),
       count(local:find("hit")), count(local:find("none"))))",
                         &docs),
            "10 20 10 0");
}

// ---- end-to-end failure injection ----

class EdgeNetworkTest : public ::testing::Test {
 protected:
  EdgeNetworkTest() {
    net_.AddPeer("p0");
    y_ = net_.AddPeer("y");
    (void)y_->AddDocument("filmDB.xml", xmark::GenerateFilmDb());
    (void)y_->RegisterModule(xmark::FilmModuleSource(), "film.xq");
  }

  core::PeerNetwork net_;
  core::Peer* y_;
};

TEST_F(EdgeNetworkTest, TransportFailureSurfacesAsQueryError) {
  net_.network().FailNextPost(Status::NetworkError("cable cut"));
  auto report = net_.Execute("p0", R"(
      import module namespace f="films" at "film.xq";
      execute at {"xrpc://y"} {f:filmsByActor("Sean Connery")})");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kNetworkError);
}

TEST_F(EdgeNetworkTest, PeerDisconnectMidQuery) {
  net_.network().DisconnectPeer(net::ParseXrpcUri("xrpc://y").value());
  auto report = net_.Execute("p0", R"(
      import module namespace f="films" at "film.xq";
      execute at {"xrpc://y"} {f:filmsByActor("Sean Connery")})");
  EXPECT_FALSE(report.ok());
}

TEST_F(EdgeNetworkTest, RemoteEvalErrorArrivesAsFault) {
  ASSERT_TRUE(y_->RegisterModule(R"(
      module namespace bad = "bad";
      declare function bad:boom() { fn:error("deliberate failure") };)")
                  .ok());
  auto report = net_.Execute("p0", R"(
      import module namespace b="bad" at "bad.xq";
      execute at {"xrpc://y"} {b:boom()})");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kSoapFault);
  EXPECT_NE(report.status().message().find("deliberate failure"),
            std::string::npos);
}

TEST_F(EdgeNetworkTest, MalformedQueryRejectedBeforeAnyRpc) {
  auto report = net_.Execute("p0", "for $x in");
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kParseError);
  EXPECT_EQ(net_.network().messages_sent(), 0);
}

TEST_F(EdgeNetworkTest, UnknownIsolationOptionRejected) {
  auto report = net_.Execute("p0", R"(
      declare option xrpc:isolation "serializable-ish";
      1 + 1)");
  EXPECT_FALSE(report.ok());
}

TEST_F(EdgeNetworkTest, WrapperHandlesItemStarSignatures) {
  // tst:echo has an item()* parameter and return: the wrapper's generated
  // marshaling must dispatch on the wire representation at runtime.
  core::Peer* w = net_.AddPeer("w", core::EngineKind::kWrapper);
  ASSERT_TRUE(w->RegisterModule(xmark::TestModuleSource(), "test.xq").ok());
  auto report = net_.Execute("p0", R"(
      import module namespace t="test" at "test.xq";
      execute at {"xrpc://w"} {t:echo((1, "two", 3.5, true()))})");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(xdm::SequenceToString(report->result), "1 two 3.5 true");
  // Types survive the double marshal (request + wrapper response).
  ASSERT_EQ(report->result.size(), 4u);
  EXPECT_EQ(report->result[0].atomic().type(), xdm::AtomicType::kInteger);
  EXPECT_EQ(report->result[3].atomic().type(), xdm::AtomicType::kBoolean);
}

TEST_F(EdgeNetworkTest, MixedEnginePeersAgree) {
  // The same remote function executed by every engine kind must agree,
  // also when the call violates the declared parameter type.
  std::vector<std::pair<const char*, core::EngineKind>> kinds = {
      {"e1", core::EngineKind::kRelational},
      {"e2", core::EngineKind::kRelationalNoCache},
      {"e3", core::EngineKind::kInterpreter},
      {"e4", core::EngineKind::kInterpreterNoCache},
      {"e5", core::EngineKind::kWrapper},
  };
  std::string expected;
  for (auto& [name, kind] : kinds) {
    core::Peer* p = net_.AddPeer(name, kind);
    ASSERT_TRUE(p->AddDocument("filmDB.xml", xmark::GenerateFilmDb()).ok());
    ASSERT_TRUE(p->RegisterModule(xmark::FilmModuleSource(), "film.xq").ok());
    ASSERT_TRUE(p->AddDocument("auctions.xml",
                               "<site><closed_auctions><closed_auction>"
                               "<buyer person=\"person1\"/></closed_auction>"
                               "</closed_auctions></site>")
                    .ok());
    ASSERT_TRUE(p->RegisterModule(xmark::FunctionsBModuleSource("xrpc://p0"),
                                  "b.xq")
                    .ok());
    // Two strings for `$pid as xs:string`: a fault on every engine, where
    // the body alone would select person1's auction.
    auto bad = net_.Execute("p0", std::string(R"(
        import module namespace b="functions_b" at "b.xq";
        execute at {"xrpc://)") + name +
                                       R"("} {b:Q_B3(("person1","person2"))})");
    ASSERT_FALSE(bad.ok()) << name << " answered "
                           << xdm::SequenceToString(bad->result);
    EXPECT_EQ(bad.status().code(), StatusCode::kSoapFault) << name;
    auto report = net_.Execute("p0", std::string(R"(
        import module namespace f="films" at "film.xq";
        execute at {"xrpc://)") + name +
                                          R"("} {f:filmsByActor("Sean Connery")})");
    ASSERT_TRUE(report.ok()) << name << ": " << report.status();
    std::string got = xdm::SequenceToString(report->result);
    if (expected.empty()) {
      expected = got;
      EXPECT_NE(got.find("The Rock"), std::string::npos);
    } else {
      EXPECT_EQ(got, expected) << "engine " << name;
    }
  }
}

}  // namespace
}  // namespace xrpc
