// Tests for the SOAP XRPC codec: s2n/n2s marshaling (including the
// call-by-value fragment-isolation guarantees), request/response/fault
// envelopes, Bulk RPC and the queryID isolation extension.

#include <gtest/gtest.h>

#include "soap/marshal.h"
#include "soap/message.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xrpc::soap {
namespace {

using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;

Sequence MixedSequence() {
  Sequence seq;
  seq.push_back(Item(AtomicValue::Integer(2)));
  seq.push_back(Item(AtomicValue::Double(3.1)));
  seq.push_back(Item(AtomicValue::String("Sean Connery")));
  seq.push_back(Item(AtomicValue::Boolean(true)));
  auto elem = xml::ParseXmlFragment("<name pos=\"1\">The Rock</name>");
  seq.push_back(Item::Node(elem.value()->children()[0]));
  return seq;
}

TEST(Marshal, AtomicValuesCarryXsiType) {
  Sequence seq{Item(AtomicValue::Integer(2)), Item(AtomicValue::Double(3.1))};
  std::string xml_text = xml::SerializeNode(*SequenceToNode(seq));
  EXPECT_NE(xml_text.find("xsi:type=\"xs:integer\""), std::string::npos);
  EXPECT_NE(xml_text.find("xsi:type=\"xs:double\""), std::string::npos);
  EXPECT_NE(xml_text.find(">2<"), std::string::npos);
  EXPECT_NE(xml_text.find(">3.1<"), std::string::npos);
}

TEST(Marshal, RoundTripsMixedSequence) {
  Sequence seq = MixedSequence();
  xml::NodePtr node = SequenceToNode(seq);
  // Simulate the wire: serialize and reparse.
  std::string text = xml::SerializeNode(*node);
  auto reparsed = xml::ParseXml(text);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  auto back = NodeToSequence(*reparsed.value()->children()[0]);
  ASSERT_TRUE(back.ok()) << back.status();
  const Sequence& out = back.value();
  ASSERT_EQ(out.size(), seq.size());
  EXPECT_EQ(out[0].atomic().AsInteger(), 2);
  EXPECT_EQ(out[0].atomic().type(), xdm::AtomicType::kInteger);
  EXPECT_DOUBLE_EQ(out[1].atomic().AsDouble(), 3.1);
  EXPECT_EQ(out[2].atomic().ToString(), "Sean Connery");
  EXPECT_TRUE(out[3].atomic().AsBoolean());
  ASSERT_TRUE(out[4].IsNode());
  EXPECT_EQ(xml::SerializeNode(*out[4].node()),
            "<name pos=\"1\">The Rock</name>");
}

TEST(Marshal, AllNodeKindsRoundTrip) {
  Sequence seq;
  auto doc = xml::ParseXml("<d><x/></d>");
  seq.push_back(Item::Node(doc.value()));  // document
  seq.push_back(Item::Node(xml::Node::NewAttribute(xml::QName("x"), "y")));
  seq.push_back(Item::Node(xml::Node::NewText("some text")));
  seq.push_back(Item::Node(xml::Node::NewComment("a comment")));
  seq.push_back(
      Item::Node(xml::Node::NewProcessingInstruction("tgt", "data")));

  auto back = NodeToSequence(*SequenceToNode(seq));
  ASSERT_TRUE(back.ok()) << back.status();
  const Sequence& out = back.value();
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].node()->kind(), xml::NodeKind::kDocument);
  EXPECT_EQ(xml::SerializeNode(*out[0].node()), "<d><x/></d>");
  EXPECT_EQ(out[1].node()->kind(), xml::NodeKind::kAttribute);
  EXPECT_EQ(out[1].node()->value(), "y");
  EXPECT_EQ(out[2].node()->kind(), xml::NodeKind::kText);
  EXPECT_EQ(out[2].node()->value(), "some text");
  EXPECT_EQ(out[3].node()->kind(), xml::NodeKind::kComment);
  EXPECT_EQ(out[4].node()->kind(),
            xml::NodeKind::kProcessingInstruction);
  EXPECT_EQ(out[4].node()->name().local, "tgt");
}

TEST(Marshal, CallByValueIsolatesFragments) {
  // Nodes coming out of n2s() must be fresh fragments: upward navigation
  // ends at the value itself — the SOAP envelope is unreachable.
  auto doc = xml::ParseXml("<parent><child>v</child></parent>");
  xml::Node* child = doc.value()->children()[0]->children()[0].get();
  Sequence seq{Item::NodeInTree(child, doc.value())};
  auto back = NodeToSequence(*SequenceToNode(seq));
  ASSERT_TRUE(back.ok());
  const xml::Node* unmarshaled = back.value()[0].node();
  EXPECT_EQ(unmarshaled->name().local, "child");
  EXPECT_EQ(unmarshaled->parent(), nullptr);       // no upward navigation
  EXPECT_NE(unmarshaled, child);                   // fresh identity
}

TEST(Marshal, AncestorRelationshipBetweenParamsIsDestroyed) {
  // Passing both an element and its descendant: the remote side sees two
  // unrelated fragments (Section 2.2, call-by-value discussion).
  auto doc = xml::ParseXml("<a><b/></a>");
  xml::Node* a = doc.value()->children()[0].get();
  xml::Node* b = a->children()[0].get();
  Sequence seq{Item::NodeInTree(a, doc.value()),
               Item::NodeInTree(b, doc.value())};
  auto back = NodeToSequence(*SequenceToNode(seq));
  ASSERT_TRUE(back.ok());
  EXPECT_FALSE(
      xml::IsAncestorOf(back.value()[0].node(), back.value()[1].node()));
}

TEST(Message, RequestMatchesPaperExample) {
  // The Q1 request message of Section 2.1.
  XrpcRequest req;
  req.module_ns = "films";
  req.method = "filmsByActor";
  req.location = "http://x.example.org/film.xq";
  req.arity = 1;
  req.calls.push_back({Sequence{Item(AtomicValue::String("Sean Connery"))}});
  std::string text = SerializeRequest(req);
  EXPECT_NE(text.find("<?xml version=\"1.0\" encoding=\"utf-8\"?>"),
            std::string::npos);
  EXPECT_NE(text.find("module=\"films\""), std::string::npos);
  EXPECT_NE(text.find("method=\"filmsByActor\""), std::string::npos);
  EXPECT_NE(text.find("arity=\"1\""), std::string::npos);
  EXPECT_NE(text.find("location=\"http://x.example.org/film.xq\""),
            std::string::npos);
  EXPECT_NE(text.find("Sean Connery"), std::string::npos);
  EXPECT_NE(text.find("http://www.w3.org/2003/05/soap-envelope"),
            std::string::npos);
  EXPECT_NE(text.find("http://monetdb.cwi.nl/XQuery/XRPC.xsd"),
            std::string::npos);

  auto back = ParseRequest(text);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->module_ns, "films");
  EXPECT_EQ(back->method, "filmsByActor");
  EXPECT_EQ(back->arity, 1u);
  ASSERT_EQ(back->calls.size(), 1u);
  ASSERT_EQ(back->calls[0].size(), 1u);
  EXPECT_EQ(back->calls[0][0][0].atomic().ToString(), "Sean Connery");
  EXPECT_FALSE(back->updating);
  EXPECT_FALSE(back->query_id.has_value());
}

TEST(Message, BulkRequestCarriesMultipleCalls) {
  // The Bulk RPC example of Section 3.2 (two calls, one per actor).
  XrpcRequest req;
  req.module_ns = "films";
  req.method = "filmsByActor";
  req.arity = 1;
  req.calls.push_back({Sequence{Item(AtomicValue::String("Julie Andrews"))}});
  req.calls.push_back({Sequence{Item(AtomicValue::String("Sean Connery"))}});
  auto back = ParseRequest(SerializeRequest(req));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->calls.size(), 2u);
  EXPECT_EQ(back->calls[0][0][0].atomic().ToString(), "Julie Andrews");
  EXPECT_EQ(back->calls[1][0][0].atomic().ToString(), "Sean Connery");
}

TEST(Message, QueryIdRoundTrips) {
  XrpcRequest req;
  req.module_ns = "m";
  req.method = "f";
  req.arity = 0;
  req.calls.push_back({});
  QueryId qid;
  qid.id = "q-1234";
  qid.host = "xrpc://p0.example.org";
  qid.timestamp = 987654321;
  qid.timeout_sec = 42;
  req.query_id = qid;
  auto back = ParseRequest(SerializeRequest(req));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_TRUE(back->query_id.has_value());
  EXPECT_EQ(back->query_id->id, "q-1234");
  EXPECT_EQ(back->query_id->host, "xrpc://p0.example.org");
  EXPECT_EQ(back->query_id->timestamp, 987654321);
  EXPECT_EQ(back->query_id->timeout_sec, 42);
}

TEST(Message, UpdatingFlagRoundTrips) {
  XrpcRequest req;
  req.module_ns = "m";
  req.method = "f";
  req.arity = 0;
  req.updating = true;
  req.calls.push_back({});
  auto back = ParseRequest(SerializeRequest(req));
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->updating);
}

TEST(Message, ArityMismatchRejected) {
  XrpcRequest req;
  req.module_ns = "m";
  req.method = "f";
  req.arity = 2;  // but the call has only one parameter
  req.calls.push_back({Sequence{Item(AtomicValue::Integer(1))}});
  auto back = ParseRequest(SerializeRequest(req));
  EXPECT_FALSE(back.ok());
}

TEST(Message, ResponseRoundTripsWithPeers) {
  XrpcResponse resp;
  resp.module_ns = "films";
  resp.method = "filmsByActor";
  resp.results.push_back(Sequence{Item(AtomicValue::Integer(7))});
  resp.results.push_back(Sequence{});
  resp.participating_peers = {"xrpc://y.example.org", "xrpc://z.example.org"};
  auto back = ParseResponse(SerializeResponse(resp));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->results.size(), 2u);
  EXPECT_EQ(back->results[0][0].atomic().AsInteger(), 7);
  EXPECT_TRUE(back->results[1].empty());
  ASSERT_EQ(back->participating_peers.size(), 2u);
  EXPECT_EQ(back->participating_peers[0], "xrpc://y.example.org");
}

TEST(Message, FaultBecomesSoapFaultStatus) {
  Fault fault;
  fault.code = "env:Sender";
  fault.reason = "could not load module!";
  std::string text = SerializeFault(fault);
  EXPECT_NE(text.find("env:Fault"), std::string::npos);
  EXPECT_NE(text.find("could not load module!"), std::string::npos);
  auto back = ParseResponse(text);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kSoapFault);
  EXPECT_NE(back.status().message().find("could not load module!"),
            std::string::npos);
}

TEST(Message, FaultFromStatusClassifiesSenderVsReceiver) {
  EXPECT_EQ(FaultFromStatus(Status::NotFound("x")).code, "env:Sender");
  EXPECT_EQ(FaultFromStatus(Status::ParseError("x")).code, "env:Sender");
  EXPECT_EQ(FaultFromStatus(Status::Internal("x")).code, "env:Receiver");
  EXPECT_EQ(FaultFromStatus(Status::EvalError("x")).code, "env:Receiver");
}

TEST(Message, GarbageIsRejected) {
  EXPECT_FALSE(ParseRequest("not xml").ok());
  EXPECT_FALSE(ParseRequest("<a/>").ok());
  EXPECT_FALSE(ParseResponse("<a/>").ok());
}

// ---------------------------------------------------------------------------
// xrpc:deadline header (end-to-end budget propagation)

namespace {
XrpcRequest MinimalRequest() {
  XrpcRequest req;
  req.module_ns = "m";
  req.method = "f";
  req.arity = 0;
  req.calls.push_back({});
  return req;
}
}  // namespace

TEST(Message, DeadlineHeaderRoundTrips) {
  XrpcRequest req = MinimalRequest();
  req.deadline_us = 1'500'000;
  std::string text = SerializeRequest(req);
  EXPECT_NE(text.find("Header"), std::string::npos);
  EXPECT_NE(text.find(">1500000<"), std::string::npos);
  auto back = ParseRequest(text);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_TRUE(back->deadline_us.has_value());
  EXPECT_EQ(*back->deadline_us, 1'500'000);
}

TEST(Message, HeaderFreeRequestHasNoDeadlineAndNoHeaderElement) {
  // Absent header => exactly today's wire format and today's semantics.
  std::string text = SerializeRequest(MinimalRequest());
  EXPECT_EQ(text.find("Header"), std::string::npos);
  auto back = ParseRequest(text);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_FALSE(back->deadline_us.has_value());
}

TEST(Message, ZeroDeadlineIsValidOnTheWire) {
  // An exhausted-but-present budget parses fine; rejecting it is the
  // server handler's job (admission control), not the codec's.
  XrpcRequest req = MinimalRequest();
  req.deadline_us = 0;
  auto back = ParseRequest(SerializeRequest(req));
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_TRUE(back->deadline_us.has_value());
  EXPECT_EQ(*back->deadline_us, 0);
}

TEST(Message, MalformedDeadlineHeaderRejected) {
  XrpcRequest req = MinimalRequest();
  req.deadline_us = 777;
  std::string text = SerializeRequest(req);
  const size_t pos = text.find(">777<");
  ASSERT_NE(pos, std::string::npos);
  std::string garbled = text;
  garbled.replace(pos, 5, ">soon<");
  auto back = ParseRequest(garbled);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(back.status().message().find("xrpc:deadline"), std::string::npos);
}

TEST(Message, NegativeDeadlineHeaderRejected) {
  XrpcRequest req = MinimalRequest();
  req.deadline_us = 777;
  std::string text = SerializeRequest(req);
  const size_t pos = text.find(">777<");
  ASSERT_NE(pos, std::string::npos);
  std::string garbled = text;
  garbled.replace(pos, 5, ">-50<");
  auto back = ParseRequest(garbled);
  ASSERT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
}

TEST(Message, UnknownHeaderChildrenIgnored) {
  // mustUnderstand-free extensibility: a newer client's extra header
  // entries must not break this peer.
  XrpcRequest req = MinimalRequest();
  req.deadline_us = 42;
  std::string text = SerializeRequest(req);
  const size_t pos = text.find("<xrpc:deadline");
  ASSERT_NE(pos, std::string::npos);
  std::string extended = text;
  extended.insert(pos,
                  "<x:futureExtension xmlns:x=\"urn:example:ext\">opaque"
                  "</x:futureExtension>");
  auto back = ParseRequest(extended);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_TRUE(back->deadline_us.has_value());
  EXPECT_EQ(*back->deadline_us, 42);
}

TEST(Message, DeadlineAndCancelledStatusesSurviveFaultRoundTrip) {
  // A downstream hop's DeadlineExceeded must arrive typed at the caller —
  // not as a generic SoapFault — so it is never retried and feeds the
  // deadline metrics.
  {
    Fault f = FaultFromStatus(Status::DeadlineExceeded("budget gone"));
    Status back = StatusFromFault(f);
    EXPECT_EQ(back.code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(back.message().find("budget gone"), std::string::npos);
  }
  {
    Fault f = FaultFromStatus(Status::Cancelled("killed by admin"));
    Status back = StatusFromFault(f);
    EXPECT_EQ(back.code(), StatusCode::kCancelled);
    EXPECT_NE(back.message().find("killed by admin"), std::string::npos);
  }
  // Ordinary faults still map to kSoapFault.
  Status generic = StatusFromFault(FaultFromStatus(Status::EvalError("boom")));
  EXPECT_EQ(generic.code(), StatusCode::kSoapFault);
}

// Property sweep: atomic values of every type survive the wire.
struct WireCase {
  AtomicValue value;
};

// ctest names each case after its printed parameter. gtest's fallback print
// of an AtomicValue dumps its raw bytes, heap addresses included, so the
// names changed from build to build; print the type and value instead.
void PrintTo(const WireCase& c, std::ostream* os) {
  *os << xdm::AtomicTypeName(c.value.type()) << "(" << c.value.ToString()
      << ")";
}

class AtomicWireRoundTrip : public ::testing::TestWithParam<WireCase> {};

TEST_P(AtomicWireRoundTrip, SurvivesSerializeParse) {
  const AtomicValue& value = GetParam().value;
  Sequence seq{Item(value)};
  std::string wire = xml::SerializeNode(*SequenceToNode(seq));
  auto reparsed = xml::ParseXml(wire);
  ASSERT_TRUE(reparsed.ok());
  auto back = NodeToSequence(*reparsed.value()->children()[0]);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ(back.value()[0].atomic().type(), value.type());
  EXPECT_EQ(back.value()[0].atomic().ToString(), value.ToString());
}

INSTANTIATE_TEST_SUITE_P(
    Values, AtomicWireRoundTrip,
    ::testing::ValuesIn(std::vector<WireCase>{
        {AtomicValue::Integer(0)}, {AtomicValue::Integer(-123456)},
        {AtomicValue::Double(2.5e-3)}, {AtomicValue::Boolean(false)},
        {AtomicValue::String("with <markup> & \"quotes\"")},
        {AtomicValue::String("")}, {AtomicValue::Untyped("u")},
        {AtomicValue::Decimal(1.25)}, {AtomicValue::Date("2007-09-23")},
        {AtomicValue::AnyUri("xrpc://y.example.org")}}));

}  // namespace
}  // namespace xrpc::soap
