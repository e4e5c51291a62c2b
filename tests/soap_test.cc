// Tests for the SOAP XRPC codec: s2n/n2s marshaling (including the
// call-by-value fragment-isolation guarantees), request/response/fault
// envelopes, Bulk RPC and the queryID isolation extension.

#include <gtest/gtest.h>

#include "soap/message.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xrpc::soap {
namespace {

using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;

// s2n then n2s through a whole response envelope, as on the wire.
StatusOr<Sequence> WireRoundTrip(const Sequence& seq) {
  XrpcResponse resp;
  resp.results.push_back(seq);
  XRPC_ASSIGN_OR_RETURN(XrpcResponse back,
                        ParseResponse(SerializeResponse(resp)));
  if (back.results.size() != 1) return Status::Internal("lost the result");
  return std::move(back.results[0]);
}

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
  XrpcResponse resp;
  resp.results.push_back(seq);
  std::string xml_text = SerializeResponse(resp);
  EXPECT_NE(xml_text.find("xsi:type=\"xs:integer\""), std::string::npos);
  EXPECT_NE(xml_text.find("xsi:type=\"xs:double\""), std::string::npos);
  EXPECT_NE(xml_text.find(">2<"), std::string::npos);
  EXPECT_NE(xml_text.find(">3.1<"), std::string::npos);
}

TEST(Marshal, RoundTripsMixedSequence) {
  Sequence seq = MixedSequence();
  auto back = WireRoundTrip(seq);
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

TEST(Marshal, DecoderValidatesDates) {
  // The lexical form crosses the wire as written, timezone included; a
  // malformed xs:date is rejected at decode time, not carried along.
  auto good = WireRoundTrip(
      {Item(AtomicValue::String("2006-01-01T12:00:00+02:00")
                .CastTo(xdm::AtomicType::kDateTime)
                .value())});
  ASSERT_TRUE(good.ok()) << good.status();
  EXPECT_EQ(good.value()[0].atomic().type(), xdm::AtomicType::kDateTime);
  EXPECT_EQ(good.value()[0].atomic().ToString(), "2006-01-01T12:00:00+02:00");
  EXPECT_FALSE(WireRoundTrip({Item(AtomicValue::Date("banana"))}).ok());
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

  auto back = WireRoundTrip(seq);
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
  auto back = WireRoundTrip(seq);
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
  auto back = WireRoundTrip(seq);
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
// Golden envelopes: the exact bytes of each message kind. Every peer that
// interoperates with this one parses these bytes, and wire_kb_per_query is
// measured on them, so an encoder change must reproduce them byte for byte.

TEST(Message, GoldenRequestEnvelope) {
  XrpcRequest req;
  req.module_ns = "films";
  req.method = "filmsByActor";
  req.location = "http://x.example.org/film.xq";
  req.arity = 1;
  req.deadline_us = 1500000;
  req.shard = XrpcRequest::ShardScope{"auctions.xml", 2, 7, 11};
  QueryId qid;
  qid.id = "q-1";
  qid.host = "xrpc://p0.example.org";
  qid.timestamp = 987654321;
  qid.timeout_sec = 42;
  req.query_id = qid;
  req.calls.push_back({Sequence{Item(AtomicValue::String("Sean Connery"))}});
  auto film = xml::ParseXml("<film year=\"1996\">The Rock</film>").value();
  req.calls.push_back(
      {Sequence{Item::NodeInTree(film->children()[0].get(), film),
                Item(AtomicValue::Integer(3))}});
  EXPECT_EQ(
      SerializeRequest(req),
      "<?xml version=\"1.0\" encoding=\"utf-8\"?>"
      "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\" "
      "xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\" "
      "xsi:schemaLocation=\"http://monetdb.cwi.nl/XQuery "
      "http://monetdb.cwi.nl/XQuery/XRPC.xsd\">"
      "<env:Header>"
      "<xrpc:deadline xmlns:xrpc=\"http://monetdb.cwi.nl/XQuery\">1500000"
      "</xrpc:deadline>"
      "<xrpc:shard xmlns:xrpc=\"http://monetdb.cwi.nl/XQuery\" "
      "collection=\"auctions.xml\" index=\"2\" catalog-version=\"7\" "
      "data-version=\"11\"/>"
      "</env:Header>"
      "<env:Body>"
      "<xrpc:request xmlns:xrpc=\"http://monetdb.cwi.nl/XQuery\" "
      "module=\"films\" method=\"filmsByActor\" arity=\"1\" "
      "location=\"http://x.example.org/film.xq\" iter-count=\"2\">"
      "<xrpc:queryID host=\"xrpc://p0.example.org\" timestamp=\"987654321\" "
      "timeout=\"42\">q-1</xrpc:queryID>"
      "<xrpc:call><xrpc:sequence>"
      "<xrpc:atomic-value xsi:type=\"xs:string\">Sean Connery"
      "</xrpc:atomic-value>"
      "</xrpc:sequence></xrpc:call>"
      "<xrpc:call><xrpc:sequence>"
      "<xrpc:element><film year=\"1996\">The Rock</film></xrpc:element>"
      "<xrpc:atomic-value xsi:type=\"xs:integer\">3</xrpc:atomic-value>"
      "</xrpc:sequence></xrpc:call>"
      "</xrpc:request>"
      "</env:Body>"
      "</env:Envelope>");
}

TEST(Message, GoldenResponseEnvelope) {
  XrpcResponse resp;
  resp.module_ns = "films";
  resp.method = "filmsByActor";
  Sequence seq;
  seq.push_back(Item(AtomicValue::Integer(-7)));
  seq.push_back(Item(AtomicValue::Double(2.5)));
  seq.push_back(Item(AtomicValue::Boolean(true)));
  seq.push_back(Item(AtomicValue::String("")));
  seq.push_back(Item(AtomicValue::String("a<b & \"c\"")));
  seq.push_back(Item(AtomicValue::Date("2007-09-23")));
  // Stored prefixes that clash with the envelope's bindings force generated
  // ns<N> prefixes; the counter runs across the whole envelope.
  seq.push_back(
      Item::Node(xml::Node::NewElement(xml::QName("urn:a", "x", "env"))));
  xml::NodePtr y = xml::Node::NewElement(xml::QName("urn:b", "y", "xsi"));
  y->SetAttribute(xml::Node::NewAttribute(xml::QName("urn:c", "k"), "v"));
  seq.push_back(Item::Node(y));
  // A default-namespace element with a no-namespace child, serialized in
  // place from inside its document.
  auto d = xml::ParseXml(
               "<d xmlns=\"urn:d\" a=\"1\"><e xmlns=\"\">t</e><f/></d>")
               .value();
  seq.push_back(Item::NodeInTree(d->children()[0].get(), d));
  seq.push_back(Item::Node(xml::Node::NewAttribute(
      xml::QName("urn:at", "lang", "at"), "en\tGB")));
  seq.push_back(Item::Node(
      xml::ParseXml("<?xml version=\"1.0\"?><doc><p>t</p><!--c--></doc>")
          .value()));
  seq.push_back(Item::Node(xml::Node::NewText("a]]>b\rc")));
  seq.push_back(Item::Node(xml::Node::NewComment(" note ")));
  seq.push_back(
      Item::Node(xml::Node::NewProcessingInstruction("tgt", "data x")));
  resp.results.push_back(seq);
  resp.results.push_back(Sequence{});
  resp.participating_peers = {"xrpc://y.example.org", "xrpc://z.example.org"};
  EXPECT_EQ(
      SerializeResponse(resp),
      "<?xml version=\"1.0\" encoding=\"utf-8\"?>"
      "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\" "
      "xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\" "
      "xsi:schemaLocation=\"http://monetdb.cwi.nl/XQuery "
      "http://monetdb.cwi.nl/XQuery/XRPC.xsd\">"
      "<env:Body>"
      "<xrpc:response xmlns:xrpc=\"http://monetdb.cwi.nl/XQuery\" "
      "module=\"films\" method=\"filmsByActor\">"
      "<xrpc:sequence>"
      "<xrpc:atomic-value xsi:type=\"xs:integer\">-7</xrpc:atomic-value>"
      "<xrpc:atomic-value xsi:type=\"xs:double\">2.5</xrpc:atomic-value>"
      "<xrpc:atomic-value xsi:type=\"xs:boolean\">true</xrpc:atomic-value>"
      "<xrpc:atomic-value xsi:type=\"xs:string\"/>"
      "<xrpc:atomic-value xsi:type=\"xs:string\">a&lt;b &amp; \"c\""
      "</xrpc:atomic-value>"
      "<xrpc:atomic-value xsi:type=\"xs:date\">2007-09-23</xrpc:atomic-value>"
      "<xrpc:element><ns1:x xmlns:ns1=\"urn:a\"/></xrpc:element>"
      "<xrpc:element><ns2:y xmlns:ns2=\"urn:b\" xmlns:ns3=\"urn:c\" "
      "ns3:k=\"v\"/></xrpc:element>"
      "<xrpc:element><d xmlns=\"urn:d\" a=\"1\"><e xmlns=\"\">t</e><f/></d>"
      "</xrpc:element>"
      "<xrpc:attribute xmlns:at=\"urn:at\" at:lang=\"en&#9;GB\"/>"
      "<xrpc:document><doc><p>t</p><!--c--></doc></xrpc:document>"
      "<xrpc:text>a]]&gt;b&#13;c</xrpc:text>"
      "<xrpc:comment> note </xrpc:comment>"
      "<xrpc:pi target=\"tgt\">data x</xrpc:pi>"
      "</xrpc:sequence>"
      "<xrpc:sequence/>"
      "<xrpc:participatingPeers>"
      "<xrpc:peer uri=\"xrpc://y.example.org\"/>"
      "<xrpc:peer uri=\"xrpc://z.example.org\"/>"
      "</xrpc:participatingPeers>"
      "</xrpc:response>"
      "</env:Body>"
      "</env:Envelope>");
}

TEST(Message, GoldenFaultEnvelope) {
  EXPECT_EQ(
      SerializeFault({"env:Receiver", "Internal: x < y & z"}),
      "<?xml version=\"1.0\" encoding=\"utf-8\"?>"
      "<env:Envelope xmlns:env=\"http://www.w3.org/2003/05/soap-envelope\" "
      "xmlns:xsi=\"http://www.w3.org/2001/XMLSchema-instance\" "
      "xsi:schemaLocation=\"http://monetdb.cwi.nl/XQuery "
      "http://monetdb.cwi.nl/XQuery/XRPC.xsd\">"
      "<env:Body>"
      "<env:Fault>"
      "<env:Code><env:Value>env:Receiver</env:Value></env:Code>"
      "<env:Reason><env:Text xml:lang=\"en\">Internal: x &lt; y &amp; z"
      "</env:Text></env:Reason>"
      "</env:Fault>"
      "</env:Body>"
      "</env:Envelope>");
}

// ---------------------------------------------------------------------------
// Decoded values: ownership and cross-tree document order

// A response whose first result holds one item of each node kind that
// carries a subtree or needs an identity: (document, element, attribute,
// text).
std::string NodeKindsResponse() {
  XrpcResponse resp;
  resp.module_ns = "m";
  resp.method = "f";
  Sequence seq;
  seq.push_back(Item::Node(xml::ParseXml("<d><x/></d>").value()));
  seq.push_back(Item::Node(xml::ParseXml("<e a=\"1\"><c/></e>")
                               .value()
                               ->children()[0]));
  seq.push_back(
      Item::Node(xml::Node::NewAttribute(xml::QName("urn:n", "k", "n"), "v")));
  seq.push_back(Item::Node(xml::Node::NewText("t")));
  resp.results.push_back(seq);
  return SerializeResponse(resp);
}

TEST(Message, DecodedItemsAreDetachedRootsInSequenceOrder) {
  std::string wire = NodeKindsResponse();
  xml::NodePtr before = xml::Node::NewElement(xml::QName("before"));
  auto back = ParseResponse(wire);
  ASSERT_TRUE(back.ok()) << back.status();
  ASSERT_EQ(back->results.size(), 1u);
  const Sequence& out = back->results[0];
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].node()->kind(), xml::NodeKind::kDocument);
  EXPECT_EQ(out[1].node()->kind(), xml::NodeKind::kElement);
  EXPECT_EQ(out[2].node()->kind(), xml::NodeKind::kAttribute);
  EXPECT_EQ(out[3].node()->kind(), xml::NodeKind::kText);
  for (const Item& item : out) {
    EXPECT_EQ(item.node()->parent(), nullptr);
    EXPECT_EQ(item.anchor().get(), item.node());
    // Every decoded item sorts after a node created before the decode.
    EXPECT_GT(xml::CompareDocumentOrder(item.node(), before.get()), 0);
  }
  for (size_t i = 0; i + 1 < out.size(); ++i) {
    EXPECT_LT(xml::CompareDocumentOrder(out[i].node(), out[i + 1].node()), 0)
        << "items " << i << " and " << i + 1;
  }
  // Inside one decoded tree, document order is the tree's own.
  const xml::Node* e = out[1].node();
  EXPECT_LT(xml::CompareDocumentOrder(e, e->attributes()[0].get()), 0);
  EXPECT_LT(xml::CompareDocumentOrder(e->attributes()[0].get(),
                                      e->children()[0].get()),
            0);
}

TEST(Message, DecodedTreesAreIndependentAndOutliveTheEnvelope) {
  Sequence out;
  {
    auto back = ParseResponse(NodeKindsResponse());
    ASSERT_TRUE(back.ok()) << back.status();
    out = std::move(back->results[0]);
  }  // the parsed envelope and the response are gone
  ASSERT_EQ(out.size(), 4u);
  std::vector<uint64_t> stamps;
  for (const Item& item : out) {
    stamps.push_back(item.node()->mutation_stamp());
  }
  // Mutate the element's tree only.
  xml::Node* e = out[1].node();
  e->AppendChild(xml::Node::NewElement(xml::QName("added")));
  EXPECT_GT(e->mutation_stamp(), stamps[1]);
  for (size_t i : {0u, 2u, 3u}) {
    EXPECT_EQ(out[i].node()->mutation_stamp(), stamps[i]) << "item " << i;
  }
  EXPECT_EQ(xml::SerializeNode(*out[0].node()), "<d><x/></d>");
  EXPECT_EQ(xml::SerializeNode(*e), "<e a=\"1\"><c/><added/></e>");
  EXPECT_EQ(out[2].node()->name(), xml::QName("urn:n", "k"));
  EXPECT_EQ(out[2].node()->value(), "v");
  EXPECT_EQ(out[3].node()->value(), "t");
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

// A queryID timeout must be non-negative seconds whose micros fit an
// int64: the peer adds it to its clock to expire the query's snapshot.
TEST(Message, MalformedQueryIdTimeoutIsASenderFault) {
  XrpcRequest req = MinimalRequest();
  QueryId qid;
  qid.id = "q-1";
  qid.timeout_sec = 42;
  req.query_id = qid;
  const std::string text = SerializeRequest(req);
  const std::string field = "timeout=\"42\"";
  const size_t pos = text.find(field);
  ASSERT_NE(pos, std::string::npos);
  for (const char* bad : {"-1", "soon", "", "9223372036855",
                          "99999999999999999999"}) {
    SCOPED_TRACE(bad);
    std::string garbled = text;
    garbled.replace(pos, field.size(), std::string("timeout=\"") + bad + "\"");
    auto back = ParseRequest(garbled);
    ASSERT_FALSE(back.ok());
    EXPECT_EQ(back.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(back.status().message(),
              std::string("SOAP: malformed xrpc:queryID timeout: \"") + bad +
                  "\" (expected non-negative seconds)");
    EXPECT_EQ(FaultFromStatus(back.status()).code, "env:Sender");
  }
  // The largest timeout whose micros fit an int64 still decodes.
  std::string edge = text;
  edge.replace(pos, field.size(), "timeout=\"9223372036854\"");
  auto back = ParseRequest(edge);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back->query_id->timeout_sec, 9223372036854);
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
  auto back = WireRoundTrip(Sequence{Item(value)});
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
