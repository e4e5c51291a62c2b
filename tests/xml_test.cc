// Unit tests for the XML substrate: parser, serializer, node tree,
// document order and identity.

#include <gtest/gtest.h>

#include <string>

#include "xml/node.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xrpc::xml {
namespace {

TEST(XmlParser, ParsesSimpleDocument) {
  auto doc = ParseXml("<films><film>The Rock</film></films>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node& root = *doc.value();
  ASSERT_EQ(root.kind(), NodeKind::kDocument);
  ASSERT_EQ(root.children().size(), 1u);
  const Node& films = *root.children()[0];
  EXPECT_EQ(films.name().local, "films");
  ASSERT_EQ(films.children().size(), 1u);
  EXPECT_EQ(films.children()[0]->StringValue(), "The Rock");
}

TEST(XmlParser, ParsesAttributes) {
  auto doc = ParseXml(R"(<person id="p42" name="Alice &amp; Bob"/>)");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node& person = *doc.value()->children()[0];
  ASSERT_EQ(person.attributes().size(), 2u);
  const Node* id = person.FindAttribute(QName("id"));
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->value(), "p42");
  const Node* name = person.FindAttribute(QName("name"));
  ASSERT_NE(name, nullptr);
  EXPECT_EQ(name->value(), "Alice & Bob");
}

TEST(XmlParser, RejectsDuplicateAttributes) {
  auto doc = ParseXml(R"(<a x="1" x="2"/>)");
  EXPECT_FALSE(doc.ok());
}

TEST(XmlParser, ParsesEntitiesAndCharRefs) {
  auto doc = ParseXml("<t>&lt;&gt;&amp;&quot;&apos;&#65;&#x42;</t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc.value()->StringValue(), "<>&\"'AB");
}

TEST(XmlParser, ParsesCdata) {
  auto doc = ParseXml("<t><![CDATA[a <b> & c]]></t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc.value()->StringValue(), "a <b> & c");
}

TEST(XmlParser, ParsesCommentsAndPis) {
  auto doc = ParseXml("<t><!-- note --><?target data?></t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node& t = *doc.value()->children()[0];
  ASSERT_EQ(t.children().size(), 2u);
  EXPECT_EQ(t.children()[0]->kind(), NodeKind::kComment);
  EXPECT_EQ(t.children()[0]->value(), " note ");
  EXPECT_EQ(t.children()[1]->kind(), NodeKind::kProcessingInstruction);
  EXPECT_EQ(t.children()[1]->name().local, "target");
  EXPECT_EQ(t.children()[1]->value(), "data");
}

TEST(XmlParser, ResolvesNamespaces) {
  auto doc = ParseXml(
      R"(<env:Envelope xmlns:env="http://www.w3.org/2003/05/soap-envelope">)"
      R"(<env:Body/></env:Envelope>)");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node& env = *doc.value()->children()[0];
  EXPECT_EQ(env.name().ns_uri, kSoapEnvelopeNs);
  EXPECT_EQ(env.name().local, "Envelope");
  EXPECT_EQ(env.children()[0]->name().ns_uri, kSoapEnvelopeNs);
}

TEST(XmlParser, DefaultNamespaceAppliesToElementsNotAttributes) {
  auto doc = ParseXml(R"(<a xmlns="urn:x" b="1"><c/></a>)");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node& a = *doc.value()->children()[0];
  EXPECT_EQ(a.name().ns_uri, "urn:x");
  EXPECT_EQ(a.attributes()[0]->name().ns_uri, "");
  EXPECT_EQ(a.children()[0]->name().ns_uri, "urn:x");
}

TEST(XmlParser, UndeclaredPrefixIsAnError) {
  EXPECT_FALSE(ParseXml("<foo:a/>").ok());
}

TEST(XmlParser, MismatchedTagsAreAnError) {
  EXPECT_FALSE(ParseXml("<a><b></a></b>").ok());
  EXPECT_FALSE(ParseXml("<a>").ok());
}

TEST(XmlParser, SkipsPrologAndDoctype) {
  auto doc = ParseXml(
      "<?xml version=\"1.0\" encoding=\"utf-8\"?>\n"
      "<!DOCTYPE note [ <!ENTITY x \"y\"> ]>\n"
      "<note/>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc.value()->children()[0]->name().local, "note");
}

TEST(XmlParser, StripIgnorableWhitespaceOption) {
  ParseOptions opts;
  opts.strip_ignorable_whitespace = true;
  auto doc = ParseXml("<a>\n  <b/>\n  <c/>\n</a>", opts);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc.value()->children()[0]->children().size(), 2u);
}

TEST(XmlParser, PreservesMixedContentWhitespace) {
  auto doc = ParseXml("<a>x <b/> y</a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc.value()->StringValue(), "x  y");
}

TEST(XmlParser, FragmentAllowsSiblings) {
  auto frag = ParseXmlFragment("<a/><b/>text");
  ASSERT_TRUE(frag.ok()) << frag.status();
  EXPECT_EQ(frag.value()->children().size(), 3u);
}

TEST(XmlParser, NormalizesLineEnds) {
  // XML 1.0 §2.11: CR LF and a lone CR each reach the application as LF,
  // in character data, CDATA sections, comments and PIs alike, so an
  // envelope from a CRLF-writing SOAP stack yields the same strings.
  auto doc = ParseXml(
      "<a>l1\r\nl2\rl3\n<![CDATA[c1\r\nc2]]><!--m1\r\nm2--><?p x\ry?></a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node& a = *doc.value()->children()[0];
  ASSERT_EQ(a.children().size(), 3u);
  EXPECT_EQ(a.children()[0]->value(), "l1\nl2\nl3\nc1\nc2");
  EXPECT_EQ(a.children()[1]->value(), "m1\nm2");
  EXPECT_EQ(a.children()[2]->value(), "x\ny");
}

TEST(XmlParser, NormalizesAttributeValueWhitespace) {
  // XML 1.0 §3.3.3: each literal TAB, LF, CR, or CR LF pair in an
  // attribute value becomes one space.
  auto doc = ParseXml("<a b=\"x\ny\" c='t\tu' d=\"p\r\nq\" e=\"r\rs\"/>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node& a = *doc.value()->children()[0];
  EXPECT_EQ(a.FindAttribute(QName("b"))->value(), "x y");
  EXPECT_EQ(a.FindAttribute(QName("c"))->value(), "t u");
  EXPECT_EQ(a.FindAttribute(QName("d"))->value(), "p q");
  EXPECT_EQ(a.FindAttribute(QName("e"))->value(), "r s");
}

TEST(XmlParser, CharacterReferencesKeepWhitespaceCharacters) {
  // Normalization applies to literal characters only: a character
  // reference yields its character, which is how the serializer carries
  // CR, LF and TAB through attribute values and CR through text.
  auto doc = ParseXml("<a b=\"&#13;&#10;&#9;|&#xD;&#xA;\">x&#13;&#10;y</a>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  const Node& a = *doc.value()->children()[0];
  EXPECT_EQ(a.FindAttribute(QName("b"))->value(), "\r\n\t|\r\n");
  EXPECT_EQ(a.StringValue(), "x\r\ny");

  NodePtr e = Node::NewElement(QName("e"));
  e->SetAttribute(Node::NewAttribute(QName("v"), "1\r\n2\t3"));
  e->AppendChild(Node::NewText("4\r\n5"));
  auto back = ParseXml(SerializeNode(*e));
  ASSERT_TRUE(back.ok()) << back.status();
  const Node& b = *back.value()->children()[0];
  EXPECT_EQ(b.FindAttribute(QName("v"))->value(), "1\r\n2\t3");
  EXPECT_EQ(b.StringValue(), "4\r\n5");
}

std::string Nested(int depth) {
  std::string text;
  for (int i = 0; i < depth; ++i) text += "<a>";
  text += "x";
  for (int i = 0; i < depth; ++i) text += "</a>";
  return text;
}

TEST(XmlParser, NestingPastTheLimitIsAParseErrorNotACrash) {
  for (int depth : {kMaxElementDepth + 1, 100000}) {
    auto doc = ParseXml(Nested(depth));
    ASSERT_FALSE(doc.ok()) << depth;
    EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
    EXPECT_NE(doc.status().message().find("nested deeper than"),
              std::string::npos)
        << doc.status();
  }
  EXPECT_FALSE(ParseXmlFragment(Nested(100000)).ok());
}

TEST(XmlParser, DocumentAtTheDepthLimitParsesSerializesAndClones) {
  const std::string text = Nested(kMaxElementDepth);
  auto doc = ParseXml(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(SerializeNode(*doc.value()->children()[0]), text);
  NodePtr copy = doc.value()->Clone();
  EXPECT_EQ(copy->StringValue(), "x");
  doc.value().reset();
  copy.reset();  // both trees are destroyed inside the test
}

TEST(XmlSerializer, RoundTripsDocument) {
  const char* text =
      R"(<films><film name="The Rock &amp; Co"><actor>Sean</actor></film></films>)";
  auto doc = ParseXml(text);
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(SerializeNode(*doc.value()), text);
}

TEST(XmlSerializer, EscapesSpecialCharacters) {
  NodePtr e = Node::NewElement(QName("t"));
  e->AppendChild(Node::NewText("a<b>&c"));
  e->SetAttribute(Node::NewAttribute(QName("x"), "v\"w"));
  EXPECT_EQ(SerializeNode(*e), "<t x=\"v&quot;w\">a&lt;b&gt;&amp;c</t>");
}

TEST(XmlSerializer, EmitsNamespaceDeclarations) {
  NodePtr e = Node::NewElement(QName("urn:ns", "root", "p"));
  e->AppendChild(Node::NewElement(QName("urn:ns", "kid", "p")));
  std::string out = SerializeNode(*e);
  EXPECT_EQ(out, R"(<p:root xmlns:p="urn:ns"><p:kid/></p:root>)");
}

TEST(XmlSerializer, XmlDeclarationOption) {
  auto doc = ParseXml("<a/>");
  ASSERT_TRUE(doc.ok());
  SerializeOptions opts;
  opts.xml_declaration = true;
  EXPECT_EQ(SerializeNode(*doc.value(), opts),
            "<?xml version=\"1.0\" encoding=\"utf-8\"?><a/>");
}

TEST(XmlNode, StringValueConcatenatesDescendantText) {
  auto doc = ParseXml("<a>x<b>y<c>z</c></b>w</a>");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc.value()->StringValue(), "xyzw");
}

TEST(XmlNode, CloneCreatesFreshIdentity) {
  auto doc = ParseXml("<a><b/></a>");
  ASSERT_TRUE(doc.ok());
  NodePtr copy = doc.value()->Clone();
  EXPECT_NE(copy.get(), doc.value().get());
  EXPECT_EQ(SerializeNode(*copy), SerializeNode(*doc.value()));
  // Fresh ordinals: the copy's root sorts after the original's.
  EXPECT_LT(CompareDocumentOrder(doc.value().get(), copy.get()), 0);
}

TEST(XmlNode, DocumentOrderWithinTree) {
  auto doc = ParseXml("<a><b/><c><d/></c></a>");
  ASSERT_TRUE(doc.ok());
  const Node& a = *doc.value()->children()[0];
  const Node* b = a.children()[0].get();
  const Node* c = a.children()[1].get();
  const Node* d = c->children()[0].get();
  EXPECT_LT(CompareDocumentOrder(&a, b), 0);
  EXPECT_LT(CompareDocumentOrder(b, c), 0);
  EXPECT_LT(CompareDocumentOrder(c, d), 0);
  EXPECT_GT(CompareDocumentOrder(d, b), 0);
  EXPECT_EQ(CompareDocumentOrder(d, d), 0);
}

TEST(XmlNode, AttributesOrderBeforeChildren) {
  auto doc = ParseXml(R"(<a x="1"><b/></a>)");
  ASSERT_TRUE(doc.ok());
  const Node& a = *doc.value()->children()[0];
  const Node* attr = a.attributes()[0].get();
  const Node* b = a.children()[0].get();
  EXPECT_LT(CompareDocumentOrder(&a, attr), 0);
  EXPECT_LT(CompareDocumentOrder(attr, b), 0);
}

TEST(XmlNode, IsAncestorOf) {
  auto doc = ParseXml("<a><b><c/></b></a>");
  ASSERT_TRUE(doc.ok());
  const Node& a = *doc.value()->children()[0];
  const Node* c = a.children()[0]->children()[0].get();
  EXPECT_TRUE(IsAncestorOf(&a, c));
  EXPECT_FALSE(IsAncestorOf(c, &a));
  EXPECT_FALSE(IsAncestorOf(c, c));
}

TEST(XmlNode, RemoveChildReindexesSiblings) {
  auto doc = ParseXml("<a><b/><c/><d/></a>");
  ASSERT_TRUE(doc.ok());
  Node* a = doc.value()->children()[0].get();
  a->RemoveChild(a->children()[1].get());
  ASSERT_EQ(a->children().size(), 2u);
  EXPECT_EQ(a->children()[0]->name().local, "b");
  EXPECT_EQ(a->children()[1]->name().local, "d");
  EXPECT_EQ(a->children()[1]->IndexInParent(), 1u);
}

TEST(XmlNode, InsertBeforeMaintainsOrder) {
  auto doc = ParseXml("<a><b/><d/></a>");
  ASSERT_TRUE(doc.ok());
  Node* a = doc.value()->children()[0].get();
  a->InsertBefore(Node::NewElement(QName("c")), a->children()[1].get());
  EXPECT_EQ(SerializeNode(*a), "<a><b/><c/><d/></a>");
}

TEST(XmlSerializer, CdataEndMarkerInTextSurvivesRoundTrip) {
  // "]]>" must never appear literally in character data (XML 1.0 §2.4).
  // The serializer covers it by escaping every '>', so the marker serializes
  // as "]]&gt;" — pin that, and that a reparse restores the exact value.
  auto doc = ParseXml("<t>if (a]]&gt;b) { }</t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc.value()->children()[0]->StringValue(), "if (a]]>b) { }");
  std::string wire = SerializeNode(*doc.value());
  EXPECT_EQ(wire, "<t>if (a]]&gt;b) { }</t>");
  auto back = ParseXml(wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value()->children()[0]->StringValue(), "if (a]]>b) { }");
}

TEST(XmlSerializer, CarriageReturnInTextSurvivesRoundTrip) {
  // A literal CR in serialized character data would be normalized to LF
  // by any conforming parser on re-parse (XML 1.0 §2.11), silently
  // corrupting the value; only the &#13; character reference survives.
  auto doc = ParseXml("<t>a&#13;b</t>");
  ASSERT_TRUE(doc.ok()) << doc.status();
  EXPECT_EQ(doc.value()->children()[0]->StringValue(), "a\rb");
  std::string wire = SerializeNode(*doc.value());
  EXPECT_EQ(wire, "<t>a&#13;b</t>");
  auto back = ParseXml(wire);
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(back.value()->children()[0]->StringValue(), "a\rb");
}

TEST(QNameTest, EqualityIgnoresPrefix) {
  EXPECT_EQ(QName("urn:x", "a", "p"), QName("urn:x", "a", "q"));
  EXPECT_NE(QName("urn:x", "a"), QName("urn:y", "a"));
  EXPECT_EQ(QName("urn:x", "a", "p").Clark(), "{urn:x}a");
  EXPECT_EQ(QName("urn:x", "a", "p").Lexical(), "p:a");
}

}  // namespace
}  // namespace xrpc::xml
