// Tests for pre/size/level document shredding and the staircase-style
// axis scans.

#include <gtest/gtest.h>

#include "shred/shredded_doc.h"
#include "xml/parser.h"

namespace xrpc::shred {
namespace {

xml::NodePtr Doc(const char* text) {
  auto doc = xml::ParseXml(text);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return doc.value();
}

TEST(ShredTest, PreSizeLevelEncoding) {
  auto doc = Doc("<a><b><c/></b><d/></a>");
  auto s = ShreddedDoc::Shred(doc);
  // pre 0=document, 1=a, 2=b, 3=c, 4=d
  ASSERT_EQ(s->NumNodes(), 5u);
  EXPECT_EQ(s->Row(0).kind, xml::NodeKind::kDocument);
  EXPECT_EQ(s->Row(0).size, 4);
  EXPECT_EQ(s->Row(1).size, 3);   // a has 3 descendants
  EXPECT_EQ(s->Row(1).level, 1);
  EXPECT_EQ(s->Row(2).size, 1);   // b has 1 descendant
  EXPECT_EQ(s->Row(3).size, 0);
  EXPECT_EQ(s->Row(3).level, 3);
  EXPECT_EQ(s->Row(4).parent, 1); // d's parent is a
}

TEST(ShredTest, NameDictionary) {
  auto doc = Doc("<a><b/><b/><c/></a>");
  auto s = ShreddedDoc::Shred(doc);
  int32_t b_id = s->NameId(xml::QName("b"));
  ASSERT_GE(b_id, 0);
  EXPECT_EQ(s->NameId(xml::QName("nope")), -1);
  EXPECT_EQ(s->DescendantElements(0, b_id).size(), 2u);
}

TEST(ShredTest, DescendantScan) {
  auto doc = Doc("<r><x><y/><x/></x><y/></r>");
  auto s = ShreddedDoc::Shred(doc);
  int32_t x_id = s->NameId(xml::QName("x"));
  int32_t y_id = s->NameId(xml::QName("y"));
  EXPECT_EQ(s->DescendantElements(0, x_id).size(), 2u);
  EXPECT_EQ(s->DescendantElements(0, y_id).size(), 2u);
  EXPECT_EQ(s->DescendantElements(0, -1).size(), 5u);  // all elements
  // Descendants of the first x only.
  int32_t first_x = s->DescendantElements(0, x_id)[0];
  EXPECT_EQ(s->DescendantElements(first_x, y_id).size(), 1u);
}

TEST(ShredTest, AttributesSideTable) {
  auto doc = Doc(R"(<r><p id="1" name="x"/><p id="2"/></r>)");
  auto s = ShreddedDoc::Shred(doc);
  int32_t p_id = s->NameId(xml::QName("p"));
  auto ps = s->DescendantElements(0, p_id);
  ASSERT_EQ(ps.size(), 2u);
  int32_t id_attr = s->NameId(xml::QName("id"));
  auto attrs = s->Attributes(ps[0], id_attr);
  ASSERT_EQ(attrs.size(), 1u);
  EXPECT_EQ(attrs[0]->value(), "1");
  EXPECT_EQ(s->Attributes(ps[0], -1).size(), 2u);
  EXPECT_EQ(s->Attributes(ps[1], -1).size(), 1u);
}

TEST(ShredTest, StringValue) {
  auto doc = Doc("<r>a<b>b1<c>c1</c></b>z</r>");
  auto s = ShreddedDoc::Shred(doc);
  EXPECT_EQ(s->StringValue(0), "ab1c1z");
  int32_t b_id = s->NameId(xml::QName("b"));
  int32_t b = s->DescendantElements(0, b_id)[0];
  EXPECT_EQ(s->StringValue(b), "b1c1");
}

TEST(ShredTest, PreOfMapsDomNodes) {
  auto doc = Doc("<r><a/><b/></r>");
  auto s = ShreddedDoc::Shred(doc);
  const xml::Node* b = doc->children()[0]->children()[1].get();
  int32_t pre = s->PreOf(b);
  ASSERT_GE(pre, 0);
  EXPECT_EQ(s->Row(pre).dom, b);
  xml::NodePtr other = xml::Node::NewElement(xml::QName("q"));
  EXPECT_EQ(s->PreOf(other.get()), -1);
}

TEST(ShredTest, DomBackPointersRoundTrip) {
  auto doc = Doc("<films><film><name>The Rock</name></film></films>");
  auto s = ShreddedDoc::Shred(doc);
  int32_t name_id = s->NameId(xml::QName("name"));
  auto names = s->DescendantElements(0, name_id);
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(s->Row(names[0]).dom->StringValue(), "The Rock");
}

TEST(ShredCacheTest, ShredsOncePerTree) {
  auto doc = Doc("<r><a/></r>");
  ShredCache cache;
  auto s1 = cache.GetOrShred(doc);
  auto s2 = cache.GetOrShred(doc);
  EXPECT_EQ(s1.get(), s2.get());
  EXPECT_EQ(cache.size(), 1u);
  auto other = Doc("<q/>");
  auto s3 = cache.GetOrShred(other);
  EXPECT_NE(s3.get(), s1.get());
  EXPECT_EQ(cache.size(), 2u);
}

// Property: for a family of documents, descendant counts from the shredded
// scan match the DOM.
class ShredProperty : public ::testing::TestWithParam<const char*> {};

TEST_P(ShredProperty, DescendantCountsMatchDom) {
  auto doc = Doc(GetParam());
  auto s = ShreddedDoc::Shred(doc);
  std::function<int(const xml::Node&)> count_elems =
      [&](const xml::Node& n) -> int {
    int c = 0;
    for (const auto& child : n.children()) {
      if (child->kind() == xml::NodeKind::kElement) c++;
      c += count_elems(*child);
    }
    return c;
  };
  EXPECT_EQ(static_cast<int>(s->DescendantElements(0, -1).size()),
            count_elems(*doc));
}

INSTANTIATE_TEST_SUITE_P(
    Docs, ShredProperty,
    ::testing::Values("<a/>", "<a><b/></a>", "<a>text</a>",
                      "<a><b><c><d/></c></b><e/></a>",
                      "<r><x/><x/><x/><x/><x/></r>",
                      "<r><a><a><a/></a></a></r>",
                      "<r>t1<a/>t2<b/>t3</r>"));

}  // namespace
}  // namespace xrpc::shred
