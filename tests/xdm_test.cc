// Unit tests for the XDM layer: atomic values, casting, comparison, items,
// sequences, effective boolean value, document-order sorting.

#include <gtest/gtest.h>

#include "xdm/atomic.h"
#include "xdm/item.h"
#include "xml/parser.h"

namespace xrpc::xdm {
namespace {

TEST(AtomicValue, LexicalForms) {
  EXPECT_EQ(AtomicValue::Integer(42).ToString(), "42");
  EXPECT_EQ(AtomicValue::Integer(-7).ToString(), "-7");
  EXPECT_EQ(AtomicValue::Boolean(true).ToString(), "true");
  EXPECT_EQ(AtomicValue::Boolean(false).ToString(), "false");
  EXPECT_EQ(AtomicValue::Double(3.0).ToString(), "3");
  EXPECT_EQ(AtomicValue::Double(3.1).ToString(), "3.1");
  EXPECT_EQ(AtomicValue::String("abc").ToString(), "abc");
}

TEST(AtomicValue, TypeNamesRoundTrip) {
  for (AtomicType t :
       {AtomicType::kUntypedAtomic, AtomicType::kString, AtomicType::kBoolean,
        AtomicType::kInteger, AtomicType::kDecimal, AtomicType::kDouble,
        AtomicType::kQName, AtomicType::kDate, AtomicType::kDateTime,
        AtomicType::kAnyUri}) {
    auto parsed = AtomicTypeFromName(AtomicTypeName(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), t);
  }
}

TEST(AtomicValue, CastStringToNumeric) {
  auto i = AtomicValue::String("42").CastTo(AtomicType::kInteger);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i.value().AsInteger(), 42);
  auto d = AtomicValue::String(" 3.5 ").CastTo(AtomicType::kDouble);
  ASSERT_TRUE(d.ok());
  EXPECT_DOUBLE_EQ(d.value().AsDouble(), 3.5);
  EXPECT_FALSE(AtomicValue::String("abc").CastTo(AtomicType::kInteger).ok());
}

TEST(AtomicValue, CastDateValidatesTheLexicalForm) {
  for (const char* ok : {"2006-01-01", "2004-02-29", "-0044-03-15",
                         "12006-01-01", "2006-01-01Z", "2006-01-01-05:00",
                         "2006-01-01+14:00"}) {
    EXPECT_TRUE(AtomicValue::String(ok).CastTo(AtomicType::kDate).ok()) << ok;
  }
  for (const char* bad : {"banana", "2006-1-1", "06-01-01", "2006-13-01",
                          "2006-02-29", "1900-02-29", "0000-01-01",
                          "02006-01-01", "2006-01-01+15:00", "2006-01-01T",
                          "2006-01-01ZZ", "2006-01-01T00:00:00"}) {
    auto cast = AtomicValue::Untyped(bad).CastTo(AtomicType::kDate);
    ASSERT_FALSE(cast.ok()) << bad;
    EXPECT_NE(cast.status().message().find("FORG0001"), std::string::npos);
  }
  for (const char* ok : {"2006-01-01T12:00:00", "2006-01-01T12:00:00.5Z",
                         "2006-01-01T24:00:00", "2006-01-01T23:59:59-14:00"}) {
    EXPECT_TRUE(AtomicValue::String(ok).CastTo(AtomicType::kDateTime).ok())
        << ok;
  }
  for (const char* bad :
       {"2006-01-01", "2006-01-01T12:00", "2006-01-01T12:60:00",
        "2006-01-01T24:00:00.1", "2006-01-01T12:00:00.",
        "2006-01-01T12:00:00+2:00"}) {
    EXPECT_FALSE(AtomicValue::String(bad).CastTo(AtomicType::kDateTime).ok())
        << bad;
  }
}

TEST(AtomicValue, DatesCompareAsTimezoneNormalizedInstants) {
  auto dt = [](const char* lex) {
    return AtomicValue::String(lex).CastTo(AtomicType::kDateTime).value();
  };
  auto d = [](const char* lex) {
    return AtomicValue::String(lex).CastTo(AtomicType::kDate).value();
  };
  EXPECT_EQ(CompareAtomic(dt("2006-01-01T12:00:00+02:00"),
                          dt("2006-01-01T10:00:00Z")).value(), 0);
  EXPECT_EQ(CompareAtomic(dt("2006-01-01T12:00:00+02:00"),
                          dt("2006-01-01T11:00:00Z")).value(), -1);
  EXPECT_EQ(CompareAtomic(dt("2006-01-01T10:00:00"),
                          dt("2006-01-01T10:00:00Z")).value(), 0);
  EXPECT_EQ(CompareAtomic(dt("2006-01-01T10:00:00.25"),
                          dt("2006-01-01T10:00:00.3")).value(), -1);
  EXPECT_EQ(CompareAtomic(dt("2006-01-01T24:00:00"),
                          dt("2006-01-02T00:00:00")).value(), 0);
  EXPECT_EQ(CompareAtomic(d("-0001-12-31"), d("0001-01-01")).value(), -1);
  EXPECT_EQ(CompareAtomic(d("10000-01-01"), d("9999-12-31")).value(), 1);
  EXPECT_EQ(CompareAtomic(d("2006-01-02+14:00"), d("2006-01-01-12:00")).value(),
            -1);
  EXPECT_TRUE(dt("2006-01-01T12:00:00+02:00") == dt("2006-01-01T10:00:00Z"));
  EXPECT_FALSE(dt("2006-01-01T12:00:00") == dt("2006-01-01T12:00:01"));
  // The lexical form is kept, timezone included.
  EXPECT_EQ(dt(" 2006-01-01T12:00:00+02:00").ToString(),
            "2006-01-01T12:00:00+02:00");
  // An untyped operand is cast, so a bad one is an error, not an order.
  EXPECT_FALSE(CompareAtomic(AtomicValue::Untyped("banana"),
                             d("2006-01-01")).ok());
}

TEST(AtomicValue, CastNumericTruncates) {
  auto i = AtomicValue::Double(3.9).CastTo(AtomicType::kInteger);
  ASSERT_TRUE(i.ok());
  EXPECT_EQ(i.value().AsInteger(), 3);
  auto j = AtomicValue::Double(-3.9).CastTo(AtomicType::kInteger);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j.value().AsInteger(), -3);
}

TEST(AtomicValue, CastBoolean) {
  EXPECT_TRUE(
      AtomicValue::String("true").CastTo(AtomicType::kBoolean)->AsBoolean());
  EXPECT_FALSE(
      AtomicValue::String("0").CastTo(AtomicType::kBoolean)->AsBoolean());
  EXPECT_FALSE(AtomicValue::String("yes").CastTo(AtomicType::kBoolean).ok());
  EXPECT_TRUE(
      AtomicValue::Integer(2).CastTo(AtomicType::kBoolean)->AsBoolean());
}

TEST(AtomicValue, UntypedComparesAsDoubleAgainstNumeric) {
  auto c = CompareAtomic(AtomicValue::Untyped("10"), AtomicValue::Integer(9));
  ASSERT_TRUE(c.ok());
  EXPECT_GT(c.value(), 0);
  // As strings "10" < "9"; numeric promotion must win here.
}

TEST(AtomicValue, UntypedComparesAsStringAgainstString) {
  auto c =
      CompareAtomic(AtomicValue::Untyped("10"), AtomicValue::String("9"));
  ASSERT_TRUE(c.ok());
  EXPECT_LT(c.value(), 0);
}

TEST(AtomicValue, IncomparableTypesError) {
  EXPECT_FALSE(
      CompareAtomic(AtomicValue::Boolean(true), AtomicValue::Integer(1)).ok());
}

TEST(AtomicValue, NumericPromotion) {
  auto c = CompareAtomic(AtomicValue::Integer(2), AtomicValue::Double(2.0));
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c.value(), 0);
}

TEST(Item, AtomizeNodeYieldsUntyped) {
  auto doc = xml::ParseXml("<a>42</a>");
  ASSERT_TRUE(doc.ok());
  Item item = Item::Node(doc.value());
  AtomicValue v = item.Atomize();
  EXPECT_EQ(v.type(), AtomicType::kUntypedAtomic);
  EXPECT_EQ(v.ToString(), "42");
}

TEST(Item, AnchorKeepsTreeAlive) {
  Item leaf;
  {
    auto doc = xml::ParseXml("<a><b>x</b></a>");
    ASSERT_TRUE(doc.ok());
    xml::Node* b = doc.value()->children()[0]->children()[0].get();
    leaf = Item::NodeInTree(b, doc.value());
    // `doc` goes out of scope; the anchor must keep the tree alive.
  }
  EXPECT_EQ(leaf.node()->StringValue(), "x");
  EXPECT_EQ(leaf.node()->Root()->kind(), xml::NodeKind::kDocument);
}

TEST(EffectiveBooleanValueTest, Rules) {
  EXPECT_FALSE(EffectiveBooleanValue({}).value());
  EXPECT_TRUE(EffectiveBooleanValue(SingletonBool(true)).value());
  EXPECT_FALSE(EffectiveBooleanValue(SingletonBool(false)).value());
  EXPECT_FALSE(EffectiveBooleanValue(SingletonString("")).value());
  EXPECT_TRUE(EffectiveBooleanValue(SingletonString("x")).value());
  EXPECT_FALSE(EffectiveBooleanValue(SingletonInt(0)).value());
  EXPECT_TRUE(EffectiveBooleanValue(SingletonInt(-1)).value());
  EXPECT_FALSE(EffectiveBooleanValue(SingletonDouble(0.0)).value());

  auto doc = xml::ParseXml("<a/>");
  ASSERT_TRUE(doc.ok());
  Sequence nodes{Item::Node(doc.value())};
  EXPECT_TRUE(EffectiveBooleanValue(nodes).value());

  Sequence two{Item(AtomicValue::Integer(1)), Item(AtomicValue::Integer(2))};
  EXPECT_FALSE(EffectiveBooleanValue(two).ok());  // FORG0006
}

TEST(SortByDocumentOrderTest, SortsAndDeduplicates) {
  auto doc = xml::ParseXml("<a><b/><c/></a>");
  ASSERT_TRUE(doc.ok());
  xml::Node* a = doc.value()->children()[0].get();
  xml::Node* b = a->children()[0].get();
  xml::Node* c = a->children()[1].get();
  Sequence seq{Item::NodeInTree(c, doc.value()), Item::NodeInTree(b, doc.value()),
               Item::NodeInTree(c, doc.value())};
  ASSERT_TRUE(SortByDocumentOrder(&seq).ok());
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_EQ(seq[0].node(), b);
  EXPECT_EQ(seq[1].node(), c);
}

TEST(SortByDocumentOrderTest, RejectsMixedSequences) {
  Sequence seq{Item(AtomicValue::Integer(1))};
  EXPECT_FALSE(SortByDocumentOrder(&seq).ok());
}

// Parameterized property sweep: FormatDouble/ParseDouble round-trip.
class DoubleRoundTrip : public ::testing::TestWithParam<double> {};

TEST_P(DoubleRoundTrip, FormatsAndParsesBack) {
  double v = GetParam();
  AtomicValue a = AtomicValue::Double(v);
  auto back = AtomicValue::String(a.ToString()).CastTo(AtomicType::kDouble);
  ASSERT_TRUE(back.ok());
  EXPECT_DOUBLE_EQ(back.value().AsDouble(), v);
}

INSTANTIATE_TEST_SUITE_P(Values, DoubleRoundTrip,
                         ::testing::Values(0.0, 1.0, -1.5, 3.14159, 1e-9, 1e20,
                                           123456.789, -0.001, 42.0, 7e7));

}  // namespace
}  // namespace xrpc::xdm
