// Unit tests for path normalization (xquery/normalize.h): which
// `descendant-or-self::node()/child::T[p]` shapes fuse into
// `descendant::T[p]`, which keep their plan, and that a fused tree answers
// as the raw one does.

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "xquery/interpreter.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

namespace xrpc::xquery {
namespace {

MainModule Normalized(const std::string& q) {
  auto m = ParseMainModule(q);
  EXPECT_TRUE(m.ok()) << q << ": " << m.status();
  if (!m.ok()) return {};
  NormalizePaths(&m.value());
  return std::move(m).value();
}

/// The axes of the body's path steps, e.g. "descendant child".
std::string Axes(const Expr& path) {
  std::string out;
  for (const PathStep& s : path.steps) {
    if (!out.empty()) out += " ";
    out += AxisToString(s.axis);
  }
  return out;
}

std::string BodyAxes(const std::string& q) {
  MainModule m = Normalized(q);
  if (m.body == nullptr || m.body->kind != ExprKind::kPath) return "?";
  return Axes(*m.body);
}

TEST(Normalize, FusesDescendantNameWithComparisonPredicate) {
  MainModule m = Normalized("doc(\"filmDB.xml\")//name[../actor=$actor]");
  const Expr& e = *m.body;
  ASSERT_EQ(e.kind, ExprKind::kPath);
  ASSERT_EQ(e.steps.size(), 1u);
  EXPECT_EQ(e.steps[0].axis, Axis::kDescendant);
  EXPECT_EQ(e.steps[0].test.name.local, "name");
  EXPECT_EQ(e.steps[0].predicates.size(), 1u);
  EXPECT_EQ(e.children[0]->kind, ExprKind::kFunctionCall);
}

TEST(Normalize, FusesRootedStepWithPathComparison) {
  MainModule m = Normalized("//closed_auction[./buyer/@person=$p]");
  const Expr& e = *m.body;
  ASSERT_EQ(e.kind, ExprKind::kPath);
  EXPECT_TRUE(e.root_path);
  EXPECT_EQ(Axes(e), "descendant");
  EXPECT_EQ(e.steps[0].test.name.local, "closed_auction");
}

TEST(Normalize, FusesMidPathAndRepeatedSteps) {
  EXPECT_EQ(BodyAxes("$x/a//b"), "child descendant");
  EXPECT_EQ(BodyAxes("$x//a//b/c"), "descendant descendant child");
  EXPECT_EQ(BodyAxes("$x/descendant-or-self::node()/child::b"), "descendant");
  EXPECT_EQ(BodyAxes("$x//text()"), "descendant");
}

TEST(Normalize, FusesEveryNonPositionalPredicateKind) {
  EXPECT_EQ(BodyAxes("$x//a[@id and ./b]"), "descendant");
  EXPECT_EQ(BodyAxes("$x//a[@id = 'x' or ./b]"), "descendant");
  EXPECT_EQ(BodyAxes("$x//a[some $v in ./b satisfies $v = 1]"),
            "descendant");
  EXPECT_EQ(BodyAxes("$x//a[./b]"), "descendant");
  EXPECT_EQ(BodyAxes("$x//a[./b][@id = $y]"), "descendant");
  // A positional predicate inside a nested step sees that step's focus,
  // not the outer grouping.
  EXPECT_EQ(BodyAxes("$x//a[./b[1] = 'x']"), "descendant");
}

TEST(Normalize, KeepsPositionalPredicates) {
  for (const char* q : {"$x//a[1]", "$x//a[last()]", "$x//a[$n]",
                        "$x//a[position() < 3]", "$x//a[./b = last()]",
                        "$x//a[count(./b)]", "$x//a[./b][1]"}) {
    EXPECT_EQ(BodyAxes(q), "descendant-or-self child") << q;
  }
}

TEST(Normalize, KeepsOtherShapes) {
  // Attribute and non-child steps after `//`, and a filtered or typed
  // descendant-or-self step, are not `descendant::` steps.
  EXPECT_EQ(BodyAxes("$x//@id"), "descendant-or-self attribute");
  EXPECT_EQ(BodyAxes("$x//self::a"), "descendant-or-self self");
  EXPECT_EQ(BodyAxes("$x/descendant-or-self::node()[@id]/a"),
            "descendant-or-self child");
  EXPECT_EQ(BodyAxes("$x/descendant-or-self::*/a"),
            "descendant-or-self child");
}

TEST(Normalize, ReachesPredicatesPrologAndLibraryFunctions) {
  MainModule m = Normalized(
      "declare variable $v := doc(\"d.xml\")//a;\n"
      "declare function local:f($d) { $d//b[./c = 1] };\n"
      "$v[.//c]");
  EXPECT_EQ(Axes(*m.prolog.variables[0].second), "descendant");
  EXPECT_EQ(Axes(*m.prolog.functions[0].body), "descendant");
  ASSERT_EQ(m.body->kind, ExprKind::kFilter);
  EXPECT_EQ(Axes(*m.body->predicates[0]), "descendant");

  auto lib = ParseLibraryModule(
      "module namespace b = \"functions_b\";\n"
      "declare function b:Q_B3($pid as xs:string) as node()*\n"
      "{ doc(\"auctions.xml\")//closed_auction[./buyer/@person=$pid] };");
  ASSERT_TRUE(lib.ok()) << lib.status();
  NormalizePaths(&lib.value());
  EXPECT_EQ(Axes(*lib->prolog.functions[0].body), "descendant");
}

TEST(Normalize, FusedAndKeptTreesAnswerAsTheRawTree) {
  // `a` has several parents, so the positional forms differ from
  // `/descendant::a[...]`: the pass must keep them.
  ::xrpc::testing::MapDocumentProvider docs;
  docs.AddDocument("d.xml",
                   "<r><x><a k=\"1\"/><a k=\"2\"/></x>"
                   "<y><a k=\"3\"/><z><a k=\"4\"/><a k=\"5\"/></z></y></r>");
  Interpreter interp(Interpreter::Config{.documents = &docs});
  auto run = [&](const std::string& q, bool normalize) {
    auto m = ParseMainModule(q);
    if (!m.ok()) return m.status().ToString();
    if (normalize) NormalizePaths(&m.value());
    auto r = interp.EvaluateQuery(m.value());
    if (!r.ok()) return r.status().ToString();
    std::string out;
    for (const xdm::Item& i : r->sequence) {
      out += i.node()->FindAttribute(xml::QName("", "k"))->StringValue();
      out += " ";
    }
    return out;
  };
  const struct {
    const char* query;
    const char* answer;
  } kCases[] = {
      {"doc('d.xml')//a[1]", "1 3 4 "},
      {"doc('d.xml')/descendant::a[1]", "1 "},
      {"doc('d.xml')//a[last()]", "2 3 5 "},
      {"for $n in 2 return doc('d.xml')//a[$n]", "2 5 "},
      {"doc('d.xml')//a[@k > 2]", "3 4 5 "},
      {"doc('d.xml')//a[../@k or @k = '2']", "2 "},
      {"doc('d.xml')/r/y//a", "3 4 5 "},
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(run(c.query, /*normalize=*/false), c.answer) << c.query;
    EXPECT_EQ(run(c.query, /*normalize=*/true), c.answer) << c.query;
  }
}

}  // namespace
}  // namespace xrpc::xquery
