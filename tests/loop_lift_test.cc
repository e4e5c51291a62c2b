// Tests for the loop-lifted relational evaluator (Section 3.1): its
// results must be indistinguishable from the reference interpreter. The
// parameterized corpus sweeps the expression classes the engine supports;
// the Q5 test mirrors the paper's loop-lifting example.

#include <gtest/gtest.h>

#include <functional>

#include "compiler/loop_lift.h"
#include "tests/test_util.h"
#include "xquery/parser.h"

namespace xrpc::compiler {
namespace {

using ::xrpc::testing::MapDocumentProvider;
using ::xrpc::testing::MapModuleResolver;

constexpr char kFilmDb[] =
    "<films>"
    "<film><name>The Rock</name><actor>Sean Connery</actor></film>"
    "<film><name>Goldfinger</name><actor>Sean Connery</actor></film>"
    "<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>"
    "</films>";

class LoopLiftTest : public ::testing::Test {
 protected:
  LoopLiftTest() {
    docs_.AddDocument("filmDB.xml", kFilmDb);
    docs_.AddDocument("nums.xml",
                      "<ns><n>3</n><n>1</n><n>2</n><n>1</n></ns>");
    EXPECT_TRUE(modules_
                    .AddModule(R"(
      module namespace m = "m";
      declare function m:double($x as xs:integer) as xs:integer { $x * 2 };
      declare function m:films($a as xs:string) as node()*
      { doc("filmDB.xml")//name[../actor=$a] };)")
                    .ok());
  }

  std::string Relational(const std::string& query) {
    auto parsed = xquery::ParseMainModule(query);
    if (!parsed.ok()) return "PARSE ERROR: " + parsed.status().ToString();
    LoopLiftConfig config;
    config.documents = &docs_;
    config.modules = &modules_;
    config.shreds = &shreds_;
    LoopLiftedEvaluator evaluator(config);
    auto result = evaluator.EvaluateQuery(parsed.value());
    if (!result.ok()) return "ERROR: " + result.status().ToString();
    return xdm::SequenceToString(result.value());
  }

  std::string Interpreted(const std::string& query) {
    return ::xrpc::testing::EvalToString(query, &docs_, &modules_);
  }

  MapDocumentProvider docs_;
  MapModuleResolver modules_;
  shred::ShredCache shreds_;
};

TEST_F(LoopLiftTest, PaperQ5NestedLoops) {
  // Section 3.1's running example Q5.
  const char* q5 =
      "for $x in (10,20) return for $y in (100,200) "
      "return let $z := ($x,$y) return $z";
  EXPECT_EQ(Relational(q5), "10 100 10 200 20 100 20 200");
  EXPECT_EQ(Relational(q5), Interpreted(q5));
}

TEST_F(LoopLiftTest, PathOverShreddedDocument) {
  EXPECT_EQ(
      Relational("doc(\"filmDB.xml\")//name[../actor=\"Sean Connery\"]"),
      "<name>The Rock</name> <name>Goldfinger</name>");
}

TEST_F(LoopLiftTest, UserFunctionInlining) {
  EXPECT_EQ(Relational("import module namespace m=\"m\" at \"m.xq\"; "
                       "for $i in 1 to 3 return m:double($i)"),
            "2 4 6");
}

TEST_F(LoopLiftTest, SelectionFunctionActsAsJoin) {
  // The m:films selection applied in a loop — the bulk execution pattern
  // the paper highlights for getPerson.
  EXPECT_EQ(
      Relational("import module namespace m=\"m\" at \"m.xq\"; "
                 "for $a in (\"Gerard Depardieu\", \"Sean Connery\") "
                 "return count(m:films($a))"),
      "1 2");
}

TEST_F(LoopLiftTest, UpdatingExpressionIsUnsupported) {
  std::string r = Relational("delete nodes doc(\"filmDB.xml\")//film");
  EXPECT_NE(r.find("Unsupported"), std::string::npos) << r;
}

TEST_F(LoopLiftTest, PathMemoNeverAliasesTreesOrSources) {
  // Each iteration constructs a tree, steps into it and drops it. The
  // interpreter's path memo must not hand a later tree — possibly
  // allocated at the address of a freed one — an earlier tree's result.
  const char* fresh_trees =
      "for $i in 1 to 6 return "
      "count(<a>{if ($i mod 2 = 0) then <b/> else ()}</a>/b)";
  EXPECT_EQ(Interpreted(fresh_trees), "0 1 0 1 0 1");
  EXPECT_EQ(Relational(fresh_trees), Interpreted(fresh_trees));

  // Two source nodes whose ancestor prefixes start at the same node (the
  // root) but differ after it: memoized candidates are keyed by source.
  docs_.AddDocument("anc.xml",
                    "<r><x><k v=\"1\"/><k v=\"1\"/><y><z/></y></x>"
                    "<w><k v=\"1\"/><q/></w></r>");
  const char* shared_first_node =
      "for $n in (doc(\"anc.xml\")//z, doc(\"anc.xml\")//q) "
      "return count($n/ancestor::*/k[@v = \"1\"])";
  EXPECT_EQ(Interpreted(shared_first_node), "2 1");
  EXPECT_EQ(Relational(shared_first_node), Interpreted(shared_first_node));
}

// Equivalence property: relational and interpreted evaluation agree on the
// rendered result for every query in the corpus.
class EngineEquivalence : public LoopLiftTest,
                          public ::testing::WithParamInterface<const char*> {};

TEST_P(EngineEquivalence, RelationalMatchesInterpreter) {
  std::string rel = Relational(GetParam());
  std::string ref = Interpreted(GetParam());
  ASSERT_EQ(rel.find("ERROR"), std::string::npos) << rel;
  EXPECT_EQ(rel, ref) << "query: " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, EngineEquivalence,
    ::testing::Values(
        // literals, sequences, arithmetic
        "42", "(1, 2, 3)", "1 + 2 * 3", "7 idiv 2", "10 mod 4",
        "-(3 + 4)", "2.5 * 2",
        // ranges and FLWOR
        "1 to 5", "for $x in 1 to 5 return $x * $x",
        "for $x in (1,2,3) where $x mod 2 = 1 return $x",
        "for $x in (3,1,2) order by $x return $x",
        "for $x in (3,1,2) order by $x descending return $x * 10",
        "for $x in (1,2), $y in (10,20) return $x + $y",
        "let $s := (1,2,3) return count($s)",
        "for $x at $i in (\"a\",\"b\",\"c\") return $i",
        // conditionals, logic, quantifiers
        "if (1 < 2) then \"y\" else \"n\"",
        "for $x in (1,2,3,4) return if ($x mod 2 = 0) then $x else ()",
        "true() or false()", "true() and false()",
        "some $x in (1,2,3) satisfies $x > 2",
        "every $x in (1,2,3) satisfies $x > 0",
        // comparisons
        "(1,2,3) = 2", "(1,2) != (1,2)", "1 eq 1", "\"a\" lt \"b\"",
        // paths and predicates
        "count(doc(\"filmDB.xml\")//film)",
        "doc(\"filmDB.xml\")//name",
        "string(doc(\"filmDB.xml\")/films/film[2]/name)",
        "doc(\"nums.xml\")//n[. > 1]",
        "for $n in doc(\"nums.xml\")//n order by number($n) return string($n)",
        "doc(\"filmDB.xml\")//film[name=\"Goldfinger\"]/actor",
        "count(doc(\"nums.xml\")//n[position() = last()])",
        // built-ins
        "string-join((\"a\",\"b\",\"c\"), \"-\")",
        "concat(\"x\", \"y\")", "sum((1,2,3))", "avg((2,4))",
        "min((3,1,2))", "max((3,1,2))",
        "distinct-values((1,2,1,3))",
        "contains(\"hello\", \"ell\")",
        "empty(())", "exists((1))", "not(1 = 2)",
        "data(doc(\"nums.xml\")//n[1])",
        // constructors
        "<a>{1 + 1}</a>", "<a x=\"{2+3}\"><b/></a>",
        "<films>{doc(\"filmDB.xml\")//name[../actor=\"Sean Connery\"]}"
        "</films>",
        "text { \"hi\" }",
        // casts
        "xs:integer(\"42\") + 1", "\"3.5\" cast as xs:double",
        "\"x\" castable as xs:integer",
        // union
        "doc(\"filmDB.xml\")//name | doc(\"filmDB.xml\")//actor",
        // equality where-clauses over a cross product (the hash-join
        // fast path must agree with the interpreter, including duplicate
        // keys and empty matches)
        "for $f in doc(\"filmDB.xml\")//film, "
        "$n in doc(\"filmDB.xml\")//name "
        "where $f/name = $n return string($n)",
        "for $a in (\"Sean Connery\", \"Nobody\", \"Gerard Depardieu\"), "
        "$f in doc(\"filmDB.xml\")//film "
        "where $f/actor = $a return string($f/name)",
        "for $x in (\"a\",\"b\"), $f in doc(\"filmDB.xml\")//film "
        "where $f/actor = \"no such actor\" return string($f/name)",
        // numeric keys must take the fallback path and still agree
        "for $i in (1,2,3), $n in doc(\"nums.xml\")//n "
        "where number($n) = $i return concat(string($i),\":\",string($n))"));

}  // namespace
}  // namespace xrpc::compiler
