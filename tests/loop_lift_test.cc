// Tests for the loop-lifted relational evaluator (Section 3.1): its
// results must be indistinguishable from the reference interpreter. The
// parameterized corpus sweeps the expression classes the engine supports;
// the Q5 test mirrors the paper's loop-lifting example.

#include <gtest/gtest.h>

#include <functional>
#include <ostream>

#include "compiler/loop_lift.h"
#include "tests/test_util.h"
#include "xquery/interpreter.h"
#include "xml/serializer.h"
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

  StatusOr<xdm::Sequence> RunRelational(const std::string& query) {
    XRPC_ASSIGN_OR_RETURN(xquery::MainModule parsed,
                          xquery::ParseMainModule(query));
    LoopLiftConfig config;
    config.documents = &docs_;
    config.modules = &modules_;
    LoopLiftedEvaluator evaluator(config);
    XRPC_ASSIGN_OR_RETURN(xquery::QueryResult result,
                          evaluator.EvaluateQuery(parsed));
    return std::move(result.sequence);
  }

  StatusOr<xdm::Sequence> RunInterpreted(const std::string& query) {
    XRPC_ASSIGN_OR_RETURN(xquery::MainModule parsed,
                          xquery::ParseMainModule(query));
    xquery::Interpreter::Config config;
    config.documents = &docs_;
    config.modules = &modules_;
    XRPC_ASSIGN_OR_RETURN(xquery::QueryResult result,
                          xquery::Interpreter(config).EvaluateQuery(parsed));
    return std::move(result.sequence);
  }

  std::string Relational(const std::string& query) {
    auto result = RunRelational(query);
    if (!result.ok()) return "ERROR: " + result.status().ToString();
    return xdm::SequenceToString(result.value());
  }

  std::string Interpreted(const std::string& query) {
    return ::xrpc::testing::EvalToString(query, &docs_, &modules_);
  }

  MapDocumentProvider docs_;
  MapModuleResolver modules_;
};

TEST_F(LoopLiftTest, PaperQ5NestedLoops) {
  // Section 3.1's running example Q5.
  const char* q5 =
      "for $x in (10,20) return for $y in (100,200) "
      "return let $z := ($x,$y) return $z";
  EXPECT_EQ(Relational(q5), "10 100 10 200 20 100 20 200");
  EXPECT_EQ(Relational(q5), Interpreted(q5));
}

TEST_F(LoopLiftTest, PathOverDocumentWithParentPredicate) {
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

TEST_F(LoopLiftTest, UpdatingExpressionFilesPendingUpdates) {
  // Per iteration, in the interpreter's order: the condition's fn:put,
  // then the branch's primitives.
  auto parsed = xquery::ParseMainModule(R"(
      for $f in doc("filmDB.xml")//film
      order by string($f/name)
      return if (put(<seen>{string($f/name)}</seen>, "log.xml"))
             then () else (delete nodes $f/actor, rename node $f as "movie"))");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  LoopLiftConfig config;
  config.documents = &docs_;
  LoopLiftedEvaluator evaluator(config);
  auto relational = evaluator.EvaluateQuery(*parsed);
  ASSERT_TRUE(relational.ok()) << relational.status();
  xquery::Interpreter::Config iconfig;
  iconfig.documents = &docs_;
  auto interpreted = xquery::Interpreter(iconfig).EvaluateQuery(*parsed);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status();

  auto render = [](const xquery::PendingUpdateList& pul) {
    std::string out;
    for (const auto& entry : pul.entries()) {
      const xquery::UpdatePrimitive& p = entry.primitive;
      out += std::to_string(static_cast<int>(p.kind)) + ":";
      out += p.kind == xquery::UpdatePrimitive::Kind::kPut
                 ? xml::SerializeNode(*p.content[0].node())
                 : xml::SerializeNode(*p.target.node());
      out += "\n";
    }
    return out;
  };
  EXPECT_TRUE(relational->sequence.empty());
  EXPECT_EQ(relational->updates.size(), 9u);
  EXPECT_EQ(render(relational->updates), render(interpreted->updates));

  // Updates inside a predicate, two per candidate: candidate order.
  parsed = xquery::ParseMainModule(R"(
      count(doc("filmDB.xml")//film[(put(<a>{string(name)}</a>, "a.xml"),
                                     put(<b>{string(name)}</b>, "b.xml"))]))");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  relational = LoopLiftedEvaluator(config).EvaluateQuery(*parsed);
  ASSERT_TRUE(relational.ok()) << relational.status();
  interpreted = xquery::Interpreter(iconfig).EvaluateQuery(*parsed);
  ASSERT_TRUE(interpreted.ok()) << interpreted.status();
  EXPECT_EQ(relational->updates.size(), 6u);
  EXPECT_EQ(render(relational->updates), render(interpreted->updates));
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
        // casts and type tests
        "xs:integer(\"42\") + 1", "\"3.5\" cast as xs:double",
        "\"x\" castable as xs:integer",
        "for $x in (1, \"a\", <a/>) return $x instance of xs:integer",
        "for $x in (1, 2) return ($x treat as xs:integer) + 1",
        "(1, 2) instance of xs:integer+",
        // builtins the relational engine once left to the interpreter
        "for $s in (\"abcde\", \"xy\") return substring($s, 2, 3)",
        "for $n in doc(\"filmDB.xml\")//name return string-length($n)",
        "for $n in doc(\"filmDB.xml\")//actor return upper-case($n)",
        "for $x in (1.4, 2.5, -0.5) return round($x)",
        "reverse(subsequence((1, 2, 3, 4, 5), 2, 3))",
        "for $x in (1, 2) return trace($x * 10, \"x\")",
        "doc(\"filmDB.xml\")//film[string-length(name) > 8]/actor",
        "for $f in doc(\"filmDB.xml\")//film return $f/name[string() = "
        "\"Goldfinger\"]",
        "local-name(doc(\"filmDB.xml\")/*)",
        // divergences of the engines' former separate libraries: fn:name of
        // the empty sequence is "" (not an empty result) in every iteration
        "for $x in (1,2) return fn:name(())",
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

// Erroring queries fail on both engines with the same status: the engines
// share one function library, so neither answers where the other raises.
// Each case once got an answer from the relational engine.
struct ErrorCase {
  const char* query;
  StatusCode code;
};

void PrintTo(const ErrorCase& c, std::ostream* os) { *os << c.query; }

class EngineErrorEquivalence
    : public LoopLiftTest,
      public ::testing::WithParamInterface<ErrorCase> {};

TEST_P(EngineErrorEquivalence, BothEnginesFailAlike) {
  auto rel = RunRelational(GetParam().query);
  auto ref = RunInterpreted(GetParam().query);
  ASSERT_FALSE(ref.ok()) << xdm::SequenceToString(ref.value());
  ASSERT_FALSE(rel.ok()) << xdm::SequenceToString(rel.value());
  EXPECT_EQ(ref.status().code(), GetParam().code) << ref.status();
  EXPECT_EQ(rel.status().code(), ref.status().code()) << rel.status();
  EXPECT_EQ(rel.status().message(), ref.status().message());
}

INSTANTIATE_TEST_SUITE_P(
    Divergences, EngineErrorEquivalence,
    ::testing::Values(
        // fn:name of more than one node is XPTY0004.
        ErrorCase{"for $x in (<a/>,<b/>) return fn:name(($x,$x))",
                  StatusCode::kTypeError},
        // Integer division by zero is FOAR0001, not INF.
        ErrorCase{"1 div 0", StatusCode::kEvalError},
        ErrorCase{"for $x in (1, 0) return 1 div $x", StatusCode::kEvalError},
        // A string operand of + is XPTY0004, not NaN.
        ErrorCase{"\"a\" + 1", StatusCode::kTypeError},
        // A parameter's occurrence indicator is checked.
        ErrorCase{"declare function local:f($x as xs:integer) {$x}; "
                  "local:f((1,2))",
                  StatusCode::kTypeError},
        ErrorCase{"import module namespace m=\"m\" at \"m.xq\"; "
                  "for $i in 1 to 2 return m:double(())",
                  StatusCode::kTypeError},
        // fn:error's message is its description, the second argument.
        ErrorCase{"fn:error(\"a\",\"b\",\"c\")", StatusCode::kEvalError},
        // xs:date and xs:dateTime validate their lexical form (FORG0001).
        ErrorCase{"xs:date(\"banana\")", StatusCode::kTypeError},
        ErrorCase{"xs:date(\"2006-1-1\")", StatusCode::kTypeError},
        ErrorCase{"for $d in (\"2006-02-28\", \"2006-02-29\") "
                  "return xs:date($d)",
                  StatusCode::kTypeError},
        ErrorCase{"xs:dateTime(\"2006-01-01T24:00:01Z\")",
                  StatusCode::kTypeError},
        // An update in a for binding is XUST0001: the engines once ordered
        // its pending updates differently from the return clause's.
        ErrorCase{"for $a in (1, 2) for $b in (insert nodes <x n=\"{$a}\"/> "
                  "into doc(\"filmDB.xml\")/films, 1) return insert nodes "
                  "<y n=\"{$a}\"/> into doc(\"filmDB.xml\")/films",
                  StatusCode::kParseError}));

TEST_F(LoopLiftTest, DateTimesCompareAsInstantsOnBothEngines) {
  // 12:00 at +02:00 is 10:00 UTC; a value without a timezone reads as UTC,
  // and the lexical form, timezone included, survives.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"xs:dateTime(\"2006-01-01T12:00:00+02:00\") eq "
       "xs:dateTime(\"2006-01-01T10:00:00Z\")",
       "true"},
      {"xs:dateTime(\"2006-01-01T12:00:00+02:00\") lt "
       "xs:dateTime(\"2006-01-01T11:00:00Z\")",
       "true"},
      {"xs:dateTime(\"2006-01-01T10:00:00\") eq "
       "xs:dateTime(\"2006-01-01T10:00:00.000Z\")",
       "true"},
      {"xs:date(\"2006-01-02+14:00\") lt xs:date(\"2006-01-01-12:00\")",
       "true"},
      {"string(xs:dateTime(\" 2006-01-01T12:00:00+02:00 \"))",
       "2006-01-01T12:00:00+02:00"},
      {"for $d in (xs:date(\"2010-01-01\"), xs:date(\"999999-01-01\"), "
       "xs:date(\"2009-12-31\")) order by $d return string($d)",
       "2009-12-31 2010-01-01 999999-01-01"},
  };
  for (const auto& [query, expected] : cases) {
    EXPECT_EQ(Relational(query), expected) << query;
    EXPECT_EQ(Interpreted(query), expected) << query;
  }
}

TEST_F(LoopLiftTest, BulkCallChecksParameterOccurrence) {
  // The server side of a Bulk RPC: a call passing two strings for
  // `$a as xs:string` faults instead of answering.
  auto module = xquery::ParseLibraryModule(R"(
      module namespace m = "m";
      declare function m:films($a as xs:string) as node()*
      { doc("filmDB.xml")//name[../actor=$a] };)");
  ASSERT_TRUE(module.ok()) << module.status();
  const xquery::FunctionDef& def = module->prolog.functions[0];
  const xdm::Item sean(xdm::AtomicValue::String("Sean Connery"));
  const xdm::Item gerard(xdm::AtomicValue::String("Gerard Depardieu"));
  algebra::Table args;
  args.AppendIPI(1, 1, sean);
  args.AppendIPI(2, 1, sean);
  args.AppendIPI(2, 2, gerard);
  LoopLiftConfig config;
  config.documents = &docs_;
  LoopLiftedEvaluator evaluator(config);
  auto result = evaluator.EvaluateFunctionBulk(*module, def, {args}, 2);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kTypeError);
}

}  // namespace
}  // namespace xrpc::compiler
