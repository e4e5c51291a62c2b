// Unit tests for the tree-walking interpreter: expression semantics,
// built-ins, paths over documents, user functions, modules, execute at
// (against a loopback RPC handler) and XQUF pending update lists.

#include <gtest/gtest.h>

#include "tests/test_util.h"
#include "xml/serializer.h"
#include "xquery/update.h"

namespace xrpc::xquery {
namespace {

using ::xrpc::testing::EvalToString;
using ::xrpc::testing::LoopbackRpcHandler;
using ::xrpc::testing::MapDocumentProvider;
using ::xrpc::testing::MapModuleResolver;

constexpr char kFilmDb[] =
    "<films>"
    "<film><name>The Rock</name><actor>Sean Connery</actor></film>"
    "<film><name>Goldfinger</name><actor>Sean Connery</actor></film>"
    "<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>"
    "</films>";

constexpr char kFilmModule[] = R"(
  module namespace film = "films";
  declare function film:filmsByActor($actor as xs:string) as node()*
  { doc("filmDB.xml")//name[../actor=$actor] };
)";

TEST(Eval, ArithmeticAndPrecedence) {
  EXPECT_EQ(EvalToString("1 + 2 * 3"), "7");
  EXPECT_EQ(EvalToString("(1 + 2) * 3"), "9");
  EXPECT_EQ(EvalToString("7 idiv 2"), "3");
  EXPECT_EQ(EvalToString("7 mod 2"), "1");
  EXPECT_EQ(EvalToString("1 div 2"), "0.5");
  EXPECT_EQ(EvalToString("-3 + 1"), "-2");
  EXPECT_EQ(EvalToString("2.5 + 2.5"), "5");
}

TEST(Eval, EmptySequencePropagatesThroughArith) {
  EXPECT_EQ(EvalToString("() + 1"), "");
  EXPECT_EQ(EvalToString("1 * ()"), "");
}

TEST(Eval, DivisionByZeroIsAnError) {
  EXPECT_TRUE(EvalToString("1 idiv 0").find("ERROR") == 0);
  EXPECT_TRUE(EvalToString("1 mod 0").find("ERROR") == 0);
}

TEST(Eval, Comparisons) {
  EXPECT_EQ(EvalToString("1 < 2"), "true");
  EXPECT_EQ(EvalToString("\"a\" = \"a\""), "true");
  EXPECT_EQ(EvalToString("(1,2,3) = 2"), "true");   // existential
  EXPECT_EQ(EvalToString("(1,2,3) != 1"), "true");  // existential !=
  EXPECT_EQ(EvalToString("() = 1"), "false");
  EXPECT_EQ(EvalToString("1 eq 1"), "true");
  EXPECT_EQ(EvalToString("() eq 1"), "");
}

TEST(Eval, LogicShortCircuits) {
  EXPECT_EQ(EvalToString("true() or fn:error(\"boom\")"), "true");
  EXPECT_EQ(EvalToString("false() and fn:error(\"boom\")"), "false");
  EXPECT_EQ(EvalToString("not(false())"), "true");
}

TEST(Eval, FlworBasics) {
  EXPECT_EQ(EvalToString("for $x in (1,2,3) return $x * 2"), "2 4 6");
  EXPECT_EQ(EvalToString("for $x in 1 to 4 where $x mod 2 = 0 return $x"),
            "2 4");
  EXPECT_EQ(EvalToString("let $x := 5 return $x + 1"), "6");
  EXPECT_EQ(
      EvalToString("for $x in (1,2), $y in (10,20) return $x + $y"),
      "11 21 12 22");
}

TEST(Eval, FlworLoopLiftedNesting) {
  // Query Q5 from Section 3.1 of the paper.
  EXPECT_EQ(EvalToString("for $x in (10,20) return for $y in (100,200) "
                         "return let $z := ($x,$y) return $z"),
            "10 100 10 200 20 100 20 200");
}

TEST(Eval, FlworOrderBy) {
  EXPECT_EQ(EvalToString("for $x in (3,1,2) order by $x return $x"), "1 2 3");
  EXPECT_EQ(EvalToString("for $x in (3,1,2) order by $x descending return $x"),
            "3 2 1");
  EXPECT_EQ(EvalToString(
                "for $x in (\"b\",\"a\",\"c\") order by $x return $x"),
            "a b c");
}

TEST(Eval, FlworPositionalVar) {
  EXPECT_EQ(EvalToString("for $x at $i in (\"a\",\"b\") return $i"), "1 2");
}

TEST(Eval, Quantifiers) {
  EXPECT_EQ(EvalToString("some $x in (1,2,3) satisfies $x > 2"), "true");
  EXPECT_EQ(EvalToString("every $x in (1,2,3) satisfies $x > 2"), "false");
  EXPECT_EQ(EvalToString("every $x in () satisfies false()"), "true");
}

TEST(Eval, IfThenElse) {
  EXPECT_EQ(EvalToString("if (1 < 2) then \"y\" else \"n\""), "y");
  EXPECT_EQ(EvalToString("if (()) then \"y\" else \"n\""), "n");
}

TEST(Eval, StringBuiltins) {
  EXPECT_EQ(EvalToString("concat(\"a\", \"b\", \"c\")"), "abc");
  EXPECT_EQ(EvalToString("string-join((\"a\",\"b\"), \"-\")"), "a-b");
  EXPECT_EQ(EvalToString("substring(\"12345\", 2, 3)"), "234");
  EXPECT_EQ(EvalToString("contains(\"hello\", \"ell\")"), "true");
  EXPECT_EQ(EvalToString("starts-with(\"hello\", \"he\")"), "true");
  EXPECT_EQ(EvalToString("upper-case(\"abc\")"), "ABC");
  EXPECT_EQ(EvalToString("string-length(\"abcd\")"), "4");
  EXPECT_EQ(EvalToString("normalize-space(\"  a   b \")"), "a b");
  EXPECT_EQ(EvalToString("substring-before(\"a=b\", \"=\")"), "a");
  EXPECT_EQ(EvalToString("substring-after(\"a=b\", \"=\")"), "b");
}

TEST(Eval, StringLengthAndSubstringCountCharactersNotBytes) {
  // "é" is two UTF-8 bytes, "日" three and "😀" four; each is one
  // character, and substring never splits one.
  EXPECT_EQ(EvalToString("string-length(\"café\")"), "4");
  EXPECT_EQ(EvalToString("string-length(\"日本語\")"), "3");
  EXPECT_EQ(EvalToString("substring(\"café\", 4, 1)"), "é");
  EXPECT_EQ(EvalToString("substring(\"naïve\", 2, 3)"), "aïv");
  EXPECT_EQ(EvalToString("substring(\"日本語\", 2)"), "本語");
  EXPECT_EQ(EvalToString("substring(\"x😀y\", 2, 1)"), "😀");
  EXPECT_EQ(EvalToString("substring(\"x😀y\", 3)"), "y");
}

TEST(Eval, NumericBuiltins) {
  EXPECT_EQ(EvalToString("count((1,2,3))"), "3");
  EXPECT_EQ(EvalToString("sum((1,2,3))"), "6");
  EXPECT_EQ(EvalToString("avg((2,4))"), "3");
  EXPECT_EQ(EvalToString("min((3,1,2))"), "1");
  EXPECT_EQ(EvalToString("max((3,1,2))"), "3");
  EXPECT_EQ(EvalToString("abs(-4)"), "4");
  EXPECT_EQ(EvalToString("floor(2.7)"), "2");
  EXPECT_EQ(EvalToString("ceiling(2.1)"), "3");
  EXPECT_EQ(EvalToString("round(2.5)"), "3");
}

TEST(Eval, SequenceBuiltins) {
  EXPECT_EQ(EvalToString("empty(())"), "true");
  EXPECT_EQ(EvalToString("exists((1))"), "true");
  EXPECT_EQ(EvalToString("distinct-values((1, 2, 1, 3, 2))"), "1 2 3");
  EXPECT_EQ(EvalToString("reverse((1,2,3))"), "3 2 1");
  EXPECT_EQ(EvalToString("subsequence((1,2,3,4), 2, 2)"), "2 3");
  EXPECT_EQ(EvalToString("index-of((10,20,10), 10)"), "1 3");
  EXPECT_EQ(EvalToString("insert-before((1,3), 2, 2)"), "1 2 3");
  EXPECT_EQ(EvalToString("remove((1,2,3), 2)"), "1 3");
  EXPECT_EQ(EvalToString("zero-or-one(())"), "");
  EXPECT_TRUE(EvalToString("zero-or-one((1,2))").find("ERROR") == 0);
  EXPECT_TRUE(EvalToString("exactly-one(())").find("ERROR") == 0);
}

TEST(Eval, CastsAndConstructorFunctions) {
  EXPECT_EQ(EvalToString("xs:integer(\"42\") + 1"), "43");
  EXPECT_EQ(EvalToString("\"3\" cast as xs:double"), "3");
  EXPECT_EQ(EvalToString("3 instance of xs:integer"), "true");
  EXPECT_EQ(EvalToString("3 instance of xs:string"), "false");
  EXPECT_EQ(EvalToString("(1,2) instance of xs:integer+"), "true");
  EXPECT_EQ(EvalToString("\"x\" castable as xs:integer"), "false");
}

TEST(Eval, PathsOverDocument) {
  MapDocumentProvider docs;
  docs.AddDocument("filmDB.xml", kFilmDb);
  EXPECT_EQ(EvalToString("count(doc(\"filmDB.xml\")//film)", &docs), "3");
  EXPECT_EQ(EvalToString(
                "doc(\"filmDB.xml\")//name[../actor=\"Sean Connery\"]", &docs),
            "<name>The Rock</name> <name>Goldfinger</name>");
  EXPECT_EQ(
      EvalToString("string(doc(\"filmDB.xml\")/films/film[2]/name)", &docs),
      "Goldfinger");
  EXPECT_EQ(EvalToString("count(doc(\"filmDB.xml\")/films/film/actor)", &docs),
            "3");
}

TEST(Eval, PathPredicatesPositional) {
  MapDocumentProvider docs;
  docs.AddDocument("d.xml", "<r><x>1</x><x>2</x><x>3</x></r>");
  EXPECT_EQ(EvalToString("string(doc(\"d.xml\")//x[last()])", &docs), "3");
  EXPECT_EQ(EvalToString("string(doc(\"d.xml\")//x[position()=2])", &docs),
            "2");
  EXPECT_EQ(EvalToString("doc(\"d.xml\")//x[. > 1]", &docs),
            "<x>2</x> <x>3</x>");
}

TEST(Eval, AttributesAndParentAxis) {
  MapDocumentProvider docs;
  docs.AddDocument("p.xml",
                   R"(<people><person id="p1"><name>A</name></person>)"
                   R"(<person id="p2"><name>B</name></person></people>)");
  EXPECT_EQ(
      EvalToString("string(doc(\"p.xml\")//person[@id=\"p2\"]/name)", &docs),
      "B");
  EXPECT_EQ(
      EvalToString("string(doc(\"p.xml\")//name[. = \"A\"]/../@id)", &docs),
      "p1");
}

TEST(Eval, PathResultsDocOrderAndDedup) {
  MapDocumentProvider docs;
  docs.AddDocument("d.xml", "<r><a><b>1</b></a><a><b>2</b></a></r>");
  // Both (//a)//b and //b must yield b's in document order without dups.
  EXPECT_EQ(EvalToString("doc(\"d.xml\")//a//b | doc(\"d.xml\")//b", &docs),
            "<b>1</b> <b>2</b>");
}

TEST(Eval, UnionSortsByDocumentOrder) {
  MapDocumentProvider docs;
  docs.AddDocument("d.xml", "<r><a/><b/></r>");
  EXPECT_EQ(EvalToString("doc(\"d.xml\")//b | doc(\"d.xml\")//a", &docs),
            "<a/> <b/>");
}

TEST(Eval, ElementConstruction) {
  EXPECT_EQ(EvalToString("<a>{1 + 1}</a>"), "<a>2</a>");
  EXPECT_EQ(EvalToString("<a x=\"{1+1}\"/>"), "<a x=\"2\"/>");
  EXPECT_EQ(EvalToString("<a>{(1,2,3)}</a>"), "<a>1 2 3</a>");
  EXPECT_EQ(EvalToString("<a><b>text</b></a>"), "<a><b>text</b></a>");
  EXPECT_EQ(EvalToString("element foo { \"x\" }"), "<foo>x</foo>");
  EXPECT_EQ(EvalToString("element {concat(\"f\",\"oo\")} { () }"), "<foo/>");
  EXPECT_EQ(EvalToString("text { \"hi\" }"), "hi");
}

TEST(Eval, ConstructedNodesAreCopies) {
  MapDocumentProvider docs;
  docs.AddDocument("d.xml", "<r><x>1</x></r>");
  // The node inside the new element is a copy: its parent chain ends at the
  // constructed element, not the source document.
  EXPECT_EQ(EvalToString("count((<w>{doc(\"d.xml\")//x}</w>)/x/ancestor::r)",
                         &docs),
            "0");
}

TEST(Eval, UserFunctionsAndRecursion) {
  EXPECT_EQ(EvalToString(R"(
    declare function local:fact($n as xs:integer) as xs:integer {
      if ($n <= 1) then 1 else $n * local:fact($n - 1)
    };
    local:fact(5))"),
            "120");
}

TEST(Eval, FunctionParameterUpcast) {
  // Caller-side up-casting per the XRPC protocol: untyped/numeric values
  // are cast to the declared parameter type.
  EXPECT_EQ(EvalToString(R"(
    declare function local:f($s as xs:string) as xs:string { $s };
    local:f(<x>abc</x>))"),
            "abc");
}

TEST(Eval, RecursionLimit) {
  EXPECT_TRUE(EvalToString(R"(
    declare function local:f($n as xs:integer) { local:f($n + 1) };
    local:f(0))")
                  .find("ERROR") == 0);
}

TEST(Eval, ModuleFunctionCall) {
  MapDocumentProvider docs;
  docs.AddDocument("filmDB.xml", kFilmDb);
  MapModuleResolver modules;
  ASSERT_TRUE(modules.AddModule(kFilmModule).ok());
  EXPECT_EQ(EvalToString(R"(
      import module namespace f="films" at "http://x.example.org/film.xq";
      f:filmsByActor("Gerard Depardieu"))",
                         &docs, &modules),
            "<name>Green Card</name>");
}

TEST(Eval, ExecuteAtRunsRemoteFunction) {
  // Query Q1 from the paper, against a loopback peer.
  MapDocumentProvider docs;
  docs.AddDocument("filmDB.xml", kFilmDb);
  MapModuleResolver modules;
  ASSERT_TRUE(modules.AddModule(kFilmModule).ok());
  LoopbackRpcHandler rpc(&modules, &docs);
  EXPECT_EQ(EvalToString(R"(
      import module namespace f="films" at "http://x.example.org/film.xq";
      <films> {
        execute at {"xrpc://y.example.org"}
        {f:filmsByActor("Sean Connery")}
      } </films>)",
                         &docs, &modules, &rpc),
            "<films><name>The Rock</name><name>Goldfinger</name></films>");
  ASSERT_EQ(rpc.calls().size(), 1u);
  EXPECT_EQ(rpc.calls()[0].dest_uri, "xrpc://y.example.org");
  EXPECT_EQ(rpc.calls()[0].module_ns, "films");
  EXPECT_EQ(rpc.calls()[0].module_location, "http://x.example.org/film.xq");
  EXPECT_EQ(rpc.calls()[0].function.local, "filmsByActor");
}

TEST(Eval, ExecuteAtInLoopIssuesOneCallPerIteration) {
  // The interpreter is the "Saxon" role: one-at-a-time RPC.
  MapDocumentProvider docs;
  docs.AddDocument("filmDB.xml", kFilmDb);
  MapModuleResolver modules;
  ASSERT_TRUE(modules.AddModule(kFilmModule).ok());
  LoopbackRpcHandler rpc(&modules, &docs);
  EXPECT_EQ(EvalToString(R"(
      import module namespace f="films" at "http://x.example.org/film.xq";
      for $actor in ("Julie Andrews", "Sean Connery")
      return execute at {"xrpc://y.example.org"} {f:filmsByActor($actor)})",
                         &docs, &modules, &rpc),
            "<name>The Rock</name> <name>Goldfinger</name>");
  EXPECT_EQ(rpc.calls().size(), 2u);
}

TEST(Eval, XrpcHostAndPathHelpers) {
  EXPECT_EQ(EvalToString("xrpc:host(\"xrpc://b.org/auctions.xml\")"),
            "xrpc://b.org");
  EXPECT_EQ(EvalToString("xrpc:path(\"xrpc://b.org/auctions.xml\")"),
            "auctions.xml");
  EXPECT_EQ(EvalToString("xrpc:host(\"persons.xml\")"), "localhost");
  EXPECT_EQ(EvalToString("xrpc:path(\"persons.xml\")"), "persons.xml");
}

TEST(Eval, DeepEqual) {
  EXPECT_EQ(EvalToString("deep-equal(<a><b/></a>, <a><b/></a>)"), "true");
  EXPECT_EQ(EvalToString("deep-equal(<a><b/></a>, <a><c/></a>)"), "false");
  EXPECT_EQ(EvalToString("deep-equal((1,2), (1,2))"), "true");
}

TEST(Eval, NodeIdentityComparisons) {
  MapDocumentProvider docs;
  docs.AddDocument("d.xml", "<r><a/><b/></r>");
  EXPECT_EQ(EvalToString(
                "let $d := doc(\"d.xml\") return $d//a is $d//a", &docs),
            "true");
  EXPECT_EQ(EvalToString(
                "let $d := doc(\"d.xml\") return $d//a << $d//b", &docs),
            "true");
  // Two construction evaluations create distinct identities.
  EXPECT_EQ(EvalToString("<a/> is <a/>"), "false");
}

TEST(Eval, NameBuiltins) {
  EXPECT_EQ(EvalToString("name(<foo/>)"), "foo");
  EXPECT_EQ(EvalToString("local-name(<foo/>)"), "foo");
}

// ---- XQUF pending update lists ----

class UpdateTest : public ::testing::Test {
 protected:
  // Evaluates an updating query, applies the PUL, and returns the
  // serialized document.
  std::string RunUpdate(const std::string& query, const std::string& doc_xml) {
    MapDocumentProvider docs;
    docs.AddDocument("d.xml", doc_xml);
    auto parsed = ParseMainModule(query);
    if (!parsed.ok()) return "PARSE ERROR: " + parsed.status().ToString();
    Interpreter::Config config;
    config.documents = &docs;
    Interpreter interp(config);
    auto result = interp.EvaluateQuery(parsed.value());
    if (!result.ok()) return "EVAL ERROR: " + result.status().ToString();
    // XQUF: no visible effects until applyUpdates.
    auto before = docs.GetDocument("d.xml");
    std::string snapshot = xml::SerializeNode(*before.value());
    Status st = ApplyUpdates(&result.value().updates, nullptr);
    if (!st.ok()) return "APPLY ERROR: " + st.ToString();
    auto after = docs.GetDocument("d.xml");
    EXPECT_EQ(snapshot_before_apply_, "");
    return xml::SerializeNode(*after.value());
  }

  std::string snapshot_before_apply_;
};

TEST_F(UpdateTest, InsertInto) {
  EXPECT_EQ(RunUpdate("insert nodes <c/> into doc(\"d.xml\")/r", "<r><a/></r>"),
            "<r><a/><c/></r>");
}

TEST_F(UpdateTest, InsertFirstAndBeforeAfter) {
  EXPECT_EQ(RunUpdate("insert nodes <z/> as first into doc(\"d.xml\")/r",
                      "<r><a/></r>"),
            "<r><z/><a/></r>");
  EXPECT_EQ(
      RunUpdate("insert nodes <z/> before doc(\"d.xml\")/r/b", "<r><b/></r>"),
      "<r><z/><b/></r>");
  EXPECT_EQ(
      RunUpdate("insert nodes <z/> after doc(\"d.xml\")/r/b",
                "<r><b/><c/></r>"),
      "<r><b/><z/><c/></r>");
}

TEST_F(UpdateTest, DeleteNodes) {
  EXPECT_EQ(RunUpdate("delete nodes doc(\"d.xml\")//b", "<r><a/><b/><b/></r>"),
            "<r><a/></r>");
}

TEST_F(UpdateTest, ReplaceNodeAndValue) {
  EXPECT_EQ(RunUpdate("replace node doc(\"d.xml\")/r/a with <n/>",
                      "<r><a/></r>"),
            "<r><n/></r>");
  EXPECT_EQ(RunUpdate("replace value of node doc(\"d.xml\")/r/a with \"new\"",
                      "<r><a>old</a></r>"),
            "<r><a>new</a></r>");
}

TEST_F(UpdateTest, RenameNode) {
  EXPECT_EQ(RunUpdate("rename node doc(\"d.xml\")/r/a as \"b\"",
                      "<r><a>x</a></r>"),
            "<r><b>x</b></r>");
}

TEST_F(UpdateTest, UpdatesAreDeferredUntilApply) {
  MapDocumentProvider docs;
  docs.AddDocument("d.xml", "<r><a/></r>");
  auto parsed = ParseMainModule("insert nodes <c/> into doc(\"d.xml\")/r");
  ASSERT_TRUE(parsed.ok());
  Interpreter::Config config;
  config.documents = &docs;
  Interpreter interp(config);
  auto result = interp.EvaluateQuery(parsed.value());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->sequence.empty());
  EXPECT_EQ(result->updates.size(), 1u);
  // Database state unchanged before applyUpdates (XQUF deferral).
  EXPECT_EQ(xml::SerializeNode(*docs.GetDocument("d.xml").value()),
            "<r><a/></r>");
  ASSERT_TRUE(ApplyUpdates(&result.value().updates, nullptr).ok());
  EXPECT_EQ(xml::SerializeNode(*docs.GetDocument("d.xml").value()),
            "<r><a/><c/></r>");
}

TEST_F(UpdateTest, InsertedContentIsACopy) {
  MapDocumentProvider docs;
  docs.AddDocument("d.xml", "<r><src>v</src><dst/></r>");
  auto parsed = ParseMainModule(
      "insert nodes doc(\"d.xml\")//src into doc(\"d.xml\")//dst");
  ASSERT_TRUE(parsed.ok());
  Interpreter::Config config;
  config.documents = &docs;
  Interpreter interp(config);
  auto result = interp.EvaluateQuery(parsed.value());
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(ApplyUpdates(&result.value().updates, nullptr).ok());
  // Source still present; destination holds a copy.
  EXPECT_EQ(xml::SerializeNode(*docs.GetDocument("d.xml").value()),
            "<r><src>v</src><dst><src>v</src></dst></r>");
}

TEST_F(UpdateTest, UpdatingFunctionProducesPul) {
  MapDocumentProvider docs;
  docs.AddDocument("filmDB.xml", kFilmDb);
  MapModuleResolver modules;
  ASSERT_TRUE(modules
                  .AddModule(R"(
    module namespace upd = "updates";
    declare updating function upd:addFilm($name as xs:string, $actor as xs:string)
    { insert nodes <film><name>{$name}</name><actor>{$actor}</actor></film>
      into doc("filmDB.xml")/films };)")
                  .ok());
  auto parsed = ParseMainModule(R"(
      import module namespace u="updates" at "upd.xq";
      u:addFilm("Dr. No", "Sean Connery"))");
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  Interpreter::Config config;
  config.documents = &docs;
  config.modules = &modules;
  Interpreter interp(config);
  auto result = interp.EvaluateQuery(parsed.value());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->updates.size(), 1u);
  ASSERT_TRUE(ApplyUpdates(&result.value().updates, nullptr).ok());
  MapDocumentProvider verify;
  EXPECT_EQ(EvalToString("count(doc(\"filmDB.xml\")//film)", &docs), "4");
}

}  // namespace
}  // namespace xrpc::xquery
