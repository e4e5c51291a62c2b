// Tests for the XRPC wrapper (Section 4): the generated Figure-3 query and
// the wrapper engine serving single and bulk requests over the
// interpreter.

#include <gtest/gtest.h>

#include "server/database.h"
#include "server/module_registry.h"
#include "server/query_scope.h"
#include "soap/message.h"
#include "wrapper/codegen.h"
#include "wrapper/wrapper_engine.h"
#include "xml/serializer.h"

namespace xrpc::wrapper {
namespace {

using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;

constexpr char kPersonsDoc[] =
    R"(<site><people>)"
    R"(<person id="person0"><name>Kasidit Treweek</name></person>)"
    R"(<person id="person1"><name>Jaak Tempesti</name></person>)"
    R"(<person id="person2"><name>Cong Morvan</name></person>)"
    R"(</people></site>)";

constexpr char kFunctionsModule[] = R"(
  module namespace func = "functions";
  declare function func:getPerson($doc as xs:string, $pid as xs:string)
    as node()?
  { zero-or-one(doc($doc)//person[@id=$pid]) };
  declare function func:echoVoid() { () };
  declare function func:add($a as xs:integer, $b as xs:integer)
    as xs:integer
  { $a + $b };
)";

soap::XrpcRequest GetPersonRequest(std::vector<std::string> pids) {
  soap::XrpcRequest req;
  req.module_ns = "functions";
  req.method = "getPerson";
  req.location = "http://example.org/functions.xq";
  req.arity = 2;
  for (std::string& pid : pids) {
    req.calls.push_back(
        {Sequence{Item(AtomicValue::String("persons.xml"))},
         Sequence{Item(AtomicValue::String(std::move(pid)))}});
  }
  return req;
}

class WrapperTest : public ::testing::Test {
 protected:
  WrapperTest() {
    EXPECT_TRUE(db_.PutDocumentText("persons.xml", kPersonsDoc).ok());
    EXPECT_TRUE(registry_.RegisterModule(kFunctionsModule,
                                         "http://example.org/functions.xq")
                    .ok());
    context_.documents = &docs_;
    context_.modules = &registry_;
  }

  server::Database db_;
  server::DocumentResolver docs_{&db_, /*session=*/nullptr, /*client=*/nullptr,
                                 /*catalog=*/nullptr, ""};
  server::ModuleRegistry registry_;
  server::CallContext context_;
  WrapperEngine engine_;
};

TEST_F(WrapperTest, GeneratedQueryMatchesFigure3Shape) {
  auto req = GetPersonRequest({"person1"});
  auto module = registry_.Resolve("functions", "");
  ASSERT_TRUE(module.ok());
  const xquery::FunctionDef* def =
      module.value()->FindFunction(xml::QName("functions", "getPerson"), 2);
  ASSERT_NE(def, nullptr);
  auto query = GenerateWrapperQuery(req, *def);
  ASSERT_TRUE(query.ok()) << query.status();
  const std::string& q = query.value();
  // The structural elements of Figure 3.
  EXPECT_NE(q.find("import module namespace func = \"functions\""),
            std::string::npos);
  EXPECT_NE(q.find("at \"http://example.org/functions.xq\""),
            std::string::npos);
  EXPECT_NE(q.find("<env:Envelope"), std::string::npos);
  EXPECT_NE(q.find("<xrpc:response"), std::string::npos);
  EXPECT_NE(q.find("for $call in doc(\"" + std::string(kRequestDocName) +
                   "\")//xrpc:call"),
            std::string::npos);
  EXPECT_NE(q.find("let $param1"), std::string::npos);
  EXPECT_NE(q.find("let $param2"), std::string::npos);
  EXPECT_NE(q.find("func:getPerson($param1, $param2)"), std::string::npos);
}

TEST_F(WrapperTest, ServesSingleCall) {
  auto req = GetPersonRequest({"person1"});
  xquery::PendingUpdateList pul;
  auto results = engine_.ExecuteRequest(req, context_, &pul);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 1u);
  ASSERT_EQ(results.value()[0].size(), 1u);
  EXPECT_EQ(xml::SerializeNode(*results.value()[0][0].node()),
            R"(<person id="person1"><name>Jaak Tempesti</name></person>)");
}

TEST_F(WrapperTest, ServesBulkRequestAsOneQuery) {
  auto req = GetPersonRequest({"person2", "person0", "no-such-person"});
  xquery::PendingUpdateList pul;
  auto results = engine_.ExecuteRequest(req, context_, &pul);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ(results.value()[0][0].node()->StringValue(), "Cong Morvan");
  EXPECT_EQ(results.value()[1][0].node()->StringValue(), "Kasidit Treweek");
  EXPECT_TRUE(results.value()[2].empty());
}

TEST_F(WrapperTest, ResultNodesAreFreshFragments) {
  auto req = GetPersonRequest({"person0"});
  xquery::PendingUpdateList pul;
  auto results = engine_.ExecuteRequest(req, context_, &pul);
  ASSERT_TRUE(results.ok());
  const xml::Node* person = results.value()[0][0].node();
  // Call-by-value: no upward path to the stored document or SOAP message.
  EXPECT_EQ(person->parent(), nullptr);
}

TEST_F(WrapperTest, AtomicResultsCarryTypes) {
  soap::XrpcRequest req;
  req.module_ns = "functions";
  req.method = "add";
  req.arity = 2;
  req.calls.push_back({Sequence{Item(AtomicValue::Integer(20))},
                       Sequence{Item(AtomicValue::Integer(22))}});
  xquery::PendingUpdateList pul;
  auto results = engine_.ExecuteRequest(req, context_, &pul);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results.value()[0].size(), 1u);
  EXPECT_EQ(results.value()[0][0].atomic().type(),
            xdm::AtomicType::kInteger);
  EXPECT_EQ(results.value()[0][0].atomic().AsInteger(), 42);
}

TEST_F(WrapperTest, EchoVoidBulk) {
  soap::XrpcRequest req;
  req.module_ns = "functions";
  req.method = "echoVoid";
  req.arity = 0;
  for (int i = 0; i < 10; ++i) req.calls.push_back({});
  xquery::PendingUpdateList pul;
  auto results = engine_.ExecuteRequest(req, context_, &pul);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 10u);
  for (const Sequence& r : results.value()) EXPECT_TRUE(r.empty());
}

TEST_F(WrapperTest, TimingsAreRecorded) {
  auto req = GetPersonRequest({"person0"});
  xquery::PendingUpdateList pul;
  ASSERT_TRUE(engine_.ExecuteRequest(req, context_, &pul).ok());
  const WrapperEngine::Timings& t = engine_.last_timings();
  EXPECT_GT(t.total_us, 0);
  EXPECT_GE(t.total_us, t.exec_us);
  EXPECT_FALSE(engine_.last_generated_query().empty());
}

TEST_F(WrapperTest, UnknownFunctionFails) {
  soap::XrpcRequest req;
  req.module_ns = "functions";
  req.method = "nope";
  req.arity = 0;
  req.calls.push_back({});
  xquery::PendingUpdateList pul;
  EXPECT_FALSE(engine_.ExecuteRequest(req, context_, &pul).ok());
}

}  // namespace
}  // namespace xrpc::wrapper
