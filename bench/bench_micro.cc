// Microbenchmarks (google-benchmark) for the substrate operations whose
// costs dominate the paper's experiments: XML parsing (treebuild),
// serialization, shredding, SOAP marshaling, bulk request encoding, and the
// encode/decode of a large shipped response.

#include <benchmark/benchmark.h>

#include "shred/shredded_doc.h"
#include "soap/message.h"
#include "xmark/xmark.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/interpreter.h"
#include "xquery/parser.h"

namespace {

using xrpc::xdm::AtomicValue;
using xrpc::xdm::Item;
using xrpc::xdm::Sequence;

std::string PersonsDoc(int persons) {
  xrpc::xmark::XmarkConfig cfg;
  cfg.num_persons = persons;
  return xrpc::xmark::GeneratePersons(cfg);
}

void BM_XmlParse(benchmark::State& state) {
  std::string doc = PersonsDoc(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto parsed = xrpc::xml::ParseXml(doc);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_XmlParse)->Arg(100)->Arg(1000)->Arg(5000);

void BM_XmlSerialize(benchmark::State& state) {
  std::string doc = PersonsDoc(static_cast<int>(state.range(0)));
  auto parsed = xrpc::xml::ParseXml(doc).value();
  for (auto _ : state) {
    std::string out = xrpc::xml::SerializeNode(*parsed);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(doc.size()));
}
BENCHMARK(BM_XmlSerialize)->Arg(100)->Arg(1000)->Arg(5000);

void BM_Shred(benchmark::State& state) {
  auto parsed =
      xrpc::xml::ParseXml(PersonsDoc(static_cast<int>(state.range(0))))
          .value();
  for (auto _ : state) {
    auto shredded = xrpc::shred::ShreddedDoc::Shred(parsed);
    benchmark::DoNotOptimize(shredded);
  }
}
BENCHMARK(BM_Shred)->Arg(100)->Arg(1000)->Arg(5000);

void BM_StaircaseDescendantScan(benchmark::State& state) {
  auto parsed = xrpc::xml::ParseXml(PersonsDoc(5000)).value();
  auto shredded = xrpc::shred::ShreddedDoc::Shred(parsed);
  int32_t name_id = shredded->NameId(xrpc::xml::QName("person"));
  for (auto _ : state) {
    auto hits = shredded->DescendantElements(0, name_id);
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_StaircaseDescendantScan);

void BM_MarshalSequence(benchmark::State& state) {
  xrpc::soap::XrpcResponse resp;
  Sequence& seq = resp.results.emplace_back();
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    seq.push_back(Item(AtomicValue::Integer(i)));
    seq.push_back(Item(AtomicValue::String("value-" + std::to_string(i))));
  }
  for (auto _ : state) {
    std::string wire = xrpc::soap::SerializeResponse(resp);
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_MarshalSequence)->Arg(10)->Arg(1000);

void CollectClosedAuctions(const xrpc::xml::NodePtr& anchor,
                           xrpc::xml::Node* node, Sequence* out) {
  if (node->kind() == xrpc::xml::NodeKind::kElement &&
      node->name().local == "closed_auction") {
    out->push_back(Item::NodeInTree(node, anchor));
    return;
  }
  for (const xrpc::xml::NodePtr& c : node->children()) {
    CollectClosedAuctions(anchor, c.get(), out);
  }
}

// One shard's answer to the ship workload's b:Q_B1(): a single sequence of
// 500 closed_auction elements with 256 B annotations (about 240 KB). The
// items stay in `*doc`, as a server's results stay in its documents.
xrpc::soap::XrpcResponse ClosedAuctionsResponse(xrpc::xml::NodePtr* doc) {
  xrpc::xmark::XmarkConfig cfg;
  cfg.num_closed_auctions = 500;
  cfg.annotation_bytes = 256;
  *doc = xrpc::xml::ParseXml(xrpc::xmark::GenerateAuctions(cfg)).value();
  xrpc::soap::XrpcResponse resp;
  resp.module_ns = "functions_b";
  resp.method = "Q_B1";
  CollectClosedAuctions(*doc, doc->get(), &resp.results.emplace_back());
  return resp;
}

void BM_ResponseEncode(benchmark::State& state) {
  xrpc::xml::NodePtr doc;
  xrpc::soap::XrpcResponse resp = ClosedAuctionsResponse(&doc);
  size_t bytes = 0;
  for (auto _ : state) {
    std::string wire = xrpc::soap::SerializeResponse(resp);
    bytes = wire.size();
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bytes));
}
BENCHMARK(BM_ResponseEncode);

void BM_ResponseDecode(benchmark::State& state) {
  xrpc::xml::NodePtr doc;
  std::string wire =
      xrpc::soap::SerializeResponse(ClosedAuctionsResponse(&doc));
  for (auto _ : state) {
    auto parsed = xrpc::soap::ParseResponse(wire);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_ResponseDecode);

void BM_BulkRequestEncode(benchmark::State& state) {
  xrpc::soap::XrpcRequest req;
  req.module_ns = "films";
  req.method = "filmsByActor";
  req.arity = 1;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    req.calls.push_back(
        {Sequence{Item(AtomicValue::String("Actor " + std::to_string(i)))}});
  }
  for (auto _ : state) {
    std::string wire = xrpc::soap::SerializeRequest(req);
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_BulkRequestEncode)->Arg(1)->Arg(100)->Arg(1000);

void BM_BulkRequestDecode(benchmark::State& state) {
  xrpc::soap::XrpcRequest req;
  req.module_ns = "films";
  req.method = "filmsByActor";
  req.arity = 1;
  for (int i = 0; i < static_cast<int>(state.range(0)); ++i) {
    req.calls.push_back(
        {Sequence{Item(AtomicValue::String("Actor " + std::to_string(i)))}});
  }
  std::string wire = xrpc::soap::SerializeRequest(req);
  for (auto _ : state) {
    auto parsed = xrpc::soap::ParseRequest(wire);
    benchmark::DoNotOptimize(parsed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(wire.size()));
}
BENCHMARK(BM_BulkRequestDecode)->Arg(1)->Arg(100)->Arg(1000);

void BM_QueryParse(benchmark::State& state) {
  std::string module = xrpc::xmark::FunctionsBModuleSource("xrpc://A");
  for (auto _ : state) {
    auto parsed = xrpc::xquery::ParseLibraryModule(module);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_QueryParse);

}  // namespace
