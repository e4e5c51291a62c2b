// Microbenchmarks (google-benchmark) for the substrate operations whose
// costs dominate the paper's experiments: XML parsing (treebuild) and the
// DOM's bytes per node, serialization, SOAP marshaling, bulk
// request encoding, the encode/decode of a large shipped response, the
// descendant-path probes of a shard's point read and ship call, and a
// warm point read through a shard's service.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <functional>

#include "compiler/loop_lift.h"
#include "core/peer_network.h"
#include "soap/message.h"
#include "xmark/xmark.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/functions.h"
#include "xquery/interpreter.h"
#include "xquery/normalize.h"
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

// ---- Descendant-path probes (DESIGN.md §6). One shard's auctions.xml of
// the ship and point_mix workloads: 500 closed auctions.

std::string ProbeAuctions() {
  xrpc::xmark::XmarkConfig cfg;
  cfg.num_closed_auctions = 500;
  return xrpc::xmark::GenerateAuctions(cfg);
}

// Queries through PeerNetwork::Execute, which normalizes paths: `//` as
// b:Q_B1 and b:Q_B3 write it, the `descendant::` form it becomes, and a
// predicate that keeps the per-parent plan because it is positional.
const char* const kPathProbes[] = {
    "doc(\"auctions.xml\")//closed_auction",
    "doc(\"auctions.xml\")/descendant::closed_auction",
    "for $p in (\"person3\") return "
    "doc(\"auctions.xml\")//closed_auction[./buyer/@person=$p]",
    "doc(\"auctions.xml\")//closed_auction[1]",
};

void BM_PathProbe(benchmark::State& state) {
  const bool relational = state.range(0) == 0;
  const char* query = kPathProbes[state.range(1)];
  xrpc::core::PeerNetwork net;
  xrpc::core::Peer* p0 =
      net.AddPeer("p0", relational ? xrpc::core::EngineKind::kRelational
                                   : xrpc::core::EngineKind::kInterpreter);
  (void)p0->AddDocument("auctions.xml", ProbeAuctions());
  for (auto _ : state) {
    auto report = net.Execute("p0", query);
    if (!report.ok() || report->used_relational != relational) {
      state.SkipWithError("probe query failed or ran on the wrong engine");
      break;
    }
    benchmark::DoNotOptimize(report);
  }
  state.SetLabel(std::string(relational ? "relational: " : "interpreter: ") +
                 query);
}
BENCHMARK(BM_PathProbe)
    ->ArgsProduct({{0, 1}, {0, 1, 2, 3}})
    ->Unit(benchmark::kMicrosecond);

// A constructor in a loop, through PeerNetwork::Execute: the relational
// engine evaluates the attribute and content operands loop-lifted and
// builds each iteration's element through the shared constructor library
// in one pass over the operand tables.
void BM_ElementConstructorLoop(benchmark::State& state, bool relational) {
  const std::string query = "for $x in 1 to " +
                            std::to_string(state.range(0)) +
                            " return <a b=\"{$x}\">{$x}</a>";
  xrpc::core::PeerNetwork net;
  net.AddPeer("p0", relational ? xrpc::core::EngineKind::kRelational
                               : xrpc::core::EngineKind::kInterpreter);
  for (auto _ : state) {
    auto report = net.Execute("p0", query);
    if (!report.ok() || report->used_relational != relational) {
      state.SkipWithError("constructor loop failed or ran on the wrong engine");
      break;
    }
    benchmark::DoNotOptimize(report);
  }
}
BENCHMARK_CAPTURE(BM_ElementConstructorLoop, relational, true)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ElementConstructorLoop, interpreter, false)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

// The server side of semijoin's Bulk RPC: one b:Q_B3 request of 62 calls,
// evaluated the way each engine serves it (the interpreter call by call in
// one evaluation, the relational engine as one loop of 62 iterations). The
// path index and its join index turn the calls into one candidate scan
// plus 62 probes; without them every call re-filters the shard.
void BM_BulkQB3(benchmark::State& state, bool relational) {
  class Docs : public xrpc::xquery::DocumentProvider {
   public:
    Docs() : doc_(xrpc::xml::ParseXml(ProbeAuctions()).value()) {}
    xrpc::StatusOr<xrpc::xml::NodePtr> GetDocument(
        const std::string&) override {
      return doc_;
    }

   private:
    xrpc::xml::NodePtr doc_;
  } docs;
  auto module = xrpc::xquery::ParseLibraryModule(
                    xrpc::xmark::FunctionsBModuleSource("xrpc://A"))
                    .value();
  xrpc::xquery::NormalizePaths(&module);
  const xrpc::xquery::FunctionDef* q_b3 = module.FindFunction(
      xrpc::xml::QName("functions_b", "Q_B3"), 1);
  constexpr int kCalls = 62;
  std::vector<std::vector<Sequence>> calls;
  xrpc::algebra::Table pids;
  for (int i = 0; i < kCalls; ++i) {
    Item pid(AtomicValue::String("person" + std::to_string(i)));
    calls.push_back({Sequence{pid}});
    pids.AppendIPI(i + 1, 1, pid);
  }
  xrpc::xquery::Interpreter interp({.documents = &docs});
  for (auto _ : state) {
    bool ok;
    if (relational) {
      xrpc::compiler::LoopLiftedEvaluator eval({.documents = &docs});
      auto results = eval.EvaluateFunctionBulk(module, *q_b3, {pids}, kCalls);
      ok = results.ok();
      benchmark::DoNotOptimize(results);
    } else {
      auto results = interp.CallModuleFunction(module, *q_b3, calls);
      ok = results.ok();
      benchmark::DoNotOptimize(results);
    }
    if (!ok) {
      state.SkipWithError("bulk Q_B3 failed");
      break;
    }
  }
}
BENCHMARK_CAPTURE(BM_BulkQB3, relational, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_BulkQB3, interpreter, false)
    ->Unit(benchmark::kMicrosecond);

// A point_mix read on a warm shard: one 1-call b:Q_B3 request decoded,
// executed and encoded by the shard's XrpcService. The service's path
// index spans requests, so after the first request each read is one
// join-index probe on either engine (DESIGN.md §6).
void BM_WarmPointRead(benchmark::State& state, bool relational) {
  xrpc::core::PeerNetwork net;
  xrpc::core::Peer* shard =
      net.AddPeer("shard", relational ? xrpc::core::EngineKind::kRelational
                                      : xrpc::core::EngineKind::kInterpreter);
  (void)shard->AddDocument("auctions.xml", ProbeAuctions());
  (void)shard->RegisterModule(
      xrpc::xmark::FunctionsBModuleSource(shard->uri()), "b.xq");
  xrpc::soap::XrpcRequest request;
  request.module_ns = "functions_b";
  request.method = "Q_B3";
  request.location = "b.xq";
  request.arity = 1;
  request.calls.push_back({xrpc::xdm::SingletonString("person3")});
  const std::string body = xrpc::soap::SerializeRequest(request);
  for (auto _ : state) {
    auto reply = shard->service().Handle("/xrpc", body);
    if (!reply.ok()) {
      state.SkipWithError("point read failed");
      break;
    }
    benchmark::DoNotOptimize(reply);
  }
}
BENCHMARK_CAPTURE(BM_WarmPointRead, relational, true)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_WarmPointRead, interpreter, false)
    ->Unit(benchmark::kMicrosecond);

// Heap bytes the parsed probe document occupies per DOM node (elements,
// attributes, text), read from the allocator around one parse. Nodes of
// one parse share one name object per distinct name.
void BM_ParseBytesPerNode(benchmark::State& state) {
  const std::string text = ProbeAuctions();
  double bytes_per_node = 0;
  for (auto _ : state) {
    const size_t before = mallinfo2().uordblks;
    auto doc = xrpc::xml::ParseXml(text).value();
    const size_t after = mallinfo2().uordblks;
    int64_t nodes = 0;
    std::function<void(const xrpc::xml::Node&)> count =
        [&](const xrpc::xml::Node& n) {
          nodes += 1 + static_cast<int64_t>(n.attributes().size());
          for (const xrpc::xml::NodePtr& c : n.children()) count(*c);
        };
    count(*doc);
    bytes_per_node = static_cast<double>(after - before) /
                     static_cast<double>(nodes);
    state.counters["nodes"] = static_cast<double>(nodes);
  }
  state.counters["bytes_per_node"] = bytes_per_node;
  state.counters["sizeof_node"] = sizeof(xrpc::xml::Node);
}
BENCHMARK(BM_ParseBytesPerNode)->Unit(benchmark::kMicrosecond);

// The bare walk `descendant-or-self::node()` over the probe document:
// arg 0 is the shared DOM walk (xquery::CollectAxis) alone, 1 and 2 the
// same step as a query on the relational and the interpreter engine.
// items_per_second counts visited nodes, so its inverse is the per-node
// cost.
void BM_DescendantOrSelfWalk(benchmark::State& state) {
  const std::string text = ProbeAuctions();
  auto doc = xrpc::xml::ParseXml(text).value();
  xrpc::xquery::NodeTest any;
  any.kind = xrpc::xquery::NodeTest::Kind::kAnyKind;
  Sequence nodes;
  xrpc::xquery::CollectAxis(Item::NodeInTree(doc.get(), doc),
                            xrpc::xquery::Axis::kDescendantOrSelf, any,
                            &nodes);
  const int64_t num_nodes = static_cast<int64_t>(nodes.size());
  xrpc::core::PeerNetwork net;
  (void)net.AddPeer("rel", xrpc::core::EngineKind::kRelational)
      ->AddDocument("auctions.xml", text);
  (void)net.AddPeer("int", xrpc::core::EngineKind::kInterpreter)
      ->AddDocument("auctions.xml", text);
  const char* query = "doc(\"auctions.xml\")/descendant-or-self::node()";
  for (auto _ : state) {
    if (state.range(0) == 0) {
      Sequence out;
      xrpc::xquery::CollectAxis(Item::NodeInTree(doc.get(), doc),
                                xrpc::xquery::Axis::kDescendantOrSelf, any,
                                &out);
      benchmark::DoNotOptimize(out);
    } else {
      auto report = net.Execute(state.range(0) == 1 ? "rel" : "int", query);
      benchmark::DoNotOptimize(report);
    }
  }
  state.SetItemsProcessed(state.iterations() * num_nodes);
  state.SetLabel(std::to_string(num_nodes) + " nodes");
}
BENCHMARK(BM_DescendantOrSelfWalk)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Unit(benchmark::kMicrosecond);

void BM_QueryParse(benchmark::State& state) {
  std::string module = xrpc::xmark::FunctionsBModuleSource("xrpc://A");
  for (auto _ : state) {
    auto parsed = xrpc::xquery::ParseLibraryModule(module);
    benchmark::DoNotOptimize(parsed);
  }
}
BENCHMARK(BM_QueryParse);

}  // namespace
