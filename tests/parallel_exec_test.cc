// Determinism lane of the parallelism that runs around the (serial)
// loop-lifted engine: the same query on the same fixtures must produce
// BYTE-IDENTICAL output at every worker count — 1, 2 and 8. Two kinds of
// workers remain:
//
//  1. concurrent query workers: threads that each evaluate queries on their
//     own peer networks inside one process, the way HttpServer workers
//     evaluate concurrent requests. Any process-wide state the engines
//     share (DESIGN.md §15's shared-state audit) would show up here as a
//     divergence from the single-worker run — or as a TSan report;
//  2. the pooled multi-destination Bulk RPC dispatch
//     (PeerNetwork::EnableParallelDispatch), whose out-of-order completions
//     must map back to the serial, shard-rank-ordered merge.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/peer_network.h"
#include "fuzz/differential.h"
#include "fuzz/generator.h"
#include "xdm/item.h"
#include "xmark/shard_loader.h"
#include "xmark/xmark.h"

namespace xrpc::fuzz {
namespace {

#ifndef XRPC_CORPUS_DIR
#error "XRPC_CORPUS_DIR must point at tests/corpus"
#endif

bool IsUpdating(const std::string& text) {
  return text.find("insert nodes") != std::string::npos ||
         text.find("delete nodes") != std::string::npos ||
         text.find("replace value") != std::string::npos ||
         text.find("rename node") != std::string::npos ||
         text.find("put(") != std::string::npos;
}

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(XRPC_CORPUS_DIR)) {
    if (entry.path().extension() == ".xq") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Runs `queries` on `workers` concurrent threads, each owning its own
/// differential harness; worker w takes queries w, w + workers, ... so
/// every query runs exactly once. Returns the comparisons in query order.
std::vector<Comparison> RunOnWorkers(const std::vector<std::string>& queries,
                                     int workers) {
  std::vector<Comparison> out(queries.size());
  std::vector<std::thread> threads;
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&queries, &out, workers, w] {
      DifferentialHarness harness;
      for (size_t i = w; i < queries.size(); i += workers) {
        out[i] = harness.Run(queries[i], IsUpdating(queries[i]));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

TEST(ParallelExecTest, CorpusAgreesAtEveryWorkerCount) {
  const auto files = CorpusFiles();
  ASSERT_GE(files.size(), 10u);
  std::vector<std::string> queries;
  for (const auto& path : files) queries.push_back(ReadFile(path));

  // Per-file results, keyed by worker count; column-wise identity below.
  std::map<int, std::vector<std::string>> results;
  for (int workers : {1, 2, 8}) {
    const std::vector<Comparison> runs = RunOnWorkers(queries, workers);
    for (size_t i = 0; i < files.size(); ++i) {
      const Comparison& c = runs[i];
      // Agreement with the interpreter at every worker count: concurrent
      // evaluation stayed correct, not just consistent.
      EXPECT_TRUE(c.agree) << files[i].filename() << " workers=" << workers
                           << "\n  relational : " << c.relational_result
                           << "\n  interpreter: " << c.interpreter_result;
      results[workers].push_back(c.relational_result + "\n" +
                                 c.relational_state);
    }
  }
  // Byte-identity across worker counts, file by file.
  for (size_t i = 0; i < files.size(); ++i) {
    EXPECT_EQ(results[2][i], results[1][i])
        << files[i].filename() << ": workers=2 diverged from one worker";
    EXPECT_EQ(results[8][i], results[1][i])
        << files[i].filename() << ": workers=8 diverged from one worker";
  }
}

TEST(ParallelExecTest, SeededRandomQueriesAreByteIdenticalAcrossWorkers) {
  // Generator-driven sweep: one seeded query stream executed by 1, 2 and 8
  // concurrent workers. Updating queries are left out (the corpus test
  // covers XQUF).
  GeneratorConfig gcfg;
  gcfg.seed = 20260809;
  gcfg.update_ratio = 0.0;
  QueryGenerator gen(gcfg);
  std::vector<std::string> queries;
  for (int i = 0; i < 40; ++i) queries.push_back(gen.Next().Text());

  const std::vector<Comparison> serial = RunOnWorkers(queries, 1);
  for (int workers : {2, 8}) {
    const std::vector<Comparison> runs = RunOnWorkers(queries, workers);
    for (size_t i = 0; i < queries.size(); ++i) {
      EXPECT_EQ(runs[i].relational_ok, serial[i].relational_ok)
          << "query " << i << " workers=" << workers << ": " << queries[i];
      EXPECT_EQ(runs[i].relational_result, serial[i].relational_result)
          << "query " << i << " workers=" << workers << ": " << queries[i];
    }
  }
}

// ---------------------------------------------------------------------------
// Sharded scatter-gather fixtures under pooled Bulk RPC dispatch.

constexpr char kImportB[] =
    "import module namespace b=\"functions_b\" at \"b.xq\";\n";

const char kShardSemiJoin[] = R"(
for $p in doc("persons.xml")//person
let $ca := execute at {"shard:auctions.xml"} {b:Q_B3(string($p/@id))}
return if (empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>)";

const char kShardBroadcast[] =
    R"(execute at {"shard:auctions.xml"} {b:Q_B1()})";

xmark::XmarkConfig ShardFixtureConfig() {
  xmark::XmarkConfig cfg;
  cfg.num_persons = 24;
  cfg.num_closed_auctions = 40;
  cfg.num_matches = 6;
  cfg.annotation_bytes = 16;
  return cfg;
}

/// `dispatch_threads` 0 keeps the serial dispatch default.
std::unique_ptr<core::PeerNetwork> MakeShardedNetwork(int num_shards,
                                                      int dispatch_threads) {
  auto net = std::make_unique<core::PeerNetwork>();
  xmark::ShardLoadOptions opts;
  opts.num_shards = num_shards;
  auto loaded =
      xmark::LoadShardedXmark(net.get(), ShardFixtureConfig(), opts);
  EXPECT_TRUE(loaded.ok()) << loaded.status();
  core::Peer* p0 = net->AddPeer("p0", core::EngineKind::kRelational);
  EXPECT_TRUE(p0->AddDocument("persons.xml",
                              xmark::GeneratePersons(ShardFixtureConfig()))
                  .ok());
  EXPECT_TRUE(
      p0->RegisterModule(xmark::FunctionsBModuleSource(p0->uri()), "b.xq")
          .ok());
  if (dispatch_threads > 0) net->EnableParallelDispatch(dispatch_threads);
  return net;
}

std::string RunSharded(core::PeerNetwork* net, const std::string& query) {
  auto report = net->Execute("p0", query);
  if (!report.ok()) return "ERROR: " + report.status().ToString();
  return xdm::SequenceToString(report->result);
}

TEST(ParallelExecTest, ShardedScatterGatherIsByteIdenticalAcrossWorkers) {
  for (const std::string& query :
       {std::string(kImportB) + kShardSemiJoin,
        std::string(kImportB) + kShardBroadcast}) {
    for (int num_shards : {1, 4}) {
      const std::string serial =
          RunSharded(MakeShardedNetwork(num_shards, 0).get(), query);
      ASSERT_EQ(serial.rfind("ERROR", 0), std::string::npos) << serial;
      for (int threads : {2, 8}) {
        auto net = MakeShardedNetwork(num_shards, threads);
        EXPECT_EQ(RunSharded(net.get(), query), serial)
            << "shards=" << num_shards << " dispatch threads=" << threads;
      }
    }
  }
}

TEST(ParallelExecTest, NetworkWideEnableAppliesAndReportsExecMetrics) {
  auto net = MakeShardedNetwork(4, 0);
  const std::string query = std::string(kImportB) + kShardBroadcast;
  const std::string serial = RunSharded(net.get(), query);
  EXPECT_FALSE(net->parallel_dispatch_enabled());
  EXPECT_EQ(net->metrics().Get(net::Metric::kDispatchMaxInFlight), 1);

  net->EnableParallelDispatch(8);
  EXPECT_TRUE(net->parallel_dispatch_enabled());
  auto report = net->Execute("p0", query);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(xdm::SequenceToString(report->result), serial);

  // The broadcast reached all four shards through the pool, and the fan-out
  // was reported into the shared metrics.
  EXPECT_EQ(net->metrics().Get(net::Metric::kDispatchMaxInFlight), 4);
  EXPECT_GE(net->metrics().Get(net::Metric::kFanoutGroups), 2);
  EXPECT_GE(net->metrics().Get(net::Metric::kFanoutDestinations), 8);
  const std::string dump = net->metrics().Report();
  EXPECT_NE(dump.find("fanout: groups="), std::string::npos) << dump;
}

}  // namespace
}  // namespace xrpc::fuzz
