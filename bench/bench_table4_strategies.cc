// Reproduces Table 4: "Execution time (msecs) of query Q7 distributed on
// MonetDB/XQuery and Saxon" for the four strategies of Section 5: data
// shipping, predicate push-down, execution relocation, and distributed
// semi-join.
//
// Peer A runs the relational engine (the MonetDB/XQuery role) and stores
// persons.xml; peer B runs the interpreter behind the XRPC wrapper (the
// Saxon role) and stores auctions.xml. Q7 joins persons with closed
// auctions on buyer/@person (6 matches).
//
// Paper:                      total   MonetDB   Saxon(+net)
//   data shipping             28122     16457      11665
//   predicate push-down       25799      2961      22838
//   execution relocation      53184        69      53115
//   distributed semi-join     10278       118      10160
//
// Shape claims: semi-join wins; push-down beats data shipping;
// relocation is worst (it ships persons AND tasks the slower engine with
// the whole join); MonetDB time collapses for relocation/semi-join.

// A second section extends the strategy comparison beyond the paper: the
// same Q7 semi-join run N-way against a hash-sharded auctions collection
// ("shard:auctions.xml", DESIGN.md §13), comparing 1 shard vs 16 shards.
// Every call carries the partition key, so the catalog prunes each call
// to one shard, and the per-shard Bulk RPCs dispatch in parallel. An
// interpreter shard peer evaluates all calls of its request in one
// context, so it scans its fragment once per request, not once per call;
// the table shows what sharding still buys once that scan is shared.
// Results land in BENCH_shard_scaleup.json.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "xmark/shard_loader.h"
#include "xmark/xmark.h"

namespace {

using xrpc::core::EngineKind;
using xrpc::core::ExecutionReport;
using xrpc::core::Peer;
using xrpc::core::PeerNetwork;

constexpr char kImportB[] =
    "import module namespace b=\"functions_b\" at "
    "\"http://example.org/b.xq\";\n";

// Q7 — data shipping: fetch auctions.xml from B, join locally at A.
const char kDataShipping[] = R"(
for $p in doc("persons.xml")//person,
    $ca in doc("xrpc://B/auctions.xml")//closed_auction
where $p/@id = $ca/buyer/@person
return <result>{$p, $ca/annotation}</result>)";

// Q7_1 — predicate push-down: B returns only the closed_auction nodes.
const char kPushdownBody[] = R"(
for $p in doc("persons.xml")//person,
    $ca in execute at {"xrpc://B"} {b:Q_B1()}
where $p/@id = $ca/buyer/@person
return <result>{$p, $ca/annotation}</result>)";

// Q7_2 — execution relocation: B runs the whole join (fetching persons
// from A via data shipping inside Q_B2).
const char kRelocationBody[] = R"(
execute at {"xrpc://B"} {b:Q_B2()})";

// Q7_3 — distributed semi-join: ship each person @id to B, which returns
// only that buyer's closed auctions.
const char kSemiJoinBody[] = R"(
for $p in doc("persons.xml")//person
let $ca := execute at {"xrpc://B"} {b:Q_B3(string($p/@id))}
return if (empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>)";

struct StrategyResult {
  int64_t total_us = 0;
  int64_t monet_us = 0;   // processing time at peer A (p0)
  int64_t saxon_us = 0;   // total - A time (includes network), as the paper
  size_t results = 0;
};

StrategyResult Run(PeerNetwork* net, const std::string& query) {
  auto report = net->Execute("A", query);
  StrategyResult r;
  if (!report.ok()) {
    std::fprintf(stderr, "bench_table4: %s\n",
                 report.status().ToString().c_str());
    r.total_us = -1;
    return r;
  }
  r.total_us = xrpc::bench::TotalMicros(report.value());
  r.monet_us = report->wall_micros - report->remote_micros;
  r.saxon_us = r.total_us - r.monet_us;
  r.results = report->result.size();
  return r;
}

}  // namespace

int main() {
  // Scaled XMark split (documented in EXPERIMENTS.md): the paper used a
  // 1.1 MB persons fragment (250 persons) and a 50 MB auctions fragment
  // (4875 closed auctions); we keep the 250 persons and scale auctions to
  // keep the in-process run in seconds while preserving the asymmetry.
  // The paper's auctions.xml is ~50 MB for 4875 closed auctions (~10 KB
  // each, mostly XMark description text). We keep the 250 persons and the
  // per-auction payload ratio, scaling the auction count to keep the
  // in-process run in seconds.
  xrpc::xmark::XmarkConfig cfg;
  cfg.num_persons = 250;           // as the paper (1.1 MB persons.xml)
  cfg.num_closed_auctions = 4875;  // as the paper
  cfg.num_matches = 6;             // as the paper
  cfg.annotation_bytes = 1200;     // scaled from ~10 KB to keep runs short
  cfg.num_items = 800;
  cfg.num_open_auctions = 500;
  cfg.item_description_bytes = 1500;

  PeerNetwork net;
  Peer* a = net.AddPeer("A", EngineKind::kRelational);
  Peer* b = net.AddPeer("B", EngineKind::kWrapper);
  (void)a->AddDocument("persons.xml", xrpc::xmark::GeneratePersons(cfg));
  (void)b->AddDocument("auctions.xml", xrpc::xmark::GenerateAuctions(cfg));
  std::string b_module = xrpc::xmark::FunctionsBModuleSource("xrpc://A");
  (void)b->RegisterModule(b_module, "http://example.org/b.xq");
  (void)a->RegisterModule(b_module, "http://example.org/b.xq");

  std::printf(
      "Table 4 — execution time (msec) of Q7 distributed over a\n"
      "relational peer A (persons.xml, %d persons) and a wrapper peer B\n"
      "(auctions.xml, %d closed auctions, %d matches).\n\n",
      cfg.num_persons, cfg.num_closed_auctions, cfg.num_matches);

  xrpc::bench::TablePrinter table(
      {"strategy", "total", "peerA(MonetDB)", "peerB(Saxon)+net", "results"});
  struct Strategy {
    const char* name;
    std::string query;
  };
  std::vector<Strategy> strategies = {
      {"data shipping", kDataShipping},
      {"predicate push-down", std::string(kImportB) + kPushdownBody},
      {"execution relocation", std::string(kImportB) + kRelocationBody},
      {"distributed semi-join", std::string(kImportB) + kSemiJoinBody},
  };
  for (const Strategy& s : strategies) {
    StrategyResult r = Run(&net, s.query);
    table.AddRow({s.name, xrpc::bench::Ms(r.total_us),
                  xrpc::bench::Ms(r.monet_us), xrpc::bench::Ms(r.saxon_us),
                  std::to_string(r.results)});
  }
  table.Print();

  std::printf(
      "\nShape checks (paper): the distributed semi-join is fastest (it\n"
      "ships the least data and one Bulk RPC), push-down beats data\n"
      "shipping, and execution relocation is slowest (persons shipped to\n"
      "the slower engine, which then runs the whole join).\n");

  // --- Shard scale-up: Q7 semi-join over a hash-sharded collection. ---
  const std::string shard_semijoin = std::string(kImportB) + R"(
for $p in doc("persons.xml")//person
let $ca := execute at {"shard:auctions.xml"} {b:Q_B3(string($p/@id))}
return if (empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>)";

  std::printf(
      "\nShard scale-up — the same semi-join N-way against\n"
      "shard:auctions.xml (interpreter shard peers, partition-key pruning,\n"
      "parallel dispatch):\n\n");

  struct ShardRun {
    int shards = 0;
    int64_t total_us = 0;
    int64_t remote_us = 0;   // shard peers' processing, summed over peers
    int64_t network_us = 0;  // modeled wire time (critical path)
    int64_t requests = 0;
    size_t results = 0;
  };
  std::vector<ShardRun> runs;
  xrpc::bench::TablePrinter shard_table(
      {"shards", "total", "shard exec (sum)", "network", "requests",
       "results"});
  for (int shards : {1, 16}) {
    PeerNetwork snet;
    snet.EnableParallelDispatch(16);
    xrpc::xmark::ShardLoadOptions sopts;
    sopts.num_shards = shards;
    auto loaded = xrpc::xmark::LoadShardedXmark(&snet, cfg, sopts);
    if (!loaded.ok()) {
      std::fprintf(stderr, "bench_table4: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    Peer* p0 = snet.AddPeer("p0", EngineKind::kRelational);
    (void)p0->AddDocument("persons.xml", xrpc::xmark::GeneratePersons(cfg));
    (void)p0->RegisterModule(b_module, "http://example.org/b.xq");
    auto report = snet.Execute("p0", shard_semijoin);
    if (!report.ok()) {
      std::fprintf(stderr, "bench_table4: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    ShardRun run;
    run.shards = shards;
    run.total_us = xrpc::bench::TotalMicros(report.value());
    run.remote_us = report->remote_micros;
    run.network_us = report->network_micros;
    run.requests = report->requests_sent;
    run.results = report->result.size();
    runs.push_back(run);
    shard_table.AddRow({std::to_string(run.shards),
                        xrpc::bench::Ms(run.total_us),
                        xrpc::bench::Ms(run.remote_us),
                        xrpc::bench::Ms(run.network_us),
                        std::to_string(run.requests),
                        std::to_string(run.results)});
  }
  shard_table.Print();
  double speedup = runs[1].total_us > 0
                       ? static_cast<double>(runs[0].total_us) /
                             static_cast<double>(runs[1].total_us)
                       : 0.0;
  std::printf(
      "\n16-shard speedup over 1 shard: %.1fx. Each shard peer builds its\n"
      "path memo and join index once per request, so 16 shards split one\n"
      "scan of the collection rather than 250: the total shard work stays\n"
      "about the same, and what 16 shards can still win is the overlap of\n"
      "their concurrent requests (\"shard exec\" sums all shard peers).\n",
      speedup);

  xrpc::bench::BenchJson json("shard_scaleup");
  json.config()
      .Set("query",
           "Q7 distributed semi-join over shard:auctions.xml "
           "(partition-key pruned)")
      .Set("persons", cfg.num_persons)
      .Set("closed_auctions", cfg.num_closed_auctions)
      .Set("matches", cfg.num_matches)
      .Set("shard_engine", "interpreter")
      .Set("p0_engine", "relational")
      .Set("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .Set("build_type", XRPC_BUILD_TYPE);
  for (const ShardRun& run : runs) {
    json.AddRow()
        .Set("shards", run.shards)
        .Set("total_us", run.total_us)
        .Set("shard_exec_us", run.remote_us)
        .Set("network_us", run.network_us)
        .Set("requests", run.requests)
        .Set("results", run.results)
        .Set("speedup_over_1_shard",
             run.total_us > 0 ? static_cast<double>(runs[0].total_us) /
                                    static_cast<double>(run.total_us)
                              : 0.0);
  }
  if (!json.WriteFile("BENCH_shard_scaleup.json")) {
    std::fprintf(stderr, "bench_table4: cannot write json output\n");
    return 1;
  }
  std::printf("wrote BENCH_shard_scaleup.json\n");
  return 0;
}
