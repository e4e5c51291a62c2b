// Failover-cost benchmark (DESIGN.md §14): the shard broadcast workload
// over a replicated 4-shard deployment, run healthy, with shard 0's
// primary dead (every query pays the failed dial plus a replica
// re-exchange), and dead with the per-peer circuit breaker (after one
// failure the dead dial collapses to an instant local refusal and the
// subcall goes straight to the replica). Latencies are per-query
// virtual-clock time, so every row is deterministic. Emits
// BENCH_failover.json.
//
// A second section measures write availability (DESIGN.md §17): updating
// broadcasts enlist EVERY copy of every touched shard as a 2PC
// participant, so — unlike reads — a write cannot fail over around a dead
// copy. Rows sweep rf ∈ {1,2,3} healthy and with one storage peer dead,
// reporting update success rate and latency percentiles; the dead-peer
// rows show the at-most-once trade (aborts, fast) while the healthy rows
// price the extra participants per replica.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "xmark/shard_loader.h"
#include "xmark/xmark.h"

namespace {

using xrpc::bench::Ms;
using xrpc::bench::TablePrinter;
using xrpc::core::EngineKind;
using xrpc::core::ExecuteOptions;
using xrpc::core::Peer;
using xrpc::core::PeerNetwork;
using xrpc::net::CircuitBreaker;
using xrpc::net::Metric;

constexpr int kQueries = 40;
constexpr int kNumShards = 4;
constexpr int64_t kDeadlineUs = 2'000'000;

constexpr char kQuery[] =
    "import module namespace b=\"functions_b\" at \"b.xq\";\n"
    "execute at {\"shard:auctions.xml\"} {b:Q_B1()}";

xrpc::xmark::XmarkConfig Config() {
  xrpc::xmark::XmarkConfig cfg;
  cfg.num_persons = 60;
  cfg.num_closed_auctions = 120;
  cfg.num_matches = 12;
  cfg.annotation_bytes = 64;
  return cfg;
}

struct Outcome {
  std::vector<int64_t> latencies_us;
  int ok = 0;
  int failed = 0;
  int64_t dead_dials = 0;
  int64_t failover_attempts = 0;
  int64_t failover_successes = 0;
  int64_t short_circuits = 0;
  std::string report;
};

int64_t Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

Outcome Run(bool kill_primary, bool with_breaker) {
  PeerNetwork net;
  xrpc::xmark::ShardLoadOptions opts;
  opts.num_shards = kNumShards;
  opts.replication_factor = 2;
  auto loaded = xrpc::xmark::LoadShardedXmark(&net, Config(), opts);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
    std::exit(1);
  }
  Peer* p0 = net.AddPeer("p0", EngineKind::kRelational);
  (void)p0->AddDocument("persons.xml", xrpc::xmark::GeneratePersons(Config()));
  (void)p0->RegisterModule(xrpc::xmark::FunctionsBModuleSource(p0->uri()),
                           "b.xq");
  if (with_breaker) {
    CircuitBreaker::Policy policy;
    policy.failure_threshold = 1;
    policy.cooldown_us = 60'000'000;  // stays open for the whole run
    net.EnableCircuitBreaker(policy);
  }
  const std::string dead_uri = loaded->peers[0]->uri();
  if (kill_primary) loaded->peers[0]->Disconnect();

  ExecuteOptions exec;
  exec.deadline_us = kDeadlineUs;
  Outcome out;
  for (int i = 0; i < kQueries; ++i) {
    const int64_t start = net.network().clock().NowMicros();
    auto report = net.Execute("p0", kQuery, exec);
    out.latencies_us.push_back(net.network().clock().NowMicros() - start);
    if (report.ok()) {
      ++out.ok;
    } else {
      ++out.failed;
    }
  }
  out.dead_dials = net.metrics().Get(Metric::kRequests, dead_uri);
  out.failover_attempts = net.metrics().Get(Metric::kFailoverAttempts);
  out.failover_successes = net.metrics().Get(Metric::kFailoverSuccesses);
  out.short_circuits = net.metrics().Get(Metric::kBreakerShortCircuits);
  out.report = net.metrics().Report();
  return out;
}

// -- Write availability (DESIGN.md §17) -------------------------------------

constexpr int kWrites = 20;

// Each shard peer resolves doc("auctions.xml") to its own fragment, so the
// insert lands locally at every participant.
constexpr char kUpdModule[] = R"(
  module namespace u = "upd_bench";
  declare updating function u:stamp()
  { insert nodes <stamp/> into doc("auctions.xml")/site };
)";

constexpr char kUpdQuery[] =
    "declare option xrpc:isolation \"repeatable\";\n"
    "declare option xrpc:timeout \"60\";\n"
    "import module namespace u=\"upd_bench\" at \"u.xq\";\n"
    "execute at {\"shard:auctions.xml\"} {u:stamp()}";

struct WriteOutcome {
  std::vector<int64_t> latencies_us;
  int committed = 0;
  int aborted = 0;
};

WriteOutcome RunWrites(int rf, bool kill_copy) {
  PeerNetwork net;
  xrpc::xmark::ShardLoadOptions opts;
  opts.num_shards = kNumShards;
  opts.replication_factor = rf;
  auto loaded = xrpc::xmark::LoadShardedXmark(&net, Config(), opts);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load: %s\n", loaded.status().ToString().c_str());
    std::exit(1);
  }
  Peer* p0 = net.AddPeer("p0", EngineKind::kInterpreter);
  for (Peer* p : loaded->peers) {
    if (!p->RegisterModule(kUpdModule, "u.xq").ok()) std::exit(1);
  }
  if (!p0->RegisterModule(kUpdModule, "u.xq").ok()) std::exit(1);
  // Ring placement: peers[1] is shard 1's primary and — once rf >= 2 —
  // a replica of shard 0. Any dead copy aborts the whole broadcast.
  if (kill_copy) loaded->peers[1]->Disconnect();

  ExecuteOptions exec;
  exec.deadline_us = kDeadlineUs;
  WriteOutcome out;
  for (int i = 0; i < kWrites; ++i) {
    const int64_t start = net.network().clock().NowMicros();
    auto report = net.Execute("p0", kUpdQuery, exec);
    out.latencies_us.push_back(net.network().clock().NowMicros() - start);
    if (report.ok() && report->committed) {
      ++out.committed;
    } else {
      ++out.aborted;
    }
  }
  return out;
}

std::string Pct(int num, int den) {
  if (den == 0) return "n/a";
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%d%%", 100 * num / den);
  return buf;
}

}  // namespace

int main() {
  std::printf(
      "Replica failover cost — %d broadcast queries over %d shards with\n"
      "replication factor 2 (ring placement), %sms deadline budget.\n"
      "'primary0 dials' counts POSTs attempted toward shard 0's primary; with\n"
      "the breaker they stop after the first failure (local refusal).\n\n",
      kQueries, kNumShards, Ms(kDeadlineUs).c_str());

  struct Row {
    const char* name;
    bool kill;
    bool breaker;
  };
  const Row rows[] = {
      {"healthy", false, false},
      {"dead-primary", true, false},
      {"dead-primary+breaker", true, true},
  };

  xrpc::bench::BenchJson json("failover");
  json.config()
      .Set("query", "broadcast execute at shard:auctions.xml (Q_B1)")
      .Set("queries", kQueries)
      .Set("shards", kNumShards)
      .Set("replication_factor", 2)
      .Set("deadline_us", kDeadlineUs);

  TablePrinter table({"scenario", "ok", "failed", "p50 ms", "p95 ms", "max ms",
                      "primary0 dials", "failovers", "short-circuits"});
  std::string last_report;
  for (const Row& row : rows) {
    Outcome out = Run(row.kill, row.breaker);
    table.AddRow({row.name, std::to_string(out.ok), std::to_string(out.failed),
                  Ms(Percentile(out.latencies_us, 0.50)),
                  Ms(Percentile(out.latencies_us, 0.95)),
                  Ms(Percentile(out.latencies_us, 1.0)),
                  std::to_string(out.dead_dials),
                  std::to_string(out.failover_successes),
                  std::to_string(out.short_circuits)});
    json.AddRow()
        .Set("scenario", row.name)
        .Set("ok", out.ok)
        .Set("failed", out.failed)
        .Set("p50_us", Percentile(out.latencies_us, 0.50))
        .Set("p95_us", Percentile(out.latencies_us, 0.95))
        .Set("max_us", Percentile(out.latencies_us, 1.0))
        .Set("primary0_dials", out.dead_dials)
        .Set("failover_attempts", out.failover_attempts)
        .Set("failover_successes", out.failover_successes)
        .Set("short_circuits", out.short_circuits);
    last_report = std::move(out.report);
  }
  table.Print();
  std::printf("\nmetrics of the dead-primary+breaker run:\n%s",
              last_report.c_str());

  std::printf(
      "\nWrite availability — %d updating broadcasts (all-copies 2PC) per\n"
      "row; 'copy-dead' disconnects one storage peer. Writes enlist every\n"
      "replica, so a single dead copy aborts them all (at-most-once, no\n"
      "update failover) — reads above keep failing over regardless.\n\n",
      kWrites);
  TablePrinter wtable({"scenario", "rf", "committed", "aborted", "success",
                       "p50 ms", "p95 ms", "max ms"});
  for (int rf = 1; rf <= 3; ++rf) {
    for (bool kill : {false, true}) {
      WriteOutcome out = RunWrites(rf, kill);
      const char* scenario = kill ? "copy-dead" : "healthy";
      wtable.AddRow({scenario, std::to_string(rf),
                     std::to_string(out.committed),
                     std::to_string(out.aborted),
                     Pct(out.committed, kWrites),
                     Ms(Percentile(out.latencies_us, 0.50)),
                     Ms(Percentile(out.latencies_us, 0.95)),
                     Ms(Percentile(out.latencies_us, 1.0))});
      json.AddRow()
          .Set("scenario", std::string("write-") + scenario)
          .Set("replication_factor", rf)
          .Set("writes", kWrites)
          .Set("committed", out.committed)
          .Set("aborted", out.aborted)
          .Set("p50_us", Percentile(out.latencies_us, 0.50))
          .Set("p95_us", Percentile(out.latencies_us, 0.95))
          .Set("max_us", Percentile(out.latencies_us, 1.0));
    }
  }
  wtable.Print();

  if (json.WriteFile("BENCH_failover.json")) {
    std::printf("wrote BENCH_failover.json\n");
  }
  return 0;
}
