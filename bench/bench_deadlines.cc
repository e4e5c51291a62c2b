// Tail-latency benchmark for deadline propagation + circuit breaking: a
// Bulk RPC workload over a mix of healthy, slow (250ms latency spikes),
// and dead destinations. Without budgets every spiked exchange is waited
// out in full and every dead-peer query pays the complete retry/backoff
// schedule; a 100ms end-to-end deadline caps each query at its budget
// (trading some slow successes for bounded latency), and the per-peer
// circuit breaker collapses the dead destination to an instant local
// refusal once it opens. The virtual clock makes every row deterministic.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "xmark/xmark.h"

namespace {

using xrpc::bench::Ms;
using xrpc::bench::TablePrinter;
using xrpc::core::ExecuteOptions;
using xrpc::core::Peer;
using xrpc::core::PeerNetwork;
using xrpc::net::CircuitBreaker;
using xrpc::net::FaultProfile;
using xrpc::net::Metric;
using xrpc::net::ParseXrpcUri;
using xrpc::net::RetryPolicy;

constexpr int kQueries = 60;
constexpr int64_t kDeadlineUs = 100'000;  // 100ms end-to-end budget
constexpr int64_t kSpikeUs = 80'000;      // slow path: 80ms spikes

// Three query classes, rotated: a short probe that fits the budget even
// when spiked, a long scan whose accumulated spikes blow way past it,
// and a fan that also touches the dead destination (the degraded-fleet
// mix). One-at-a-time dispatch keeps the exchanges serial, which is what
// gives the cooperative cancellation poll between iterations its bite.
constexpr char kShortQuery[] = R"(
  import module namespace f="films" at "film.xq";
  for $dst in ("xrpc://y.example.org", "xrpc://slow.example.org")
  return execute at {$dst} {f:filmsByActor("Sean Connery")})";

constexpr char kLongQuery[] = R"(
  import module namespace f="films" at "film.xq";
  for $i in (1 to 5)
  for $dst in ("xrpc://y.example.org", "xrpc://slow.example.org")
  return execute at {$dst} {f:filmsByActor("Sean Connery")})";

constexpr char kDeadMixQuery[] = R"(
  import module namespace f="films" at "film.xq";
  for $dst in ("xrpc://y.example.org",
               "xrpc://dead.example.org",
               "xrpc://slow.example.org")
  return execute at {$dst} {f:filmsByActor("Sean Connery")})";

struct Outcome {
  std::vector<int64_t> latencies_us;
  int ok = 0;
  int failed = 0;
  int64_t dead_dials = 0;
  int64_t short_circuits = 0;
  std::string report;
};

int64_t Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t idx = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[idx];
}

Outcome Run(bool with_deadline, bool with_breaker) {
  PeerNetwork net;
  net.AddPeer("p0");
  for (const char* name : {"y.example.org", "slow.example.org"}) {
    Peer* p = net.AddPeer(name);
    (void)p->AddDocument("filmDB.xml", xrpc::xmark::GenerateFilmDb());
    (void)p->RegisterModule(xrpc::xmark::FilmModuleSource(), "film.xq");
  }
  (void)net.GetPeer("p0")->RegisterModule(xrpc::xmark::FilmModuleSource(),
                                          "film.xq");
  net.AddPeer("dead.example.org");
  net.network().DisconnectPeer(
      ParseXrpcUri("xrpc://dead.example.org").value());

  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_us = 20'000;
  policy.jitter_fraction = 0.0;
  net.set_retry_policy(policy);

  // Every 2nd post pays the spike — the "slow path" tax.
  FaultProfile faults;
  faults.latency_spike_every_nth = 2;
  faults.latency_spike_us = kSpikeUs;
  net.network().set_fault_profile(faults);

  if (with_breaker) {
    CircuitBreaker::Policy breaker;
    breaker.failure_threshold = 3;
    breaker.cooldown_us = 5'000'000;
    net.EnableCircuitBreaker(breaker);
  }

  ExecuteOptions opts;
  opts.force_one_at_a_time = true;
  if (with_deadline) opts.deadline_us = kDeadlineUs;

  Outcome out;
  const char* const kRotation[] = {kShortQuery, kLongQuery, kDeadMixQuery};
  for (int i = 0; i < kQueries; ++i) {
    const char* query = kRotation[i % 3];
    const int64_t start = net.network().clock().NowMicros();
    auto report = net.Execute("p0", query, opts);
    out.latencies_us.push_back(net.network().clock().NowMicros() - start);
    if (report.ok()) {
      ++out.ok;
    } else {
      ++out.failed;
    }
  }
  out.dead_dials = net.metrics().Get(Metric::kRequests,
                                   "xrpc://dead.example.org");
  out.short_circuits = net.metrics().Get(Metric::kBreakerShortCircuits);
  out.report = net.metrics().Report();
  return out;
}

}  // namespace

int main() {
  std::printf(
      "Deadline + circuit-breaker degradation — %d one-at-a-time queries\n"
      "rotating {short probe, 10-exchange scan, dead-peer fan} against a\n"
      "%sms latency spike on every 2nd post plus one dead destination;\n"
      "3 attempts / 20ms backoff; budget %sms where enabled. Latencies are\n"
      "per-query virtual-clock time; 'dead dials' counts actual POSTs\n"
      "toward the dead peer.\n\n",
      kQueries, Ms(kSpikeUs).c_str(), Ms(kDeadlineUs).c_str());

  struct Row {
    const char* name;
    bool deadline;
    bool breaker;
  };
  const Row rows[] = {
      {"no-deadline", false, false},
      {"deadline", true, false},
      {"deadline+breaker", true, true},
  };

  TablePrinter table({"scenario", "ok", "failed", "p50 ms", "p95 ms",
                      "max ms", "dead dials", "short-circuits"});
  std::string last_report;
  for (const Row& row : rows) {
    Outcome out = Run(row.deadline, row.breaker);
    table.AddRow({row.name, std::to_string(out.ok),
                  std::to_string(out.failed),
                  Ms(Percentile(out.latencies_us, 0.50)),
                  Ms(Percentile(out.latencies_us, 0.95)),
                  Ms(Percentile(out.latencies_us, 1.0)),
                  std::to_string(out.dead_dials),
                  std::to_string(out.short_circuits)});
    last_report = std::move(out.report);
  }
  table.Print();
  std::printf("\nmetrics of the deadline+breaker run:\n%s",
              last_report.c_str());
  return 0;
}
