// Fault-tolerant 2PC benchmark: measures what durability and failure
// handling cost on top of the XQUF update path (Section 2.3's 2PC
// judgments made crash-safe).
//
//  1. Commit latency per durability mode: in-memory log vs file-backed
//     WAL (fsync off / fsync on), with per-peer append/fsync counts.
//  2. Commit-retry drain: phase-2 messages dropped in transit, the
//     network's retrying transport re-sends (bounded backoff) until the
//     commit lands.
//  3. Crash/recovery convergence: every participant crash point plus the
//     coordinator decision-log crash, each timed through WAL replay,
//     presumed-abort inquiry, and commit re-drive to the all-or-nothing
//     fixpoint.
//
// Ends with the RpcMetrics dump, whose txn: line aggregates commit
// retries, in-doubt parkings, recoveries, and idempotent replies.

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "net/uri.h"
#include "server/wsat.h"

namespace {

using xrpc::Status;
using xrpc::StatusOr;
using xrpc::core::ExecutionReport;
using xrpc::core::Peer;
using xrpc::core::PeerNetwork;
using xrpc::server::CrashPoint;
using xrpc::server::TxnLog;

constexpr char kFilmDb[] =
    "<films>"
    "<film><name>The Rock</name><actor>Sean Connery</actor></film>"
    "<film><name>Goldfinger</name><actor>Sean Connery</actor></film>"
    "<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>"
    "</films>";

constexpr char kFilmModule[] = R"(
  module namespace film = "films";
  declare function film:countFilms() as xs:integer
  { count(doc("filmDB.xml")//film) };
  declare updating function film:addFilm($name as xs:string,
                                         $actor as xs:string)
  { insert nodes <film><name>{$name}</name><actor>{$actor}</actor></film>
    into doc("filmDB.xml")/films };
)";

constexpr char kUpdateBoth[] = R"(
  declare option xrpc:isolation "repeatable";
  declare option xrpc:timeout "60";
  import module namespace f="films" at "http://x.example.org/film.xq";
  (execute at {"xrpc://y.example.org"} {f:addFilm("A", "X")},
   execute at {"xrpc://z.example.org"} {f:addFilm("B", "Y")}))";

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A three-peer topology: coordinator p0, participants y and z each
/// holding a film document plus the updating module.
struct Cluster {
  PeerNetwork net;
  Peer* p0;
  Peer* y;
  Peer* z;

  Cluster() {
    p0 = net.AddPeer("p0.example.org");
    y = net.AddPeer("y.example.org");
    z = net.AddPeer("z.example.org");
    for (Peer* p : {y, z}) {
      (void)p->AddDocument("filmDB.xml", kFilmDb);
    }
    for (Peer* p : {p0, y, z}) {
      (void)p->RegisterModule(kFilmModule, "http://x.example.org/film.xq");
    }
  }

  StatusOr<ExecutionReport> Update() {
    return net.Execute("p0.example.org", kUpdateBoth);
  }

  int Count(Peer* peer) {
    auto report = net.Execute(
        peer->name(),
        R"(import module namespace f="films"
             at "http://x.example.org/film.xq";
           f:countFilms())");
    if (!report.ok()) return -1;
    return static_cast<int>(report->result[0].atomic().AsInteger());
  }

};

// -- 1. Durability cost ------------------------------------------------------

enum class WalMode { kInMemory, kFileNoSync, kFileSync };

const char* WalModeName(WalMode m) {
  switch (m) {
    case WalMode::kInMemory:
      return "in-memory log";
    case WalMode::kFileNoSync:
      return "file WAL, no fsync";
    case WalMode::kFileSync:
      return "file WAL, fsync";
  }
  return "?";
}

void BenchDurability(int txns) {
  std::printf("1. Commit latency per durability mode (%d two-participant\n"
              "   repeatable-isolation transactions each):\n\n",
              txns);
  xrpc::bench::TablePrinter table(
      {"mode", "avg commit", "WAL appends", "fsyncs"});
  for (WalMode mode : {WalMode::kInMemory, WalMode::kFileNoSync,
                       WalMode::kFileSync}) {
    Cluster c;
    if (mode != WalMode::kInMemory) {
      for (Peer* p : {c.p0, c.y, c.z}) {
        std::string path = "/tmp/bench_2pc_" + p->name() + ".wal";
        std::remove(path.c_str());
        Status s = p->EnableWal(path);
        if (!s.ok()) {
          std::fprintf(stderr, "EnableWal: %s\n", s.ToString().c_str());
          return;
        }
        p->service().txn_log().set_sync(mode == WalMode::kFileSync);
      }
    }
    int64_t start = NowMicros();
    int committed = 0;
    for (int i = 0; i < txns; ++i) {
      auto report = c.Update();
      if (report.ok() && report->committed) ++committed;
    }
    int64_t per_txn = (NowMicros() - start) / (txns > 0 ? txns : 1);
    int64_t appends = 0, fsyncs = 0;
    for (Peer* p : {c.p0, c.y, c.z}) {
      appends += p->service().txn_log().appends();
      fsyncs += p->service().txn_log().fsyncs();
    }
    if (committed != txns) {
      std::fprintf(stderr, "only %d/%d committed under %s\n", committed,
                   txns, WalModeName(mode));
    }
    table.AddRow({WalModeName(mode), xrpc::bench::Ms(per_txn) + " ms",
                  std::to_string(appends), std::to_string(fsyncs)});
  }
  table.Print();
  std::printf("\n");
}

// -- 2. Commit-retry drain ---------------------------------------------------

/// Loses the first `failures` phase-2 Commit messages before they reach
/// the wrapped peer's endpoint.
class CommitDropEndpoint : public xrpc::net::SoapEndpoint {
 public:
  CommitDropEndpoint(xrpc::net::SoapEndpoint* inner, int failures)
      : inner_(inner), remaining_(failures) {}

  StatusOr<std::string> Handle(const std::string& path,
                               const std::string& body) override {
    if (remaining_ > 0 && path == xrpc::server::kWsatPath &&
        body.find("op=\"commit\"") != std::string::npos) {
      --remaining_;
      return Status::NetworkError("injected commit drop");
    }
    return inner_->Handle(path, body);
  }

 private:
  xrpc::net::SoapEndpoint* inner_;
  int remaining_;
};

void BenchCommitRetry() {
  std::printf("2. Commit-retry drain (phase-2 Commits toward one participant\n"
              "   dropped in transit; bounded exponential backoff):\n\n");
  xrpc::bench::TablePrinter table({"drops", "outcome", "commit retries",
                                   "re-sends to z", "in doubt",
                                   "modeled backoff"});
  for (int drops : {0, 1, 2, 4}) {
    Cluster c;
    c.net.set_retry_policy(xrpc::net::RetryPolicy{.max_attempts = 4,
                                                  .initial_backoff_us = 200});
    CommitDropEndpoint flaky(&c.z->service(), drops);
    c.net.network().RegisterPeer(
        xrpc::net::ParseXrpcUri(c.z->uri()).value(), &flaky);
    auto report = c.Update();
    std::string verdict = "error";
    int retries = 0;
    size_t in_doubt = 0;
    if (report.ok()) {
      retries = report->commit_retries;
      in_doubt = report->in_doubt.size();
      verdict = !report->committed       ? "aborted"
                : report->in_doubt.empty() ? "committed"
                                           : "committed, in doubt";
    }
    // With > max_attempts-1 drops the participant stays parked; drain it
    // once the network "heals" so the scenario ends converged.
    c.z->Reconnect();
    if (c.p0->service().in_doubt_count() > 0) {
      (void)c.p0->service().RetryInDoubt();
    }
    // commit_retries counts the re-sends of acknowledged Commits; the
    // transport's per-peer row also counts those of a Commit that never
    // got through.
    table.AddRow(
        {std::to_string(drops), verdict, std::to_string(retries),
         std::to_string(c.net.metrics().Get(xrpc::net::Metric::kRetries,
                                            c.z->uri())),
         std::to_string(in_doubt),
         xrpc::bench::Ms(c.net.metrics().Get(
             xrpc::net::Metric::kBackoffMicros)) +
             " ms"});
  }
  table.Print();
  std::printf("\n");
}

// -- 3. Crash/recovery convergence -------------------------------------------

void BenchCrashRecovery() {
  std::printf("3. Crash/recovery convergence (participant z crashes at the\n"
              "   armed point; recovery = WAL replay + presumed-abort inquiry\n"
              "   + coordinator commit re-drive):\n\n");
  struct Row {
    const char* name;
    CrashPoint point;
    bool expect_commit;
  };
  const Row rows[] = {
      {"after prepare-log (vote lost)", CrashPoint::kAfterPrepareLog, false},
      {"after vote", CrashPoint::kAfterVote, true},
      {"before commit-apply", CrashPoint::kBeforeCommitApply, true},
      {"after commit-log", CrashPoint::kAfterCommitLog, true},
  };
  xrpc::bench::TablePrinter table(
      {"crash point", "txn outcome", "recovery", "converged", "recovery time"});
  for (const Row& row : rows) {
    Cluster c;
    c.z->InjectCrash(row.point);
    auto report = c.Update();
    bool committed = report.ok() && report->committed;

    int64_t start = NowMicros();
    Status s = c.z->Restart();
    if (c.p0->service().in_doubt_count() > 0) {
      (void)c.p0->service().RetryInDoubt();
    }
    int64_t recovery_us = NowMicros() - start;

    int expect = row.expect_commit ? 4 : 3;
    bool converged = s.ok() && c.Count(c.y) == expect &&
                     c.Count(c.z) == expect &&
                     c.z->service().in_doubt_count() == 0 &&
                     c.p0->service().in_doubt_count() == 0;
    table.AddRow({row.name, committed ? "committed" : "aborted",
                  s.ok() ? "ok" : s.ToString(), converged ? "yes" : "NO",
                  xrpc::bench::Ms(recovery_us) + " ms"});
  }

  // Coordinator decision-log crash: the decision is durable, restart
  // re-drives Commit to every logged participant.
  {
    Cluster c;
    c.p0->InjectCrash(CrashPoint::kCoordAfterDecisionLog);
    (void)c.Update();
    int64_t start = NowMicros();
    Status s = c.p0->Restart();
    int64_t recovery_us = NowMicros() - start;
    bool converged = s.ok() && c.Count(c.y) == 4 && c.Count(c.z) == 4 &&
                     c.p0->service().in_doubt_count() == 0;
    table.AddRow({"coordinator, after decision-log", "committed",
                  s.ok() ? "ok" : s.ToString(), converged ? "yes" : "NO",
                  xrpc::bench::Ms(recovery_us) + " ms"});
  }
  table.Print();
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf(
      "Fault-tolerant 2PC — durability cost, commit-retry drain, and\n"
      "crash-recovery convergence for XQUF updates (repeatable isolation,\n"
      "two participants + coordinator).\n\n");

  BenchDurability(20);
  BenchCommitRetry();
  BenchCrashRecovery();

  // One last run with shared metrics so the txn: counters show a full
  // crash + recovery cycle in the observability dump.
  Cluster c;
  c.z->InjectCrash(CrashPoint::kAfterVote);
  (void)c.Update();
  (void)c.z->Restart();
  (void)c.p0->service().RetryInDoubt();
  std::printf("RpcMetrics after one crash+recovery cycle:\n%s\n",
              c.net.metrics().Report().c_str());
  return 0;
}
