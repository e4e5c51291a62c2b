// Crash-recovery matrix for the fault-tolerant 2PC layer: every participant
// crash point (after-prepare-log, after-vote, before-commit-apply,
// after-commit-log) and both coordinator crash points (after-votes,
// after-decision-log), each checked for all-or-nothing convergence after
// WAL replay, presumed-abort inquiry, and commit retry. Also covers
// idempotent re-delivery, in-doubt parking/draining, prepared-session
// expiry exemption, and file-backed WAL recovery.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "core/peer_network.h"
#include "server/rpc_client.h"
#include "server/wsat.h"
#include "tests/test_util.h"
#include "xmark/shard_loader.h"
#include "xmark/xmark.h"
#include "xml/serializer.h"

namespace xrpc::core {
namespace {

using server::CrashPoint;
using server::RunTwoPhaseCommit;
using server::SendWsatMessage;
using server::TwoPhaseCommitOptions;
using server::TxnLog;
using server::WsatOp;

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

class TxnRecoveryTest : public ::testing::Test {
 protected:
  TxnRecoveryTest() {
    p0_ = net_.AddPeer("p0.example.org");
    y_ = net_.AddPeer("y.example.org");
    z_ = net_.AddPeer("z.example.org");
    for (Peer* p : {y_, z_}) {
      EXPECT_TRUE(p->AddDocument("filmDB.xml", kFilmDb).ok());
    }
    for (Peer* p : {p0_, y_, z_}) {
      EXPECT_TRUE(
          p->RegisterModule(kFilmModule, "http://x.example.org/film.xq")
              .ok());
    }
  }

  /// Films currently visible at `peer` (committed state).
  int Count(Peer* peer) {
    auto report = net_.Execute(
        peer->name(),
        R"(import module namespace f="films"
             at "http://x.example.org/film.xq";
           f:countFilms())");
    EXPECT_TRUE(report.ok()) << report.status();
    if (!report.ok()) return -1;
    return static_cast<int>(report->result[0].atomic().AsInteger());
  }

  /// Runs the canonical two-peer updating query.
  StatusOr<ExecutionReport> Update() {
    return net_.Execute("p0.example.org", kUpdateBoth);
  }

  /// Sends `count` updating calls under `qid` so y_ and z_ each hold a
  /// deferred PUL, without committing (manual 2PC driving).
  void StageUpdates(const soap::QueryId& qid) {
    server::RpcClient::Options opts;
    opts.isolation = server::IsolationLevel::kRepeatable;
    opts.query_id = qid;
    server::RpcClient client(&net_.network(), opts);
    soap::XrpcRequest req;
    req.module_ns = "films";
    req.method = "addFilm";
    req.arity = 2;
    req.updating = true;
    req.calls.push_back(
        {xdm::Sequence{xdm::Item(xdm::AtomicValue::String("A"))},
         xdm::Sequence{xdm::Item(xdm::AtomicValue::String("X"))}});
    ASSERT_TRUE(client.ExecuteBulk(y_->uri(), req).ok());
    ASSERT_TRUE(client.ExecuteBulk(z_->uri(), req).ok());
  }

  soap::QueryId MakeQueryId(const std::string& id) {
    soap::QueryId qid;
    qid.id = id;
    qid.host = p0_->uri();
    qid.timestamp = 1;
    qid.timeout_sec = 60;
    return qid;
  }

  PeerNetwork net_;
  Peer* p0_;
  Peer* y_;
  Peer* z_;
};

// -- Participant crash matrix ----------------------------------------------

TEST_F(TxnRecoveryTest, CrashAfterPrepareLogAbortsEverywhere) {
  z_->InjectCrash(CrashPoint::kAfterPrepareLog);
  auto report = Update();
  ASSERT_TRUE(report.ok()) << report.status();
  // z's vote was lost, so the coordinator aborted the whole transaction.
  EXPECT_FALSE(report->committed);
  EXPECT_TRUE(z_->crashed());
  EXPECT_EQ(Count(y_), 3);

  // z recovers holding a PREPARED record with no decision: inquiry at the
  // coordinator finds nothing on record, hence presumed abort.
  ASSERT_TRUE(z_->Restart().ok());
  EXPECT_EQ(Count(z_), 3);
  EXPECT_EQ(z_->service().in_doubt_count(), 0u);
  EXPECT_EQ(z_->service().isolation().active_sessions(), 0u);
  EXPECT_EQ(z_->service().txn_log().CountAppended(
                TxnLog::RecordType::kAborted),
            1u);
}

TEST_F(TxnRecoveryTest, CrashAfterVoteRecoversViaInquiry) {
  z_->InjectCrash(CrashPoint::kAfterVote);
  auto report = Update();
  ASSERT_TRUE(report.ok()) << report.status();
  // All votes arrived; the decision is durable even though z then died.
  EXPECT_TRUE(report->committed);
  ASSERT_EQ(report->in_doubt.size(), 1u);
  EXPECT_EQ(report->in_doubt[0], z_->uri());
  EXPECT_EQ(Count(y_), 4);
  EXPECT_GE(p0_->service().in_doubt_count(), 1u);

  // z recovers: PREPARED without decision -> inquiry -> committed -> apply.
  ASSERT_TRUE(z_->Restart().ok());
  EXPECT_EQ(Count(z_), 4);
  EXPECT_EQ(z_->service().in_doubt_count(), 0u);

  // The coordinator drains its parked participant with an (idempotent)
  // commit retry and seals the transaction.
  ASSERT_TRUE(p0_->service().RetryInDoubt(&net_.network()).ok());
  EXPECT_EQ(p0_->service().in_doubt_count(), 0u);
  EXPECT_EQ(p0_->service().txn_log().CountAppended(
                TxnLog::RecordType::kCoordEnd),
            1u);
  // Convergence: both peers applied exactly once.
  EXPECT_EQ(Count(y_), 4);
  EXPECT_EQ(Count(z_), 4);
}

TEST_F(TxnRecoveryTest, CrashBeforeCommitApplyRecoversViaInquiry) {
  z_->InjectCrash(CrashPoint::kBeforeCommitApply);
  auto report = Update();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->committed);
  ASSERT_EQ(report->in_doubt.size(), 1u);
  EXPECT_EQ(Count(y_), 4);

  // Nothing about the commit reached z's WAL; recovery must re-derive the
  // outcome from the coordinator.
  ASSERT_TRUE(z_->Restart().ok());
  EXPECT_EQ(Count(z_), 4);
  EXPECT_EQ(z_->service().in_doubt_count(), 0u);
  ASSERT_TRUE(p0_->service().RetryInDoubt(&net_.network()).ok());
  EXPECT_EQ(p0_->service().in_doubt_count(), 0u);
}

TEST_F(TxnRecoveryTest, CrashAfterCommitLogReplaysWithoutInquiry) {
  z_->InjectCrash(CrashPoint::kAfterCommitLog);
  auto report = Update();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->committed);
  EXPECT_EQ(Count(y_), 4);
  EXPECT_EQ(Count(z_), 3);  // decision durable, effects lost in the crash

  // Replay alone re-applies COMMITTED-without-APPLIED; no transport needed.
  ASSERT_TRUE(z_->service().Restart(nullptr).ok());
  EXPECT_EQ(Count(z_), 4);
  EXPECT_EQ(z_->service().in_doubt_count(), 0u);
  EXPECT_EQ(z_->service().txn_log().CountAppended(
                TxnLog::RecordType::kApplied),
            1u);

  // A second replay must not apply twice (kApplied seals the record).
  ASSERT_TRUE(z_->service().Restart(nullptr).ok());
  EXPECT_EQ(Count(z_), 4);

  ASSERT_TRUE(p0_->service().RetryInDoubt(&net_.network()).ok());
  EXPECT_EQ(Count(y_), 4);
  EXPECT_EQ(Count(z_), 4);
}

// -- Coordinator crash matrix ----------------------------------------------

TEST_F(TxnRecoveryTest, CoordinatorCrashAfterVotesPresumesAbort) {
  soap::QueryId qid = MakeQueryId("coord-crash-1");
  StageUpdates(qid);

  TwoPhaseCommitOptions options;
  options.journal = &p0_->service();
  options.crash_point = TwoPhaseCommitOptions::CrashPoint::kAfterVotes;
  auto outcome = RunTwoPhaseCommit(
      &net_.network(), {y_->uri(), z_->uri()}, qid.id, options);
  EXPECT_FALSE(outcome.ok());  // the driver died before deciding

  // Both participants hold prepared, in-doubt transactions exempt from
  // expiry. The restarted coordinator has nothing on record, so their
  // recovery inquiries answer "aborted".
  EXPECT_EQ(y_->service().isolation().active_sessions(), 1u);
  ASSERT_TRUE(p0_->Restart().ok());
  ASSERT_TRUE(y_->Restart().ok());
  ASSERT_TRUE(z_->Restart().ok());
  EXPECT_EQ(Count(y_), 3);
  EXPECT_EQ(Count(z_), 3);
  EXPECT_EQ(y_->service().in_doubt_count(), 0u);
  EXPECT_EQ(z_->service().in_doubt_count(), 0u);
}

TEST_F(TxnRecoveryTest, CoordinatorCrashAfterDecisionLogRedrivesCommit) {
  soap::QueryId qid = MakeQueryId("coord-crash-2");
  StageUpdates(qid);

  TwoPhaseCommitOptions options;
  options.journal = &p0_->service();
  options.crash_point = TwoPhaseCommitOptions::CrashPoint::kAfterDecisionLog;
  auto outcome = RunTwoPhaseCommit(
      &net_.network(), {y_->uri(), z_->uri()}, qid.id, options);
  EXPECT_FALSE(outcome.ok());  // died before sending any Commit

  // The decision survived in the coordinator's WAL; recovery re-drives
  // Commit to every logged participant (idempotently).
  ASSERT_TRUE(p0_->Restart().ok());
  EXPECT_EQ(Count(y_), 4);
  EXPECT_EQ(Count(z_), 4);
  EXPECT_EQ(p0_->service().in_doubt_count(), 0u);
  EXPECT_EQ(p0_->service().txn_log().CountAppended(
                TxnLog::RecordType::kCoordEnd),
            1u);
}

// -- Idempotency and in-doubt behavior -------------------------------------

TEST_F(TxnRecoveryTest, RedeliveredVerbsAnswerIdempotently) {
  soap::QueryId qid = MakeQueryId("idem-1");
  StageUpdates(qid);
  TwoPhaseCommitOptions options;
  options.journal = &p0_->service();
  auto outcome = RunTwoPhaseCommit(
      &net_.network(), {y_->uri(), z_->uri()}, qid.id, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->committed);
  EXPECT_EQ(Count(y_), 4);

  // A re-delivered Commit (lost ack) succeeds without re-applying.
  auto again = SendWsatMessage(&net_.network(), y_->uri(), WsatOp::kCommit,
                               qid.id);
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_TRUE(again->ok);
  EXPECT_EQ(Count(y_), 4);
  // A conflicting Rollback after the commit is refused.
  auto rb = SendWsatMessage(&net_.network(), y_->uri(), WsatOp::kRollback,
                            qid.id);
  ASSERT_TRUE(rb.ok());
  EXPECT_FALSE(rb->ok);
  // Inquiry reports the decision.
  auto inq = SendWsatMessage(&net_.network(), y_->uri(), WsatOp::kInquire,
                             qid.id);
  ASSERT_TRUE(inq.ok());
  EXPECT_EQ(inq->outcome, "committed");
  EXPECT_GT(net_.metrics().Get(net::Metric::kTxnIdempotentReplies), 0);
}

TEST_F(TxnRecoveryTest, CommitToUnknownQueryIdPresumesAbort) {
  auto reply = SendWsatMessage(&net_.network(), y_->uri(), WsatOp::kCommit,
                               "never-heard-of-it");
  ASSERT_TRUE(reply.ok());
  EXPECT_FALSE(reply->ok);
  auto inq = SendWsatMessage(&net_.network(), y_->uri(), WsatOp::kInquire,
                             "never-heard-of-it");
  ASSERT_TRUE(inq.ok());
  EXPECT_EQ(inq->outcome, "aborted");
}

/// Transport decorator dropping the first `failures` Commit messages
/// toward a chosen destination (lost-in-transit simulation, targeted at
/// phase 2 only).
class CommitDropTransport : public net::Transport {
 public:
  CommitDropTransport(net::Transport* inner, std::string dest, int failures)
      : inner_(inner), dest_(std::move(dest)), remaining_(failures) {}

  StatusOr<net::PostResult> Post(const std::string& dest_uri,
                                 const std::string& body) override {
    if (remaining_ > 0 && dest_uri.find(dest_) != std::string::npos &&
        body.find("op=\"commit\"") != std::string::npos) {
      --remaining_;
      return Status::NetworkError("injected commit drop");
    }
    return inner_->Post(dest_uri, body);
  }

 private:
  net::Transport* inner_;
  std::string dest_;
  int remaining_;
};

TEST_F(TxnRecoveryTest, CommitRetryDrainsTransientFailure) {
  soap::QueryId qid = MakeQueryId("retry-1");
  StageUpdates(qid);

  // The first two Commits toward z vanish; the bounded retry loop keeps
  // re-sending (advancing backoff) until the third lands.
  CommitDropTransport flaky(&net_.network(), "z.example.org", 2);
  int64_t slept_us = 0;
  TwoPhaseCommitOptions options;
  options.journal = &p0_->service();
  options.commit_retry =
      net::RetryPolicy{.max_attempts = 4, .initial_backoff_us = 100};
  options.sleep = [&slept_us](int64_t us) { slept_us += us; };
  options.metrics = &net_.metrics();
  auto outcome = RunTwoPhaseCommit(&flaky, {y_->uri(), z_->uri()}, qid.id,
                                   options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->committed);
  EXPECT_TRUE(outcome->in_doubt.empty());
  EXPECT_EQ(outcome->commit_retries, 2);
  EXPECT_GT(slept_us, 0);
  EXPECT_EQ(Count(y_), 4);
  EXPECT_EQ(Count(z_), 4);
  EXPECT_GE(net_.metrics().Get(net::Metric::kTxnCommitRetries), 2);
  EXPECT_EQ(p0_->service().in_doubt_count(), 0u);
}

TEST_F(TxnRecoveryTest, PreparedSessionSurvivesExpiry) {
  soap::QueryId qid = MakeQueryId("expiry-1");
  qid.timeout_sec = 0;  // expires immediately
  StageUpdates(qid);
  // Not yet prepared: expiry may (and does) collect it... unless Prepare
  // got there first.
  auto vote = SendWsatMessage(&net_.network(), y_->uri(), WsatOp::kPrepare,
                              qid.id);
  ASSERT_TRUE(vote.ok());
  if (vote->ok) {
    y_->service().isolation().ExpireSessions();
    // The prepared session is exempt: the PUL is promised to the
    // coordinator and must stay applicable.
    EXPECT_EQ(y_->service().isolation().active_sessions(), 1u);
    auto done = SendWsatMessage(&net_.network(), y_->uri(), WsatOp::kCommit,
                                qid.id);
    ASSERT_TRUE(done.ok());
    EXPECT_TRUE(done->ok);
    EXPECT_EQ(Count(y_), 4);
  }
}

TEST_F(TxnRecoveryTest, FileBackedWalSurvivesRestart) {
  const std::string path = xrpc::testing::UniqueTempPath("txn_recovery_z.wal");
  std::remove(path.c_str());
  ASSERT_TRUE(z_->EnableWal(path).ok());

  z_->InjectCrash(CrashPoint::kAfterCommitLog);
  auto report = Update();
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_TRUE(report->committed);
  EXPECT_EQ(Count(z_), 3);

  // The decision is on disk; replay from the file re-applies it.
  ASSERT_TRUE(z_->Restart().ok());
  EXPECT_EQ(Count(z_), 4);

  TxnLog::ReplayStats stats;
  auto records = TxnLog::ReplayFile(path, &stats);
  ASSERT_TRUE(records.ok());
  EXPECT_FALSE(stats.torn_tail);
  EXPECT_FALSE(stats.checksum_error);
  bool saw_prepared = false, saw_committed = false, saw_applied = false;
  for (const auto& r : records.value()) {
    saw_prepared |= r.type == TxnLog::RecordType::kPrepared;
    saw_committed |= r.type == TxnLog::RecordType::kCommitted;
    saw_applied |= r.type == TxnLog::RecordType::kApplied;
  }
  EXPECT_TRUE(saw_prepared);
  EXPECT_TRUE(saw_committed);
  EXPECT_TRUE(saw_applied);
}

// -- Replicated writes: partition during commit heals via repair ------------

TEST(ShardedRecoveryTest, PartitionDuringCommitHealsViaRepair) {
  // All-copies write over a replicated shard (DESIGN.md §17): every Commit
  // toward the replica copy is lost in transit. The decision is durable and
  // the primary applies; the replica parks its prepared PUL in doubt. Once
  // the partition heals, Repair() resolves the park by coordinator inquiry
  // and the copy converges byte-identically with the primary — applying the
  // PUL exactly once.
  PeerNetwork net;
  xmark::ShardLoadOptions opts;
  opts.num_shards = 3;
  opts.replication_factor = 2;
  xmark::XmarkConfig cfg;
  cfg.num_persons = 12;
  cfg.num_closed_auctions = 16;
  cfg.num_matches = 4;
  cfg.annotation_bytes = 8;
  auto loaded = xmark::LoadShardedXmark(&net, cfg, opts);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  Peer* p0 = net.AddPeer("p0", EngineKind::kInterpreter);
  constexpr char kShardUpd[] = R"(
    module namespace u = "upd_part";
    declare updating function u:stamp()
    { insert nodes <stamp/> into doc("auctions.xml")/site };
  )";
  for (Peer* p : loaded->peers) {
    ASSERT_TRUE(p->RegisterModule(kShardUpd, "u.xq").ok());
  }
  ASSERT_TRUE(p0->RegisterModule(kShardUpd, "u.xq").ok());

  // Stage the updating call at both copies of shard 0 under one queryID,
  // each request scoped to the fragment it must resolve.
  ShardedCollection c;
  int64_t version = 0;
  ASSERT_TRUE(net.catalog().Snapshot("auctions.xml", &c, &version));
  ASSERT_FALSE(c.shards[0].replicas.empty());
  const std::string primary = c.shards[0].peer_uri;
  const std::string replica = c.shards[0].replicas[0];
  const std::string frag = c.shards[0].doc_name;
  soap::QueryId qid;
  qid.id = "partition-1";
  qid.host = p0->uri();
  qid.timestamp = 1;
  qid.timeout_sec = 60;
  server::RpcClient::Options copts;
  copts.isolation = server::IsolationLevel::kRepeatable;
  copts.query_id = qid;
  server::RpcClient client(&net.network(), copts);
  soap::XrpcRequest req;
  req.module_ns = "upd_part";
  req.method = "stamp";
  req.arity = 0;
  req.updating = true;
  req.calls.emplace_back();
  req.shard = soap::XrpcRequest::ShardScope{
      "auctions.xml", 0, version,
      net.catalog().FragmentDataVersion("auctions.xml", 0)};
  ASSERT_TRUE(client.ExecuteBulk(primary, req).ok());
  ASSERT_TRUE(client.ExecuteBulk(replica, req).ok());

  // Phase 2 partition: every Commit toward the replica vanishes; the
  // bounded retry exhausts and parks the participant in doubt.
  CommitDropTransport flaky(&net.network(), replica, /*failures=*/1000);
  int64_t slept_us = 0;
  TwoPhaseCommitOptions options;
  options.journal = &p0->service();
  options.commit_retry =
      net::RetryPolicy{.max_attempts = 2, .initial_backoff_us = 100};
  options.sleep = [&slept_us](int64_t us) { slept_us += us; };
  auto outcome =
      RunTwoPhaseCommit(&flaky, {primary, replica}, qid.id, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_TRUE(outcome->committed);
  ASSERT_EQ(outcome->in_doubt.size(), 1u);
  EXPECT_EQ(outcome->in_doubt[0], replica);
  // What PeerNetwork::Execute does on commit: advance the authoritative
  // fragment versions from the yes-votes' piggybacked write sets.
  for (const server::WrittenFragment& f : outcome->fragments) {
    net.catalog().AdvanceFragmentDataVersion(f.collection, f.shard_index,
                                             f.version);
  }
  EXPECT_EQ(net.catalog().FragmentDataVersion("auctions.xml", 0), 1u);

  auto peer_of = [&](const std::string& uri) {
    return net.GetPeer(uri.substr(std::string("xrpc://").size()));
  };
  Peer* primary_peer = peer_of(primary);
  Peer* replica_peer = peer_of(replica);
  ASSERT_NE(primary_peer, nullptr);
  ASSERT_NE(replica_peer, nullptr);
  auto frag_bytes = [&](Peer* p) {
    auto d = p->database().GetDocument(frag);
    if (!d.ok()) return std::string("<missing>");
    return xml::SerializeNode(*d.value());
  };
  // The primary applied; the partitioned replica still serves pre-commit
  // bytes and lags the authoritative data version.
  EXPECT_EQ(primary_peer->database().AppliedDataVersion(frag), 1u);
  EXPECT_LT(replica_peer->database().AppliedDataVersion(frag), 1u);
  EXPECT_NE(frag_bytes(primary_peer), frag_bytes(replica_peer));

  // Heal: the replica repairs over the (no longer partitioned) network.
  ASSERT_TRUE(replica_peer->Repair().ok());
  EXPECT_EQ(replica_peer->database().AppliedDataVersion(frag), 1u);
  EXPECT_EQ(frag_bytes(replica_peer), frag_bytes(primary_peer));
  EXPECT_NE(frag_bytes(replica_peer).find("<stamp/>"), std::string::npos);
  EXPECT_EQ(replica_peer->service().isolation().active_sessions(), 0u);

  // The coordinator drains its parked participant with an idempotent
  // commit retry; the replica must not apply a second time.
  ASSERT_TRUE(p0->service().RetryInDoubt(&net.network()).ok());
  EXPECT_EQ(p0->service().in_doubt_count(), 0u);
  EXPECT_EQ(frag_bytes(replica_peer), frag_bytes(primary_peer));
}

TEST_F(TxnRecoveryTest, ConcurrentCommitRedeliveryAppliesOnce) {
  soap::QueryId qid = MakeQueryId("race-1");
  StageUpdates(qid);
  auto vote_y = SendWsatMessage(&net_.network(), y_->uri(), WsatOp::kPrepare,
                                qid.id);
  ASSERT_TRUE(vote_y.ok());
  ASSERT_TRUE(vote_y->ok);

  // A herd of duplicate Commits (coordinator retries racing each other)
  // must commit exactly once.
  constexpr int kThreads = 8;
  std::vector<std::thread> herd;
  std::atomic<int> acks{0};
  for (int i = 0; i < kThreads; ++i) {
    herd.emplace_back([&] {
      auto done = SendWsatMessage(&net_.network(), y_->uri(),
                                  WsatOp::kCommit, qid.id);
      if (done.ok() && done->ok) ++acks;
    });
  }
  for (std::thread& t : herd) t.join();
  EXPECT_EQ(acks.load(), kThreads);  // all idempotently acknowledged
  EXPECT_EQ(Count(y_), 4);           // applied exactly once
}

}  // namespace
}  // namespace xrpc::core
