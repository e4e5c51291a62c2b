#ifndef XRPC_SERVER_XRPC_SERVICE_H_
#define XRPC_SERVER_XRPC_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "core/catalog.h"
#include "net/rpc_metrics.h"
#include "net/transport.h"
#include "server/database.h"
#include "server/engine.h"
#include "server/isolation.h"
#include "server/module_registry.h"
#include "server/txn_log.h"
#include "server/wsat.h"

namespace xrpc::server {

/// Crash points of the in-process fault harness. When the armed point is
/// reached during WS-AT handling (participant points) or while the peer
/// coordinates a commit (kCoord* points) the peer "dies": volatile state
/// becomes unreachable (every request answers kNetworkError, and Commit()
/// stops dead with kNetworkError) until Restart() — which discards the
/// volatile state and replays the WAL, exactly what a process restart
/// would do.
enum class CrashPoint {
  kNone,
  kAfterPrepareLog,        ///< PREPARED durable, vote never sent
  kAfterVote,              ///< vote delivered, then the peer dies
  kBeforeCommitApply,      ///< Commit received, nothing logged or applied
  kAfterCommitLog,         ///< COMMITTED durable, PUL not applied
  kCoordAfterVotes,        ///< all voted yes, decision NOT yet logged
  kCoordAfterDecisionLog,  ///< decision durable, no Commit sent yet
};

/// The XRPC request handler of one peer (the server side of the protocol,
/// Section 3): listens for SOAP requests, executes the requested module
/// function through the configured execution engine, and replies with a
/// SOAP response or Fault.
///
/// The same endpoint also serves the WS-AtomicTransaction participant
/// interface on path "wsat" (Prepare/Commit/Rollback/Inquire), implementing
/// rules R'Fu and the 2PC judgments of Section 2.3 — durably: Prepare logs
/// the serialized PUL to the transaction WAL, Commit logs the decision
/// before applying, handlers are idempotent under coordinator retry, and
/// Restart() recovers in-doubt transactions from the WAL (presumed abort +
/// coordinator inquiry). The service is also the WS-Coordinator of the
/// updating queries its peer starts (Commit()), so the same WAL carries
/// both roles' records.
///
/// Every message the service sends — nested `execute at` hops, WS-AT
/// verbs, in-doubt retries, recovery inquiries and repair requests — goes
/// through its one outbound transport.
class XrpcService : public net::SoapEndpoint {
 public:
  struct Options {
    /// This peer's own xrpc:// URI, reported in participating-peer lists.
    std::string self_uri;
    /// Shared peer catalog (DESIGN.md §13); when set, incoming requests
    /// resolve sharded collection names — both "shard:<collection>" URIs
    /// and a collection's logical name mapped to this peer's local
    /// fragments — and nested `execute at` calls route through it. Null
    /// disables shard awareness.
    const core::Catalog* catalog = nullptr;
  };

  /// `outgoing` is the one outbound transport (may be null for a leaf
  /// peer that never sends; its sends then fail with kInvalidArgument).
  XrpcService(Options options, Database* database, ModuleRegistry* registry,
              ExecutionEngine* engine, net::Transport* outgoing);

  /// net::SoapEndpoint: dispatches on path ("" = XRPC, "wsat" = WS-AT).
  StatusOr<std::string> Handle(const std::string& path,
                               const std::string& body) override;

  IsolationManager& isolation() { return isolation_; }
  TxnLog& txn_log() { return log_; }
  Database& database() { return *database_; }
  ModuleRegistry& registry() { return *registry_; }

  /// Switches the transaction log to a durable file at `path` (the WAL).
  /// Call before serving traffic; existing records are NOT replayed here —
  /// use Restart() to recover.
  Status EnableWal(const std::string& path);

  // -- Crash/recovery harness ---------------------------------------------

  /// Arms a simulated crash at `point` (one-shot).
  void InjectCrash(CrashPoint point) { crash_point_ = point; }
  bool crashed() const { return crashed_; }

  /// Simulates a process restart: discards all volatile state (sessions,
  /// decided-outcome cache, coordinator bookkeeping), replays the WAL, and
  /// reconstructs transaction state:
  ///  - COMMITTED records without APPLIED re-apply their PUL;
  ///  - PREPARED records without a decision become in-doubt sessions,
  ///    exempt from expiry;
  ///  - coordinator decisions without COORD-END are re-driven.
  /// In-doubt state is then resolved actively: this peer's unfinished
  /// coordinator transactions re-send Commit (idempotent at the
  /// participants), and RepairReplica() inquires the coordinators of its
  /// own in-doubt prepares (presumed abort on an "aborted"/unknown answer)
  /// before catching lagging fragments up.
  Status Restart();

  // -- Coordinator role ----------------------------------------------------

  /// The WS-Coordinator of Section 2.3, run by the peer that started an
  /// updating query: Prepare on every participant, then the durable commit
  /// decision (logged before any Commit is sent), then phase 2 — or, on a
  /// no-vote, a lost vote or a failed decision log, Rollback everywhere
  /// (presumed abort: nothing is logged). WS-AT verbs are idempotent at the
  /// participants, so the outbound transport retries them like reads.
  /// Participants whose Commit goes unacknowledged stay pending and are
  /// reported in CommitOutcome::in_doubt; the decision stands. An armed
  /// kCoord* crash point stops the coordinator dead with kNetworkError.
  StatusOr<CommitOutcome> Commit(const std::vector<std::string>& participants,
                                 const std::string& query_id);

  /// Re-drives phase 2 for every commit decision with participants still
  /// pending. Returns OK when none remain in doubt.
  Status RetryInDoubt();

  /// Anti-entropy resync (DESIGN.md §17; implemented in server/repair.cc).
  /// First resolves participant in-doubt transactions by coordinator
  /// inquiry (so a parked prepared PUL is never double-applied by repair),
  /// then compares every locally held fragment's applied data version
  /// against the catalog's authoritative version and catches lagging
  /// fragments up from a peer copy: missed committed PULs are replayed
  /// when a donor's WAL covers the gap contiguously, else the whole
  /// fragment is transferred. Runs automatically at the end of Restart();
  /// also reachable as Peer::Repair() after a reconnect.
  Status RepairReplica();

  /// queryIDs currently parked in-doubt (either role).
  size_t in_doubt_count() const;

  /// Statistics.
  int64_t requests_handled() const { return requests_handled_; }
  int64_t calls_handled() const { return calls_handled_; }
  void ResetStats() {
    requests_handled_ = 0;
    calls_handled_ = 0;
  }

  /// Optional shared observability registry; records the server-side
  /// request/call/fault counts under this peer's self URI, plus the
  /// transaction counters (in-doubt, replays, idempotent replies).
  void set_metrics(net::RpcMetrics* metrics) { metrics_ = metrics; }

  /// Clock that deadlines and cancellation are measured against (micros;
  /// steady clock by default, the virtual clock under simulation). Set
  /// before serving traffic.
  void set_time_source(std::function<int64_t()> now_us) {
    now_us_ = std::move(now_us);
  }

 private:
  /// Outcome a participant remembers for a decided transaction (idempotent
  /// Prepare/Commit/Rollback replies). Rebuilt from the WAL.
  enum class TxnOutcome { kCommitted, kAborted };

  StatusOr<std::string> HandleXrpc(const std::string& body);
  StatusOr<std::string> HandleWsat(const std::string& body);

  /// Determines which documents a session's PUL writes (maps update target
  /// roots back to document names) and records them in the session.
  Status ResolveWrittenDocs(QuerySession* session);

  /// Builds the PREPARED payload (coordinator, doc base versions,
  /// serialized PUL) for a session that is about to vote yes.
  StatusOr<PreparedPayload> BuildPreparedPayload(QuerySession* session);

  /// Applies a prepared session's PUL and installs the written documents
  /// under first-committer-wins version checks.
  Status ApplyPreparedSession(QuerySession* session);

  /// Rebuilds an in-doubt session from a PREPARED payload (crash
  /// recovery): pins fresh clones of the written documents at their
  /// recorded base versions and re-resolves the PUL against them.
  StatusOr<QuerySession*> RestoreInDoubtSession(const std::string& query_id,
                                                const PreparedPayload& p);

  /// Sends one WS-AT request through the outbound transport.
  StatusOr<WsatMessage> SendWsat(const std::string& peer,
                                 const WsatMessage& request,
                                 int* retries = nullptr);

  /// Phase 2, the one drain of coord_[query_id]: sends Commit to every
  /// participant still pending and forgets each that acknowledges; once
  /// none is left, logs COORD-END. Returns the participants still pending.
  std::vector<std::string> DrainCommits(const std::string& query_id,
                                        CommitOutcome* outcome);

  /// Resolves participant-side in-doubt transactions by inquiring their
  /// coordinators; commits or aborts per the answer (presumed abort).
  Status ResolveParticipantInDoubt();

  /// Donor side of the WS-AT kRepair verb (server/repair.cc): builds the
  /// delta (or full-transfer) reply for a lagging copy's catch-up request.
  WsatMessage BuildRepairReply(const WsatMessage& request);

  /// Requester side (server/repair.cc): catches one lagging fragment up
  /// from `donor`, delta-first with full-transfer fallback.
  Status ResyncFragmentFrom(const std::string& donor,
                            const std::string& collection,
                            const core::ShardInfo& shard,
                            uint64_t authoritative);

  /// Replays a delta-mode repair reply (missed committed PULs, in version
  /// order) against the live fragment and verifies the donor's digest.
  Status ApplyRepairDeltas(const WsatMessage& reply);

  /// Installs a full-transfer repair reply as the new fragment state.
  Status ApplyRepairFullBody(const WsatMessage& reply);

  /// True (and the crash latch set) if the armed crash point is `point`.
  bool TriggerCrash(CrashPoint point);

  void RememberOutcome(const std::string& query_id, TxnOutcome outcome);

  Options options_;
  Database* database_;
  ModuleRegistry* registry_;
  ExecutionEngine* engine_;
  /// The peer's one long-lived path index (DESIGN.md §6), handed to the
  /// engine with every request. Its keys are expressions of `registry_`'s
  /// modules, so the service must be destroyed before the registry.
  xquery::PathIndex path_index_;
  net::Transport* outgoing_;
  IsolationManager isolation_;
  TxnLog log_;
  net::RpcMetrics* metrics_ = nullptr;
  std::function<int64_t()> now_us_;

  /// Serializes WS-AT verb handling and recovery state rebuilding: two
  /// concurrently re-delivered Commits must not both apply the same PUL.
  /// Never held across an outgoing send (a peer may coordinate itself).
  std::mutex wsat_mu_;
  mutable std::mutex txn_mu_;
  /// Decided outcomes of the participant role, for idempotent replies.
  std::map<std::string, TxnOutcome> outcomes_;
  /// Commit decisions this peer made as coordinator (kCoordCommit), the
  /// answer to recovery inquiries. Kept apart from outcomes_: a peer may
  /// participate in a transaction it coordinates, and its participant role
  /// must still apply its own part when the decision's Commit arrives.
  std::set<std::string> coord_committed_;
  /// Commit decisions not yet acknowledged by every participant, mapped
  /// to the participants still pending (in doubt).
  std::map<std::string, std::set<std::string>> coord_;
  /// Participant in-doubt queryIDs awaiting a coordinator decision,
  /// mapped to the coordinator URI to inquire at.
  std::map<std::string, std::string> participant_in_doubt_;

  std::atomic<bool> crashed_{false};
  std::atomic<CrashPoint> crash_point_{CrashPoint::kNone};

  // Concurrent HTTP worker threads handle requests in parallel.
  std::atomic<int64_t> requests_handled_{0};
  std::atomic<int64_t> calls_handled_{0};
};

}  // namespace xrpc::server

#endif  // XRPC_SERVER_XRPC_SERVICE_H_
