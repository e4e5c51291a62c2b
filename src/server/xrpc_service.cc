#include "server/xrpc_service.h"

#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "base/cancellation.h"
#include "base/string_util.h"
#include "server/remote_docs.h"
#include "server/rpc_client.h"

namespace xrpc::server {

XrpcService::XrpcService(Options options, Database* database,
                         ModuleRegistry* registry, ExecutionEngine* engine,
                         net::Transport* outgoing)
    : options_(std::move(options)),
      database_(database),
      registry_(registry),
      engine_(engine),
      outgoing_(outgoing),
      isolation_(database),
      now_us_([] {
        return std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
      }) {}

StatusOr<std::string> XrpcService::Handle(const std::string& path,
                                          const std::string& body) {
  if (crashed_.load()) {
    // The simulated-dead peer answers nothing; the transport sees the same
    // kNetworkError a connection refusal would produce.
    return Status::NetworkError("peer crashed (simulated): " +
                                options_.self_uri);
  }
  if (path == kWsatPath) return HandleWsat(body);
  return HandleXrpc(body);
}

Status XrpcService::EnableWal(const std::string& path) {
  return log_.Open(path);
}

bool XrpcService::TriggerCrash(CrashPoint point) {
  CrashPoint expected = point;
  if (point == CrashPoint::kNone ||
      !crash_point_.compare_exchange_strong(expected, CrashPoint::kNone)) {
    return false;
  }
  crashed_ = true;
  return true;
}

void XrpcService::RememberOutcome(const std::string& query_id,
                                  TxnOutcome outcome) {
  std::lock_guard<std::mutex> lock(txn_mu_);
  outcomes_[query_id] = outcome;
  if (participant_in_doubt_.erase(query_id) > 0 && metrics_ != nullptr) {
    metrics_->Add(net::Metric::kTxnInDoubt, -1);
  }
}

StatusOr<std::string> XrpcService::HandleXrpc(const std::string& body) {
  ++requests_handled_;
  // Requests answered with a SOAP Fault count as server-side faults in the
  // shared metrics registry; successful ones report their bulk-call count.
  auto fault_reply = [this](const Status& status) {
    if (metrics_ != nullptr) {
      metrics_->Add(net::Metric::kServerRequests, 1, options_.self_uri);
      metrics_->Add(net::Metric::kServerFaults, 1, options_.self_uri);
    }
    return soap::SerializeFault(soap::FaultFromStatus(status));
  };
  auto parsed = soap::ParseRequest(body);
  if (!parsed.ok()) {
    return fault_reply(parsed.status());
  }
  const soap::XrpcRequest& request = parsed.value();
  calls_handled_ += static_cast<int64_t>(request.calls.size());

  // Deadline admission + cancellation arming. The header carries the
  // budget REMAINING when the caller sent the request; this hop anchors it
  // to its own clock at entry (no cross-host clock agreement needed). An
  // already-spent budget is rejected before any module resolution or
  // compilation — the cheapest place to shed doomed work.
  const int64_t entry_us = now_us_();
  CancellationToken cancel_token;
  if (request.deadline_us.has_value()) {
    if (*request.deadline_us <= 0) {
      if (metrics_ != nullptr) {
        metrics_->Add(net::Metric::kDeadlineServerRejects);
      }
      return fault_reply(Status::DeadlineExceeded(
          "request arrived with an exhausted deadline budget at " +
          options_.self_uri));
    }
    cancel_token.ArmDeadline(entry_us + *request.deadline_us, now_us_);
  }

  // Catalog epoch fence (DESIGN.md §14). A shard-routed request carries the
  // catalog version its sender decomposed by; any difference means the
  // sender's routing may be wrong, so the call is rejected with the
  // retriable StaleCatalog fault BEFORE any execution — which is what makes
  // a re-route safe even for updating calls. On success the scope pins the
  // logical collection name to the exact fragment this subcall must read
  // (a replica peer stores several fragments of the same collection).
  std::optional<std::pair<std::string, std::string>> pinned_fragment;
  if (request.shard.has_value()) {
    const soap::XrpcRequest::ShardScope& scope = *request.shard;
    auto stale_reply = [&](const std::string& why) {
      if (metrics_ != nullptr) {
        metrics_->Add(net::Metric::kStaleCatalogRejects);
      }
      return fault_reply(Status::StaleCatalog(why));
    };
    if (options_.catalog == nullptr) {
      return fault_reply(Status::InvalidArgument(
          "shard-scoped request at catalog-less peer " + options_.self_uri));
    }
    core::ShardedCollection collection;
    int64_t version = 0;
    const bool known =
        options_.catalog->Snapshot(scope.collection, &collection, &version);
    // An unknown collection is reported as such BEFORE any version
    // comparison: two independent catalogs can share a version counter
    // value, and "version mismatch" on a collection this peer has never
    // heard of sends the caller chasing a catalog refetch that cannot help.
    if (!known) {
      return stale_reply("collection " + scope.collection + " unknown at " +
                         options_.self_uri);
    }
    if (version != scope.catalog_version) {
      return stale_reply("peer " + options_.self_uri + " at catalog version " +
                         std::to_string(version) + ", caller routed by " +
                         std::to_string(scope.catalog_version));
    }
    if (scope.shard_index < 0 ||
        scope.shard_index >= static_cast<int>(collection.shards.size())) {
      return stale_reply("shard " + std::to_string(scope.shard_index) +
                         " of collection " + scope.collection +
                         " unknown at " + options_.self_uri);
    }
    const core::ShardInfo& shard = collection.shards[scope.shard_index];
    bool serves = shard.peer_uri == options_.self_uri;
    for (const std::string& replica : shard.replicas) {
      serves = serves || replica == options_.self_uri;
    }
    if (!serves) {
      return stale_reply("peer " + options_.self_uri +
                         " holds no replica of shard " +
                         std::to_string(scope.shard_index) + " of " +
                         scope.collection);
    }
    // Data fence (DESIGN.md §17): the caller routed by the fragment's
    // authoritative data version; a copy whose applied version lags it
    // must not serve — the retriable StaleReplica fault makes failover
    // skip to an up-to-date copy (and fences writes at lagging copies,
    // which must repair before accepting new updates).
    if (scope.data_version > 0 &&
        database_->AppliedDataVersion(shard.doc_name) < scope.data_version) {
      if (metrics_ != nullptr) {
        metrics_->Add(net::Metric::kStaleReplicaRejects);
      }
      return fault_reply(Status::StaleReplica(
          "fragment " + shard.doc_name + " at " + options_.self_uri +
          " applied data version " +
          std::to_string(database_->AppliedDataVersion(shard.doc_name)) +
          ", caller routed by " + std::to_string(scope.data_version)));
    }
    pinned_fragment.emplace(collection.name, shard.doc_name);
  }

  // Choose the database view per the isolation level of the request.
  QuerySession* session = nullptr;
  std::unique_ptr<xquery::DocumentProvider> provider;
  if (request.query_id.has_value()) {
    auto session_or = isolation_.GetSession(*request.query_id);
    if (!session_or.ok()) {
      return fault_reply(session_or.status());
    }
    session = session_or.value();
    provider = std::make_unique<IsolationManager::SnapshotProvider>(database_,
                                                                    session);
  } else {
    provider = std::make_unique<LiveDocumentProvider>(database_);
  }

  // Nested `execute at` calls from function bodies reuse this query's
  // isolation options and contribute to the participating-peer set.
  std::unique_ptr<RpcClient> nested;
  if (outgoing_ != nullptr) {
    RpcClient::Options copts;
    if (request.query_id.has_value()) {
      copts.isolation = IsolationLevel::kRepeatable;
      copts.query_id = request.query_id;
    }
    if (request.deadline_us.has_value()) {
      // Nested relocation hops inherit the budget MINUS whatever this hop
      // spends before each send: the client stamps the remainder at send
      // time against this service's clock.
      copts.deadline_us = entry_us + *request.deadline_us;
      copts.now_us = now_us_;
    }
    copts.catalog = options_.catalog;
    nested = std::make_unique<RpcClient>(outgoing_, copts);
  }

  // Function bodies may themselves call fn:doc on xrpc:// URIs (the Q_B2
  // execution-relocation pattern); route those through the nested client.
  FederatedDocumentProvider federated(provider.get(), nested.get());
  // On top of federation, resolve sharded collections: a shard peer's
  // module body calls doc("<collection>") and sees its local fragments.
  ShardDocumentProvider sharded(&federated, options_.catalog,
                                options_.self_uri);
  if (pinned_fragment.has_value()) {
    sharded.PinFragment(pinned_fragment->first, pinned_fragment->second);
  }

  CallContext context;
  context.documents = &sharded;
  context.modules = registry_;
  context.rpc = nested.get();
  context.cancel = &cancel_token;

  xquery::PendingUpdateList pul;
  auto results = engine_->ExecuteRequest(request, context, &pul);
  if (!results.ok()) {
    const StatusCode code = results.status().code();
    if (code == StatusCode::kDeadlineExceeded || code == StatusCode::kCancelled) {
      // The engine observed cooperative cancellation. Release the query's
      // repeatable-read snapshot NOW instead of waiting for session expiry
      // — the query can never complete, so pinning its private clones any
      // longer only wastes memory. Prepared sessions are exempt: their PUL
      // is on the stable log and the 2PC promise to commit must survive
      // (the coordinator's decision, not a deadline, ends them).
      if (metrics_ != nullptr) metrics_->Add(net::Metric::kCancellations);
      if (session != nullptr && !session->prepared) {
        isolation_.EndSession(request.query_id->id);
        session = nullptr;
        if (metrics_ != nullptr) metrics_->Add(net::Metric::kSessionsReleased);
      }
    }
    return fault_reply(results.status());
  }

  if (!pul.empty()) {
    // A request may lack updCall when the caller could not resolve the
    // module locally; the pending update list itself is authoritative.
    if (session != nullptr) {
      // Rule R'Fu: defer; the coordinator commits via WS-AT.
      session->pul.BeginCall();
      session->pul.Merge(std::move(pul));
      if (request.shard.has_value() && pinned_fragment.has_value()) {
        // Remember which fragment this updating call targets and the data
        // version a commit will produce (routed version + 1). Filtered to
        // the docs the PUL actually writes at Prepare, voted back to the
        // coordinator, and installed as the applied data version on apply.
        QuerySession::FragmentTarget& t =
            session->fragment_targets[pinned_fragment->second];
        t.collection = request.shard->collection;
        t.shard_index = request.shard->shard_index;
        if (request.shard->data_version + 1 > t.target_version) {
          t.target_version = request.shard->data_version + 1;
        }
      }
    } else {
      // Rule RFu: apply each request's updates immediately.
      Status applied = database_->ApplyImmediate(&pul);
      if (!applied.ok()) {
        return fault_reply(applied);
      }
    }
  }

  soap::XrpcResponse response;
  response.module_ns = request.module_ns;
  response.method = request.method;
  response.results = std::move(results).value();
  response.participating_peers.push_back(options_.self_uri);
  if (nested != nullptr) {
    for (const std::string& peer : nested->participating_peers()) {
      response.participating_peers.push_back(peer);
    }
  }
  if (metrics_ != nullptr) {
    metrics_->Add(net::Metric::kServerRequests, 1, options_.self_uri);
    metrics_->Add(net::Metric::kServerCalls,
                  static_cast<int64_t>(request.calls.size()),
                  options_.self_uri);
  }
  return soap::SerializeResponse(response);
}

Status XrpcService::ResolveWrittenDocs(QuerySession* session) {
  session->written_docs.clear();
  for (const auto& entry : session->pul.entries()) {
    const xquery::UpdatePrimitive& p = entry.primitive;
    if (p.kind == xquery::UpdatePrimitive::Kind::kPut) {
      session->written_docs.insert(p.put_uri);
      continue;
    }
    if (p.target.node() == nullptr) continue;
    const xml::Node* root = p.target.node()->Root();
    for (const auto& [name, versioned] : session->docs) {
      if (versioned.first.get() == root) {
        session->written_docs.insert(name);
        break;
      }
    }
  }
  return Status::OK();
}

StatusOr<PreparedPayload> XrpcService::BuildPreparedPayload(
    QuerySession* session) {
  PreparedPayload payload;
  // The query host drove this transaction; it is who recovery inquires.
  payload.coordinator = session->id.host;
  for (const std::string& name : session->written_docs) {
    auto it = session->docs.find(name);
    if (it == session->docs.end()) continue;  // fn:put of a new document
    payload.docs.emplace_back(name, it->second.second);
  }
  // Only fragments the PUL actually writes vote a version advance; an
  // unwritten fragment's target would advance the catalog past every copy.
  for (const auto& [doc, target] : session->fragment_targets) {
    if (session->written_docs.count(doc) == 0) continue;
    payload.fragments.push_back(
        {doc, target.collection, target.shard_index, target.target_version});
  }
  auto namer = [session](const xml::Node* root) -> StatusOr<std::string> {
    for (const auto& [name, versioned] : session->docs) {
      if (versioned.first.get() == root) return name;
    }
    return Status::IsolationError(
        "update target outside the pinned snapshot");
  };
  XRPC_ASSIGN_OR_RETURN(payload.pul, session->pul.Serialize(namer));
  return payload;
}

Status XrpcService::ApplyPreparedSession(QuerySession* session) {
  XRPC_RETURN_IF_ERROR(xquery::ApplyUpdates(&session->pul, database_));
  for (const std::string& name : session->written_docs) {
    auto it = session->docs.find(name);
    if (it == session->docs.end()) continue;  // fn:put handled by sink
    XRPC_RETURN_IF_ERROR(
        database_->ReplaceIfVersion(name, it->second.second, it->second.first));
    auto target = session->fragment_targets.find(name);
    if (target != session->fragment_targets.end()) {
      database_->SetAppliedDataVersion(name, target->second.target_version);
    }
  }
  return Status::OK();
}

StatusOr<QuerySession*> XrpcService::RestoreInDoubtSession(
    const std::string& query_id, const PreparedPayload& p) {
  auto session = std::make_unique<QuerySession>();
  session->id.id = query_id;
  session->id.host = p.coordinator;
  // Deadline is moot: prepared sessions are exempt from expiry.
  session->deadline_us = isolation_.NowMicros();
  session->prepared = true;
  for (const WrittenFragment& f : p.fragments) {
    session->fragment_targets[f.doc] = {f.collection, f.shard_index,
                                        f.version};
  }
  for (const auto& [name, version] : p.docs) {
    // Pin a fresh clone at the RECORDED base version: while this peer was
    // down it accepted no commits, so the live tree still carries the state
    // the PUL paths were serialized against; ReplaceIfVersion re-validates
    // that assumption at apply time (first-committer-wins survives crashes).
    XRPC_ASSIGN_OR_RETURN(xml::NodePtr live, database_->GetDocument(name));
    session->docs[name] = {live->Clone(), version};
  }
  QuerySession* raw = session.get();
  auto resolver = [raw](const std::string& name) -> StatusOr<xml::NodePtr> {
    auto it = raw->docs.find(name);
    if (it == raw->docs.end()) {
      return Status::TransactionError(
          "PREPARED payload references unknown document: " + name);
    }
    return it->second.first;
  };
  XRPC_ASSIGN_OR_RETURN(
      session->pul, xquery::PendingUpdateList::Deserialize(p.pul, resolver));
  XRPC_RETURN_IF_ERROR(ResolveWrittenDocs(raw));
  return isolation_.RestoreSession(std::move(session));
}

StatusOr<std::string> XrpcService::HandleWsat(const std::string& body) {
  auto parsed = ParseWsatMessage(body);
  if (!parsed.ok()) {
    WsatMessage err;
    err.ok = false;
    err.reason = parsed.status().ToString();
    return SerializeWsatResponse(err);
  }
  const WsatMessage& msg = parsed.value();
  // One WS-AT verb at a time: a redelivered Commit racing the original must
  // observe either "not yet decided" or the decided outcome, never a
  // half-applied session.
  std::lock_guard<std::mutex> wsat_lock(wsat_mu_);
  WsatMessage reply;
  reply.op = msg.op;
  reply.query_id = msg.query_id;

  auto respond = [&]() { return SerializeWsatResponse(reply); };
  auto respond_abort = [&](const std::string& reason) {
    reply.ok = false;
    reply.reason = reason;
    isolation_.EndSession(msg.query_id);
    return SerializeWsatResponse(reply);
  };
  auto idempotent_reply = [&](bool ok, const std::string& reason) {
    if (metrics_ != nullptr) metrics_->Add(net::Metric::kTxnIdempotentReplies);
    reply.ok = ok;
    reply.reason = reason;
    return SerializeWsatResponse(reply);
  };
  // The decided outcome for this queryID, if any (rebuilt from the WAL at
  // recovery): the source of idempotent replies and inquiry answers.
  auto decided = [&]() -> std::optional<TxnOutcome> {
    std::lock_guard<std::mutex> lock(txn_mu_);
    auto it = outcomes_.find(msg.query_id);
    if (it == outcomes_.end()) return std::nullopt;
    return it->second;
  };

  switch (msg.op) {
    case WsatOp::kPrepare: {
      if (auto o = decided()) {
        // A re-delivered Prepare after the decision: re-vote consistently.
        return *o == TxnOutcome::kCommitted
                   ? idempotent_reply(true, "")
                   : idempotent_reply(false, "queryID already rolled back: " +
                                                 msg.query_id);
      }
      auto session_or = isolation_.FindSession(msg.query_id);
      if (!session_or.ok()) {
        return respond_abort(session_or.status().ToString());
      }
      QuerySession* session = session_or.value();
      auto vote_fragments = [&](QuerySession* s) {
        for (const auto& [doc, t] : s->fragment_targets) {
          if (s->written_docs.count(doc) == 0) continue;
          reply.fragments.push_back(
              {doc, t.collection, t.shard_index, t.target_version});
        }
      };
      if (session->prepared) {
        // Duplicate Prepare (retried envelope): the PUL is already logged.
        // Re-vote the same fragment list — the first vote may have been
        // the message that got lost.
        vote_fragments(session);
        return idempotent_reply(true, "");
      }
      XRPC_RETURN_IF_ERROR(ResolveWrittenDocs(session));
      // First-committer-wins: another transaction must not have committed
      // to any written document since our snapshot was pinned.
      for (const std::string& name : session->written_docs) {
        auto it = session->docs.find(name);
        if (it == session->docs.end()) continue;  // fn:put of a new doc
        if (database_->VersionOf(name) != it->second.second) {
          return respond_abort("conflicting transaction on document " + name);
        }
      }
      auto payload_or = BuildPreparedPayload(session);
      if (!payload_or.ok()) {
        return respond_abort(payload_or.status().ToString());
      }
      Status logged =
          log_.Append({TxnLog::RecordType::kPrepared, msg.query_id,
                       SerializePreparedPayload(payload_or.value())});
      if (!logged.ok()) return respond_abort(logged.ToString());
      if (TriggerCrash(CrashPoint::kAfterPrepareLog)) {
        // PREPARED is durable but the vote is lost: the coordinator times
        // out and aborts; recovery resolves us via inquiry (presumed abort).
        return Status::NetworkError(
            "peer crashed (simulated) before sending its vote");
      }
      session->prepared = true;
      reply.ok = true;
      vote_fragments(session);
      // kAfterVote: the yes-vote still reaches the coordinator, then the
      // peer dies holding an in-doubt transaction.
      (void)TriggerCrash(CrashPoint::kAfterVote);
      return respond();
    }

    case WsatOp::kCommit: {
      if (auto o = decided()) {
        return *o == TxnOutcome::kCommitted
                   ? idempotent_reply(true, "")
                   : idempotent_reply(false, "queryID already rolled back: " +
                                                 msg.query_id);
      }
      auto session_or = isolation_.FindSession(msg.query_id);
      if (!session_or.ok()) {
        // Presumed abort: no session, no PREPARED record, no decision —
        // this participant never promised anything.
        reply.ok = false;
        reply.reason = "unknown queryID (presumed abort): " + msg.query_id;
        return respond();
      }
      QuerySession* session = session_or.value();
      if (!session->prepared) {
        return respond_abort("commit without successful prepare");
      }
      if (TriggerCrash(CrashPoint::kBeforeCommitApply)) {
        // Nothing logged, nothing applied: after recovery the session is
        // in-doubt again and the retried Commit (or inquiry) decides.
        return Status::NetworkError(
            "peer crashed (simulated) before logging the commit");
      }
      Status logged =
          log_.Append({TxnLog::RecordType::kCommitted, msg.query_id, ""});
      if (!logged.ok()) return respond_abort(logged.ToString());
      if (TriggerCrash(CrashPoint::kAfterCommitLog)) {
        // COMMITTED is durable, effects are not: replay must re-apply.
        return Status::NetworkError(
            "peer crashed (simulated) after logging the commit");
      }
      Status applied = ApplyPreparedSession(session);
      if (!applied.ok()) {
        // The durable decision stands; a later replay retries the apply.
        reply.ok = false;
        reply.reason = applied.ToString();
        return respond();
      }
      (void)log_.Append({TxnLog::RecordType::kApplied, msg.query_id, ""});
      RememberOutcome(msg.query_id, TxnOutcome::kCommitted);
      isolation_.EndSession(msg.query_id);
      reply.ok = true;
      return respond();
    }

    case WsatOp::kRollback: {
      if (auto o = decided()) {
        return *o == TxnOutcome::kAborted
                   ? idempotent_reply(true, "")
                   : idempotent_reply(false, "queryID already committed: " +
                                                 msg.query_id);
      }
      auto session_or = isolation_.FindSession(msg.query_id);
      if (session_or.ok()) {
        if (session_or.value()->prepared) {
          // The ABORTED record is an optimization (it spares the inquiry on
          // replay), not a correctness requirement: under presumed abort
          // losing it just means re-deriving the same answer.
          (void)log_.Append(
              {TxnLog::RecordType::kAborted, msg.query_id, ""});
          RememberOutcome(msg.query_id, TxnOutcome::kAborted);
        }
        isolation_.EndSession(msg.query_id);
      }
      // Rolling back an unknown queryID is trivially successful.
      reply.ok = true;
      return respond();
    }

    case WsatOp::kInquire: {
      // Presumed abort: only a commit decision on record answers
      // "committed"; everything else — including "never heard of it" —
      // answers "aborted".
      reply.ok = true;
      auto o = decided();
      reply.outcome = (o.has_value() && *o == TxnOutcome::kCommitted)
                          ? "committed"
                          : "aborted";
      return respond();
    }

    case WsatOp::kRepair: {
      // Anti-entropy donor side (server/repair.cc): answer with the
      // committed PULs — or the full fragment — a lagging copy is missing.
      reply = BuildRepairReply(msg);
      return respond();
    }
  }
  return Status::Internal("unhandled WS-AT op");
}

// -- CoordinatorJournal -----------------------------------------------------

Status XrpcService::LogCommitDecision(
    const std::string& query_id,
    const std::vector<std::string>& participants) {
  XRPC_RETURN_IF_ERROR(log_.Append({TxnLog::RecordType::kCoordCommit, query_id,
                                    JoinStrings(participants, "\n")}));
  std::lock_guard<std::mutex> lock(txn_mu_);
  CoordTxn& txn = coord_[query_id];
  txn.pending.clear();
  txn.pending.insert(participants.begin(), participants.end());
  txn.ended = false;
  outcomes_[query_id] = TxnOutcome::kCommitted;
  return Status::OK();
}

void XrpcService::RecordCommitAck(const std::string& query_id,
                                  const std::string& participant) {
  std::lock_guard<std::mutex> lock(txn_mu_);
  auto it = coord_.find(query_id);
  if (it != coord_.end()) it->second.pending.erase(participant);
}

void XrpcService::ParkInDoubt(const std::string& query_id,
                              const std::string& participant) {
  // The participant already sits in coord_[query_id].pending; parking just
  // means leaving it there for RetryInDoubt to drain.
  (void)query_id;
  (void)participant;
}

Status XrpcService::LogCommitEnd(const std::string& query_id) {
  XRPC_RETURN_IF_ERROR(
      log_.Append({TxnLog::RecordType::kCoordEnd, query_id, ""}));
  std::lock_guard<std::mutex> lock(txn_mu_);
  coord_.erase(query_id);
  return Status::OK();
}

size_t XrpcService::in_doubt_count() const {
  std::lock_guard<std::mutex> lock(txn_mu_);
  size_t n = participant_in_doubt_.size();
  for (const auto& [qid, txn] : coord_) n += txn.pending.size();
  return n;
}

Status XrpcService::RetryInDoubt(net::Transport* transport) {
  if (transport == nullptr) {
    return Status::InvalidArgument("RetryInDoubt requires a transport");
  }
  std::map<std::string, std::set<std::string>> snapshot;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    for (const auto& [qid, txn] : coord_) {
      if (!txn.pending.empty()) snapshot[qid] = txn.pending;
    }
  }
  for (const auto& [qid, peers] : snapshot) {
    for (const std::string& p : peers) {
      // Commit is idempotent at the participant, so re-sending after an
      // ack lost on the wire is harmless.
      auto done = SendWsatMessage(transport, p, WsatOp::kCommit, qid);
      if (done.ok() && done.value().ok) {
        RecordCommitAck(qid, p);
        if (metrics_ != nullptr) metrics_->Add(net::Metric::kTxnInDoubt, -1);
      }
    }
  }
  std::vector<std::string> finished;
  size_t still_pending = 0;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    for (const auto& [qid, txn] : coord_) {
      if (txn.pending.empty()) {
        finished.push_back(qid);
      } else {
        still_pending += txn.pending.size();
      }
    }
  }
  for (const std::string& qid : finished) {
    XRPC_RETURN_IF_ERROR(LogCommitEnd(qid));
  }
  if (still_pending > 0) {
    return Status::TransactionError(
        std::to_string(still_pending) +
        " participant(s) still in doubt after commit retry");
  }
  return Status::OK();
}

Status XrpcService::ResolveParticipantInDoubt(net::Transport* transport) {
  std::map<std::string, std::string> snapshot;
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    snapshot = participant_in_doubt_;
  }
  Status first_error = Status::OK();
  auto note = [&first_error](const Status& s) {
    if (first_error.ok() && !s.ok()) first_error = s;
  };
  for (const auto& [qid, coordinator] : snapshot) {
    // The inquiry goes out without wsat_mu_ held (the coordinator may be
    // this very peer, whose wsat endpoint must stay reachable).
    auto answer =
        SendWsatMessage(transport, coordinator, WsatOp::kInquire, qid);
    if (!answer.ok()) {
      // Coordinator unreachable: stay in doubt, inquire again later.
      note(answer.status());
      continue;
    }
    std::lock_guard<std::mutex> wsat_lock(wsat_mu_);
    {
      // A Commit/Rollback redelivered while the inquiry was in flight may
      // have decided this transaction already.
      std::lock_guard<std::mutex> lock(txn_mu_);
      if (outcomes_.count(qid) > 0) continue;
    }
    auto session_or = isolation_.FindSession(qid);
    if (!session_or.ok()) continue;  // resolved concurrently
    if (answer.value().outcome == "committed") {
      Status logged = log_.Append({TxnLog::RecordType::kCommitted, qid, ""});
      if (!logged.ok()) {
        note(logged);
        continue;
      }
      Status applied = ApplyPreparedSession(session_or.value());
      if (!applied.ok()) {
        // Decision is durable; the next replay retries the apply.
        note(applied);
        continue;
      }
      (void)log_.Append({TxnLog::RecordType::kApplied, qid, ""});
      RememberOutcome(qid, TxnOutcome::kCommitted);
    } else {
      // Explicit abort answer, or "unknown" — both mean abort under the
      // presumed-abort rule.
      (void)log_.Append({TxnLog::RecordType::kAborted, qid, ""});
      RememberOutcome(qid, TxnOutcome::kAborted);
    }
    isolation_.EndSession(qid);
  }
  return first_error;
}

Status XrpcService::Restart(net::Transport* transport) {
  std::unique_lock<std::mutex> wsat_lock(wsat_mu_);
  // 1. Lose everything a process restart loses.
  isolation_.Reset();
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    if (metrics_ != nullptr && !participant_in_doubt_.empty()) {
      metrics_->Add(net::Metric::kTxnInDoubt,
                    -static_cast<int64_t>(participant_in_doubt_.size()));
    }
    outcomes_.clear();
    coord_.clear();
    participant_in_doubt_.clear();
  }
  crashed_ = false;
  crash_point_ = CrashPoint::kNone;
  if (metrics_ != nullptr) metrics_->Add(net::Metric::kTxnRecoveries);

  // 2. Replay the WAL and fold it into per-transaction state.
  TxnLog::ReplayStats stats;
  XRPC_ASSIGN_OR_RETURN(std::vector<TxnLog::Record> records,
                        log_.Replay(&stats));
  if (metrics_ != nullptr) {
    metrics_->Add(net::Metric::kTxnReplayedRecords,
                  static_cast<int64_t>(records.size()));
  }

  struct ParticipantState {
    bool prepared = false;
    bool committed = false;
    bool applied = false;
    bool aborted = false;
    std::string payload;
  };
  struct CoordState {
    std::vector<std::string> participants;
    bool ended = false;
  };
  std::map<std::string, ParticipantState> part;
  std::map<std::string, CoordState> coord;
  for (const TxnLog::Record& r : records) {
    switch (r.type) {
      case TxnLog::RecordType::kPrepared: {
        ParticipantState& s = part[r.query_id];
        s.prepared = true;
        s.payload = r.payload;
        break;
      }
      case TxnLog::RecordType::kCommitted:
        part[r.query_id].committed = true;
        break;
      case TxnLog::RecordType::kApplied:
        part[r.query_id].applied = true;
        break;
      case TxnLog::RecordType::kAborted:
        part[r.query_id].aborted = true;
        break;
      case TxnLog::RecordType::kCoordCommit:
        coord[r.query_id].participants = SplitString(r.payload, '\n');
        break;
      case TxnLog::RecordType::kCoordEnd:
        coord[r.query_id].ended = true;
        break;
    }
  }

  Status first_error = Status::OK();
  auto note = [&first_error](const Status& s) {
    if (first_error.ok() && !s.ok()) first_error = s;
  };

  // 3. Participant role.
  for (const auto& [qid, st] : part) {
    if (st.aborted && !st.committed) {
      RememberOutcome(qid, TxnOutcome::kAborted);
      continue;
    }
    if (st.committed) {
      RememberOutcome(qid, TxnOutcome::kCommitted);
      if (!st.applied) {
        // The decision survived the crash but the effects did not:
        // reconstruct the session from the PREPARED payload and re-apply.
        auto payload_or = ParsePreparedPayload(st.payload);
        if (!payload_or.ok()) {
          note(payload_or.status());
          continue;
        }
        auto session_or = RestoreInDoubtSession(qid, payload_or.value());
        if (!session_or.ok()) {
          note(session_or.status());
          continue;
        }
        if (metrics_ != nullptr) {
          metrics_->Add(net::Metric::kTxnRecoveredSessions);
        }
        Status applied = ApplyPreparedSession(session_or.value());
        if (!applied.ok()) {
          note(applied);
        } else {
          (void)log_.Append({TxnLog::RecordType::kApplied, qid, ""});
        }
        isolation_.EndSession(qid);
      }
      continue;
    }
    if (st.prepared) {
      // PREPARED with no decision: in-doubt. Rebuild the session (so a
      // re-delivered Commit can still apply) and remember who to ask.
      auto payload_or = ParsePreparedPayload(st.payload);
      if (!payload_or.ok()) {
        note(payload_or.status());
        continue;
      }
      auto session_or = RestoreInDoubtSession(qid, payload_or.value());
      if (!session_or.ok()) {
        note(session_or.status());
        continue;
      }
      {
        std::lock_guard<std::mutex> lock(txn_mu_);
        participant_in_doubt_[qid] = payload_or.value().coordinator;
      }
      if (metrics_ != nullptr) {
        metrics_->Add(net::Metric::kTxnInDoubt, +1);
        metrics_->Add(net::Metric::kTxnRecoveredSessions);
      }
    }
  }

  // 4. Coordinator role: a decision without COORD-END must be re-driven.
  // Acks are not logged, so ALL participants are re-sent Commit; their
  // idempotent handlers make over-delivery harmless.
  {
    std::lock_guard<std::mutex> lock(txn_mu_);
    for (const auto& [qid, cs] : coord) {
      if (cs.ended) continue;
      outcomes_[qid] = TxnOutcome::kCommitted;
      CoordTxn& txn = coord_[qid];
      txn.pending.insert(cs.participants.begin(), cs.participants.end());
    }
  }

  // 5. With a transport, resolve in-doubt state actively right away
  // (released lock: resolution sends messages, possibly to ourselves).
  wsat_lock.unlock();
  if (transport != nullptr) {
    note(ResolveParticipantInDoubt(transport));
    bool have_coord_work;
    {
      std::lock_guard<std::mutex> lock(txn_mu_);
      have_coord_work = !coord_.empty();
    }
    if (have_coord_work) note(RetryInDoubt(transport));
    // 6. Anti-entropy: while this peer was down it may have missed whole
    // committed transactions (no PREPARED record to recover from). Compare
    // fragment data versions against the catalog and catch up from a peer
    // copy before serving reads (which the StaleReplica fence would reject
    // anyway until the gap closes).
    note(RepairReplica(transport));
  }
  return first_error;
}

}  // namespace xrpc::server
