#include "server/repair.h"

#include <map>
#include <utility>

#include "core/catalog.h"
#include "server/xrpc_service.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xquery/update.h"

namespace xrpc::server {

std::optional<std::vector<FragmentDelta>> CollectCommittedDeltas(
    const std::vector<TxnLog::Record>& records, const std::string& doc,
    uint64_t from_version, uint64_t to_version) {
  // Fold the record stream into per-transaction decisions first; a PREPARED
  // payload only contributes once its COMMITTED record is on the log.
  struct TxnFold {
    std::string payload;
    bool committed = false;
    bool aborted = false;
  };
  std::map<std::string, TxnFold> txns;
  for (const TxnLog::Record& r : records) {
    switch (r.type) {
      case TxnLog::RecordType::kPrepared:
        txns[r.query_id].payload = r.payload;
        break;
      case TxnLog::RecordType::kCommitted:
        txns[r.query_id].committed = true;
        break;
      case TxnLog::RecordType::kAborted:
        txns[r.query_id].aborted = true;
        break;
      default:
        break;
    }
  }
  std::map<uint64_t, FragmentDelta> by_version;
  for (const auto& [qid, txn] : txns) {
    if (!txn.committed || txn.aborted || txn.payload.empty()) continue;
    auto payload = ParsePreparedPayload(txn.payload);
    if (!payload.ok()) continue;
    for (const WrittenFragment& f : payload.value().fragments) {
      if (f.doc != doc) continue;
      if (f.version <= from_version || f.version > to_version) continue;
      FragmentDelta delta;
      delta.version = f.version;
      delta.query_id = qid;
      delta.pul = payload.value().pul;
      by_version.emplace(f.version, std::move(delta));
    }
  }
  // The requester replays strictly in order; any hole means a transaction
  // this WAL never saw (pre-versioning history, truncation, or a commit
  // that happened at another copy) — full transfer is then the only safe
  // catch-up.
  std::vector<FragmentDelta> out;
  out.reserve(static_cast<size_t>(to_version - from_version));
  for (uint64_t v = from_version + 1; v <= to_version; ++v) {
    auto it = by_version.find(v);
    if (it == by_version.end()) return std::nullopt;
    out.push_back(std::move(it->second));
  }
  return out;
}

uint64_t FragmentDigest(const xml::Node& tree) {
  return core::ShardHash(xml::SerializeNode(tree));
}

namespace {

/// PutSink that swallows fn:put side effects during delta replay: repair
/// converges ONE fragment; a replayed PUL's writes to other documents are
/// someone else's fragment (repaired by their own iteration) or a foreign
/// doc this peer never stored.
class DiscardPutSink : public xquery::PutSink {
 public:
  Status Put(const std::string& uri, xml::NodePtr doc) override {
    (void)uri;
    (void)doc;
    return Status::OK();
  }
};

}  // namespace

// -- XrpcService donor side -------------------------------------------------

WsatMessage XrpcService::BuildRepairReply(const WsatMessage& request) {
  WsatMessage reply;
  reply.op = WsatOp::kRepair;
  reply.query_id = request.query_id;
  reply.collection = request.collection;
  reply.shard_index = request.shard_index;
  reply.doc = request.doc;
  auto doc_or = database_->GetDocument(request.doc);
  if (!doc_or.ok()) {
    reply.ok = false;
    reply.reason = doc_or.status().ToString();
    return reply;
  }
  reply.ok = true;
  reply.version = database_->AppliedDataVersion(request.doc);
  reply.digest = FragmentDigest(*doc_or.value());
  if (reply.version <= request.from_version) {
    // The requester is at or past this copy; nothing to send (it will try
    // a donor that actually has the missing history).
    return reply;
  }
  if (!request.want_full) {
    auto records = log_.Replay();
    if (records.ok()) {
      auto deltas = CollectCommittedDeltas(records.value(), request.doc,
                                           request.from_version,
                                           reply.version);
      if (deltas.has_value()) {
        reply.deltas.reserve(deltas->size());
        for (FragmentDelta& fd : *deltas) {
          reply.deltas.push_back(
              {fd.version, std::move(fd.query_id), std::move(fd.pul)});
        }
        return reply;
      }
    }
  }
  reply.full_body = xml::SerializeNode(*doc_or.value());
  return reply;
}

// -- XrpcService requester side ---------------------------------------------

Status XrpcService::ApplyRepairDeltas(const WsatMessage& reply) {
  std::lock_guard<std::mutex> wsat_lock(wsat_mu_);
  const std::string& doc = reply.doc;
  uint64_t applied = database_->AppliedDataVersion(doc);
  for (const WsatMessage::RepairDelta& d : reply.deltas) {
    if (d.version <= applied) continue;  // raced with 2PC delivery
    if (d.version != applied + 1) {
      return Status::TransactionError(
          "repair delta chain has a hole at version " +
          std::to_string(applied + 1) + " of fragment " + doc);
    }
    XRPC_ASSIGN_OR_RETURN(xml::NodePtr live, database_->GetDocument(doc));
    auto resolver = [&](const std::string& name) -> StatusOr<xml::NodePtr> {
      if (name == doc) return live;
      // Other documents the PUL touched: resolve against throwaway clones
      // so their side effects are discarded (each fragment converges
      // through its own repair; an unknown doc fails the delta and the
      // caller falls back to full transfer).
      XRPC_ASSIGN_OR_RETURN(xml::NodePtr other, database_->GetDocument(name));
      return other->Clone();
    };
    XRPC_ASSIGN_OR_RETURN(
        xquery::PendingUpdateList pul,
        xquery::PendingUpdateList::Deserialize(d.pul, resolver));
    DiscardPutSink sink;
    XRPC_RETURN_IF_ERROR(xquery::ApplyUpdates(&pul, &sink));
    database_->PutDocument(doc, live);  // reinstall: bumps the local version
    database_->SetAppliedDataVersion(doc, d.version);
    // The donor's WAL proves this transaction committed: record it as
    // committed+applied so a late Commit redelivery gets an idempotent yes,
    // an inquiry answers "committed", and Restart() does not re-apply.
    (void)log_.Append({TxnLog::RecordType::kCommitted, d.query_id, ""});
    (void)log_.Append({TxnLog::RecordType::kApplied, d.query_id, ""});
    RememberOutcome(d.query_id, TxnOutcome::kCommitted);
    isolation_.EndSession(d.query_id);
    applied = d.version;
    if (metrics_ != nullptr) metrics_->Add(net::Metric::kRepairPulsReplayed);
  }
  // Convergence proof: after replaying to the donor's version the trees
  // must be byte-identical. A mismatch means the replay diverged (e.g. a
  // PUL resolved differently against our state) — surface it so the caller
  // re-fetches the whole fragment instead of serving silent divergence.
  if (applied == reply.version) {
    XRPC_ASSIGN_OR_RETURN(xml::NodePtr live, database_->GetDocument(doc));
    if (FragmentDigest(*live) != reply.digest) {
      return Status::TransactionError(
          "digest mismatch after delta replay of fragment " + doc);
    }
  }
  return Status::OK();
}

Status XrpcService::ApplyRepairFullBody(const WsatMessage& reply) {
  std::lock_guard<std::mutex> wsat_lock(wsat_mu_);
  if (reply.version <= database_->AppliedDataVersion(reply.doc)) {
    return Status::OK();  // raced with 2PC delivery; already caught up
  }
  XRPC_ASSIGN_OR_RETURN(xml::NodePtr tree, xml::ParseXml(reply.full_body));
  database_->PutDocument(reply.doc, std::move(tree));
  database_->SetAppliedDataVersion(reply.doc, reply.version);
  if (metrics_ != nullptr) metrics_->Add(net::Metric::kRepairFullTransfers);
  return Status::OK();
}

Status XrpcService::ResyncFragmentFrom(net::Transport* transport,
                                       const std::string& donor,
                                       const std::string& collection,
                                       const core::ShardInfo& shard,
                                       uint64_t authoritative) {
  WsatMessage req;
  req.op = WsatOp::kRepair;
  req.collection = collection;
  req.shard_index = shard.index;
  req.doc = shard.doc_name;
  req.from_version = database_->AppliedDataVersion(shard.doc_name);
  XRPC_ASSIGN_OR_RETURN(WsatMessage reply,
                        SendWsatEnvelope(transport, donor, req));
  if (!reply.ok) {
    return Status::TransactionError("repair donor " + donor +
                                    " refused: " + reply.reason);
  }
  if (reply.version < authoritative) {
    // This copy lags the catalog too; a donor that cannot bring us fully
    // up to date would leave the fence closed — try the next one.
    return Status::TransactionError(
        "repair donor " + donor + " itself lags at data version " +
        std::to_string(reply.version) + " < " +
        std::to_string(authoritative));
  }
  Status status = reply.full_body.empty() ? ApplyRepairDeltas(reply)
                                          : ApplyRepairFullBody(reply);
  if (!status.ok() && reply.full_body.empty()) {
    // Delta replay failed (chain hole against our state, an unresolvable
    // document, or a digest mismatch): the full fragment is always safe.
    req.want_full = true;
    req.from_version = database_->AppliedDataVersion(shard.doc_name);
    XRPC_ASSIGN_OR_RETURN(reply, SendWsatEnvelope(transport, donor, req));
    if (!reply.ok) {
      return Status::TransactionError("repair donor " + donor +
                                      " refused: " + reply.reason);
    }
    if (reply.full_body.empty()) {
      return Status::TransactionError("repair donor " + donor +
                                      " sent no fragment body");
    }
    status = ApplyRepairFullBody(reply);
  }
  return status;
}

Status XrpcService::RepairReplica(net::Transport* transport) {
  if (transport == nullptr) {
    return Status::InvalidArgument("RepairReplica requires a transport");
  }
  // In-doubt transactions resolve through 2PC inquiry FIRST: a parked
  // prepared PUL must commit exactly once, through its session — never be
  // applied a second time by version catch-up.
  Status first_error = ResolveParticipantInDoubt(transport);
  auto note = [&first_error](const Status& s) {
    if (first_error.ok() && !s.ok()) first_error = s;
  };
  if (options_.catalog == nullptr) return first_error;
  for (const std::string& name : options_.catalog->CollectionNames()) {
    core::ShardedCollection collection;
    if (!options_.catalog->Snapshot(name, &collection, nullptr)) continue;
    for (const core::ShardInfo& shard : collection.shards) {
      bool holds = shard.peer_uri == options_.self_uri;
      for (const std::string& replica : shard.replicas) {
        holds = holds || replica == options_.self_uri;
      }
      if (!holds) continue;
      if (metrics_ != nullptr) metrics_->Add(net::Metric::kReplicaLagChecks);
      const uint64_t authoritative =
          options_.catalog->FragmentDataVersion(name, shard.index);
      const uint64_t applied =
          database_->AppliedDataVersion(shard.doc_name);
      if (applied >= authoritative) continue;
      if (metrics_ != nullptr) {
        metrics_->Add(net::Metric::kReplicaLaggingFound);
        metrics_->Add(net::Metric::kReplicaMaxGap,
                      static_cast<int64_t>(authoritative - applied));
      }
      std::vector<std::string> donors;
      if (shard.peer_uri != options_.self_uri) {
        donors.push_back(shard.peer_uri);
      }
      for (const std::string& replica : shard.replicas) {
        if (replica != options_.self_uri) donors.push_back(replica);
      }
      Status last = Status::NetworkError("no donor reachable for fragment " +
                                         shard.doc_name);
      bool resynced = false;
      for (const std::string& donor : donors) {
        Status s =
            ResyncFragmentFrom(transport, donor, name, shard, authoritative);
        if (s.ok()) {
          resynced = true;
          break;
        }
        last = s;
      }
      if (resynced) {
        if (metrics_ != nullptr) metrics_->Add(net::Metric::kRepairResyncs);
      } else {
        if (metrics_ != nullptr) metrics_->Add(net::Metric::kRepairFailures);
        note(last);
      }
    }
  }
  return first_error;
}

}  // namespace xrpc::server
