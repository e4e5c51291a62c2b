#include "server/wsat.h"

#include <algorithm>

#include "base/string_util.h"
#include "net/uri.h"
#include "xml/node.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xrpc::server {

namespace {

using xml::Node;
using xml::NodeKind;
using xml::NodePtr;
using xml::QName;

const char* OpName(WsatOp op) {
  switch (op) {
    case WsatOp::kPrepare:
      return "prepare";
    case WsatOp::kCommit:
      return "commit";
    case WsatOp::kRollback:
      return "rollback";
    case WsatOp::kInquire:
      return "inquire";
    case WsatOp::kRepair:
      return "repair";
  }
  return "prepare";
}

/// Parses an unsigned 64-bit decimal (data versions and digests exceed the
/// int64 range ParseInt64 covers).
StatusOr<uint64_t> ParseU64(std::string_view s) {
  if (s.empty()) return Status::ParseError("empty unsigned integer");
  uint64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') {
      return Status::ParseError("not an unsigned integer: " + std::string(s));
    }
    uint64_t next = v * 10 + static_cast<uint64_t>(c - '0');
    if (next / 10 != v) {
      return Status::ParseError("unsigned integer overflow: " +
                                std::string(s));
    }
    v = next;
  }
  return v;
}

/// Renders a WrittenFragment as a <wsat:frag/> child (Prepare vote replies
/// and the PREPARED payload share the shape).
NodePtr FragmentElement(const WrittenFragment& f) {
  NodePtr e = Node::NewElement(QName(kWsatNs, "frag", "wsat"));
  e->SetAttribute(Node::NewAttribute(QName("doc"), f.doc));
  e->SetAttribute(Node::NewAttribute(QName("collection"), f.collection));
  e->SetAttribute(
      Node::NewAttribute(QName("shard"), std::to_string(f.shard_index)));
  e->SetAttribute(
      Node::NewAttribute(QName("version"), std::to_string(f.version)));
  return e;
}

StatusOr<WrittenFragment> ParseFragmentElement(const Node& elem) {
  WrittenFragment f;
  if (const Node* a = elem.FindAttribute(QName("doc"))) f.doc = a->value();
  if (const Node* a = elem.FindAttribute(QName("collection"))) {
    f.collection = a->value();
  }
  if (const Node* a = elem.FindAttribute(QName("shard"))) {
    XRPC_ASSIGN_OR_RETURN(int64_t v, ParseInt64(a->value()));
    f.shard_index = static_cast<int>(v);
  }
  if (const Node* a = elem.FindAttribute(QName("version"))) {
    XRPC_ASSIGN_OR_RETURN(f.version, ParseU64(a->value()));
  }
  return f;
}

std::string Serialize(const WsatMessage& m, bool response) {
  NodePtr elem = Node::NewElement(
      QName(kWsatNs, response ? "response" : "request", "wsat"));
  elem->SetAttribute(Node::NewAttribute(QName("op"), OpName(m.op)));
  elem->SetAttribute(Node::NewAttribute(QName("queryID"), m.query_id));
  if (response) {
    elem->SetAttribute(
        Node::NewAttribute(QName("vote"), m.ok ? "ok" : "abort"));
    if (!m.reason.empty()) {
      elem->SetAttribute(Node::NewAttribute(QName("reason"), m.reason));
    }
    if (!m.outcome.empty()) {
      elem->SetAttribute(Node::NewAttribute(QName("outcome"), m.outcome));
    }
    for (const WrittenFragment& f : m.fragments) {
      elem->AppendChild(FragmentElement(f));
    }
  }
  if (m.op == WsatOp::kRepair) {
    elem->SetAttribute(Node::NewAttribute(QName("collection"), m.collection));
    elem->SetAttribute(
        Node::NewAttribute(QName("shard"), std::to_string(m.shard_index)));
    elem->SetAttribute(Node::NewAttribute(QName("doc"), m.doc));
    if (!response) {
      elem->SetAttribute(Node::NewAttribute(
          QName("fromVersion"), std::to_string(m.from_version)));
      if (m.want_full) {
        elem->SetAttribute(Node::NewAttribute(QName("wantFull"), "1"));
      }
    } else {
      elem->SetAttribute(
          Node::NewAttribute(QName("version"), std::to_string(m.version)));
      elem->SetAttribute(
          Node::NewAttribute(QName("digest"), std::to_string(m.digest)));
      for (const WsatMessage::RepairDelta& d : m.deltas) {
        NodePtr de = Node::NewElement(QName(kWsatNs, "delta", "wsat"));
        de->SetAttribute(
            Node::NewAttribute(QName("version"), std::to_string(d.version)));
        de->SetAttribute(Node::NewAttribute(QName("queryID"), d.query_id));
        de->AppendChild(Node::NewText(d.pul));
        elem->AppendChild(std::move(de));
      }
      if (!m.full_body.empty()) {
        NodePtr body = Node::NewElement(QName(kWsatNs, "body", "wsat"));
        body->AppendChild(Node::NewText(m.full_body));
        elem->AppendChild(std::move(body));
      }
    }
  }
  xml::SerializeOptions opts;
  opts.xml_declaration = true;
  return xml::SerializeNode(*elem, opts);
}

}  // namespace

std::string SerializeWsatRequest(const WsatMessage& message) {
  return Serialize(message, /*response=*/false);
}

std::string SerializeWsatResponse(const WsatMessage& message) {
  return Serialize(message, /*response=*/true);
}

StatusOr<WsatMessage> ParseWsatMessage(std::string_view text) {
  XRPC_ASSIGN_OR_RETURN(NodePtr doc, xml::ParseXml(text));
  const Node* elem = nullptr;
  for (const NodePtr& c : doc->children()) {
    if (c->kind() == NodeKind::kElement) elem = c.get();
  }
  if (elem == nullptr || elem->name().ns_uri != kWsatNs) {
    return Status::InvalidArgument("not a WS-AT message");
  }
  WsatMessage out;
  if (const Node* a = elem->FindAttribute(QName("op"))) {
    if (a->value() == "prepare") {
      out.op = WsatOp::kPrepare;
    } else if (a->value() == "commit") {
      out.op = WsatOp::kCommit;
    } else if (a->value() == "rollback") {
      out.op = WsatOp::kRollback;
    } else if (a->value() == "inquire") {
      out.op = WsatOp::kInquire;
    } else if (a->value() == "repair") {
      out.op = WsatOp::kRepair;
    } else {
      return Status::InvalidArgument("unknown WS-AT op: " + a->value());
    }
  }
  if (const Node* a = elem->FindAttribute(QName("queryID"))) {
    out.query_id = a->value();
  }
  if (const Node* a = elem->FindAttribute(QName("vote"))) {
    out.ok = a->value() == "ok";
  }
  if (const Node* a = elem->FindAttribute(QName("reason"))) {
    out.reason = a->value();
  }
  if (const Node* a = elem->FindAttribute(QName("outcome"))) {
    out.outcome = a->value();
  }
  if (const Node* a = elem->FindAttribute(QName("collection"))) {
    out.collection = a->value();
  }
  if (const Node* a = elem->FindAttribute(QName("shard"))) {
    XRPC_ASSIGN_OR_RETURN(int64_t v, ParseInt64(a->value()));
    out.shard_index = static_cast<int>(v);
  }
  if (const Node* a = elem->FindAttribute(QName("doc"))) {
    out.doc = a->value();
  }
  if (const Node* a = elem->FindAttribute(QName("fromVersion"))) {
    XRPC_ASSIGN_OR_RETURN(out.from_version, ParseU64(a->value()));
  }
  if (const Node* a = elem->FindAttribute(QName("wantFull"))) {
    out.want_full = a->value() == "1";
  }
  if (const Node* a = elem->FindAttribute(QName("version"))) {
    XRPC_ASSIGN_OR_RETURN(out.version, ParseU64(a->value()));
  }
  if (const Node* a = elem->FindAttribute(QName("digest"))) {
    XRPC_ASSIGN_OR_RETURN(out.digest, ParseU64(a->value()));
  }
  for (const NodePtr& child : elem->children()) {
    if (child->kind() != NodeKind::kElement) continue;
    if (child->name().local == "frag") {
      XRPC_ASSIGN_OR_RETURN(WrittenFragment f, ParseFragmentElement(*child));
      out.fragments.push_back(std::move(f));
    } else if (child->name().local == "delta") {
      WsatMessage::RepairDelta d;
      if (const Node* a = child->FindAttribute(QName("version"))) {
        XRPC_ASSIGN_OR_RETURN(d.version, ParseU64(a->value()));
      }
      if (const Node* a = child->FindAttribute(QName("queryID"))) {
        d.query_id = a->value();
      }
      d.pul = child->StringValue();
      out.deltas.push_back(std::move(d));
    } else if (child->name().local == "body") {
      out.full_body = child->StringValue();
    }
  }
  return out;
}

std::string SerializePreparedPayload(const PreparedPayload& payload) {
  NodePtr elem = Node::NewElement(QName(kWsatNs, "prepared", "wsat"));
  elem->SetAttribute(
      Node::NewAttribute(QName("coordinator"), payload.coordinator));
  for (const auto& [name, version] : payload.docs) {
    NodePtr d = Node::NewElement(QName(kWsatNs, "doc", "wsat"));
    d->SetAttribute(Node::NewAttribute(QName("name"), name));
    d->SetAttribute(
        Node::NewAttribute(QName("version"), std::to_string(version)));
    elem->AppendChild(std::move(d));
  }
  for (const WrittenFragment& f : payload.fragments) {
    elem->AppendChild(FragmentElement(f));
  }
  NodePtr pul = Node::NewElement(QName(kWsatNs, "pul", "wsat"));
  pul->AppendChild(Node::NewText(payload.pul));
  elem->AppendChild(std::move(pul));
  return xml::SerializeNode(*elem);
}

StatusOr<PreparedPayload> ParsePreparedPayload(std::string_view text) {
  XRPC_ASSIGN_OR_RETURN(NodePtr doc, xml::ParseXml(text));
  const Node* elem = nullptr;
  for (const NodePtr& c : doc->children()) {
    if (c->kind() == NodeKind::kElement) elem = c.get();
  }
  if (elem == nullptr || elem->name().ns_uri != kWsatNs ||
      elem->name().local != "prepared") {
    return Status::ParseError("not a PREPARED payload");
  }
  PreparedPayload out;
  if (const Node* a = elem->FindAttribute(QName("coordinator"))) {
    out.coordinator = a->value();
  }
  for (const NodePtr& child : elem->children()) {
    if (child->kind() != NodeKind::kElement) continue;
    if (child->name().local == "doc") {
      std::string name, version;
      if (const Node* a = child->FindAttribute(QName("name"))) {
        name = a->value();
      }
      if (const Node* a = child->FindAttribute(QName("version"))) {
        version = a->value();
      }
      XRPC_ASSIGN_OR_RETURN(int64_t v, ParseInt64(version));
      out.docs.emplace_back(name, static_cast<uint64_t>(v));
    } else if (child->name().local == "frag") {
      XRPC_ASSIGN_OR_RETURN(WrittenFragment f, ParseFragmentElement(*child));
      out.fragments.push_back(std::move(f));
    } else if (child->name().local == "pul") {
      out.pul = child->StringValue();
    }
  }
  return out;
}

StatusOr<WsatMessage> SendWsatMessage(net::Transport* transport,
                                      const std::string& participant,
                                      WsatOp op, const std::string& query_id) {
  WsatMessage req;
  req.op = op;
  req.query_id = query_id;
  return SendWsatEnvelope(transport, participant, req);
}

StatusOr<WsatMessage> SendWsatEnvelope(net::Transport* transport,
                                       const std::string& participant,
                                       const WsatMessage& request) {
  // Route to the peer's WS-AT endpoint path.
  XRPC_ASSIGN_OR_RETURN(net::XrpcUri uri, net::ParseXrpcUri(participant));
  uri.path = kWsatPath;
  XRPC_ASSIGN_OR_RETURN(
      net::PostResult result,
      transport->Post(uri.ToString(), SerializeWsatRequest(request)));
  return ParseWsatMessage(result.body);
}

namespace {

/// Deterministic (jitter-free) backoff before retry number `retry`
/// (1-based), mirroring the RetryingTransport schedule shape.
int64_t BackoffMicros(const net::RetryPolicy& policy, int retry) {
  double backoff = static_cast<double>(policy.initial_backoff_us);
  for (int i = 1; i < retry; ++i) backoff *= policy.backoff_multiplier;
  return std::min(static_cast<int64_t>(backoff), policy.max_backoff_us);
}

}  // namespace

StatusOr<CommitOutcome> RunTwoPhaseCommit(
    net::Transport* transport, const std::vector<std::string>& participants,
    const std::string& query_id, const TwoPhaseCommitOptions& options) {
  CommitOutcome outcome;

  auto abort_all = [&](const std::string& reason) {
    outcome.abort_reason = reason;
    // Phase 2 (abort): roll back everyone. Rollback is idempotent at the
    // participants, so over-delivery (including to the peer that voted
    // abort and already discarded its state) is harmless. Nothing is
    // logged: under presumed abort the absence of a commit decision IS the
    // durable abort record.
    for (const std::string& q : participants) {
      ++outcome.rollbacks_sent;
      (void)SendWsatMessage(transport, q, WsatOp::kRollback, query_id);
    }
    outcome.committed = false;
    return outcome;
  };

  // Phase 1: Prepare on every participant. Yes-votes piggyback the sharded
  // fragments their PUL writes; dedup by collection#shard at max version
  // (every copy of a replicated fragment reports the same target, and the
  // coordinator advances the catalog once).
  for (const std::string& p : participants) {
    ++outcome.prepares_sent;
    auto vote = SendWsatMessage(transport, p, WsatOp::kPrepare, query_id);
    if (!vote.ok() || !vote.value().ok) {
      return abort_all(vote.ok() ? vote.value().reason
                                 : vote.status().ToString());
    }
    for (const WrittenFragment& f : vote.value().fragments) {
      auto same = std::find_if(
          outcome.fragments.begin(), outcome.fragments.end(),
          [&](const WrittenFragment& g) {
            return g.collection == f.collection &&
                   g.shard_index == f.shard_index;
          });
      if (same == outcome.fragments.end()) {
        outcome.fragments.push_back(f);
      } else if (f.version > same->version) {
        same->version = f.version;
      }
    }
  }

  if (options.crash_point == TwoPhaseCommitOptions::CrashPoint::kAfterVotes) {
    // Simulated coordinator crash with the decision still volatile: on
    // recovery nothing is on record, so participants presume abort.
    return Status::NetworkError(
        "coordinator crashed (simulated) after collecting votes");
  }

  // The commit decision becomes durable BEFORE any participant is told to
  // commit; from here on the transaction MUST commit eventually.
  if (options.journal != nullptr) {
    Status logged = options.journal->LogCommitDecision(query_id, participants);
    if (!logged.ok()) {
      return abort_all("coordinator decision log failed: " +
                       logged.ToString());
    }
  }

  if (options.crash_point ==
      TwoPhaseCommitOptions::CrashPoint::kAfterDecisionLog) {
    return Status::NetworkError(
        "coordinator crashed (simulated) after logging the commit decision");
  }

  // Phase 2: Commit, with bounded per-participant retry. A participant
  // that stays unreachable is parked in-doubt; the decision stands.
  bool all_acked = true;
  int max_attempts = std::max(1, options.commit_retry.max_attempts);
  for (const std::string& p : participants) {
    bool acked = false;
    std::string last_error;
    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
      if (attempt > 1) {
        ++outcome.commit_retries;
        if (options.metrics != nullptr) {
          options.metrics->Add(net::Metric::kTxnCommitRetries);
        }
        if (options.sleep) {
          options.sleep(BackoffMicros(options.commit_retry, attempt - 1));
        }
      }
      ++outcome.commits_sent;
      auto done = SendWsatMessage(transport, p, WsatOp::kCommit, query_id);
      if (done.ok() && done.value().ok) {
        acked = true;
        break;
      }
      if (done.ok()) {
        // Application-level refusal (not a lost message): retrying cannot
        // change the answer. Park it — recovery/inquiry owns the repair.
        last_error = done.value().reason;
        break;
      }
      last_error = done.status().ToString();
    }
    if (acked) {
      if (options.journal != nullptr) {
        options.journal->RecordCommitAck(query_id, p);
      }
    } else {
      all_acked = false;
      outcome.in_doubt.push_back(p);
      if (options.journal != nullptr) {
        options.journal->ParkInDoubt(query_id, p);
      }
      if (options.metrics != nullptr) {
        options.metrics->Add(net::Metric::kTxnInDoubt, +1);
      }
      (void)last_error;
    }
  }
  if (all_acked && options.journal != nullptr) {
    (void)options.journal->LogCommitEnd(query_id);
  }
  outcome.committed = true;
  return outcome;
}

}  // namespace xrpc::server
