#include "soap/message.h"

#include <limits>
#include <string_view>

#include "base/string_util.h"
#include "soap/marshal.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xrpc::soap {

namespace {

using xml::Node;
using xml::NodeKind;
using xml::NodePtr;
using xml::QName;

QName EnvName(const char* local) {
  return QName(xml::kSoapEnvelopeNs, local, "env");
}
QName XrpcName(const char* local) { return QName(xml::kXrpcNs, local, "xrpc"); }

// Writes the XML declaration and opens env:Envelope; the caller writes the
// optional env:Header and opens env:Body, then FinishEnvelope closes both.
void StartEnvelope(xml::XmlWriter* w) {
  w->XmlDeclaration();
  w->StartElement(EnvName("Envelope"));
  w->Attribute(
      QName(xml::kXsiNs, "schemaLocation", "xsi"),
      "http://monetdb.cwi.nl/XQuery http://monetdb.cwi.nl/XQuery/XRPC.xsd");
}

std::string FinishEnvelope(xml::XmlWriter* w) {
  w->EndElement();  // env:Body
  w->EndElement();  // env:Envelope
  return w->Finish();
}

void TextElement(xml::XmlWriter* w, const QName& name, std::string_view text) {
  w->StartElement(name);
  w->Text(text);
  w->EndElement();
}

// Locates env:Envelope/env:Header; nullptr when the envelope carries none
// (a malformed envelope also yields nullptr — FindBodyChild reports it).
const Node* FindHeader(const Node& doc) {
  const Node* envelope = nullptr;
  for (const NodePtr& c : doc.children()) {
    if (c->kind() == NodeKind::kElement) envelope = c.get();
  }
  if (envelope == nullptr || envelope->name() != EnvName("Envelope")) {
    return nullptr;
  }
  for (const NodePtr& c : envelope->children()) {
    if (c->kind() == NodeKind::kElement && c->name() == EnvName("Header")) {
      return c.get();
    }
  }
  return nullptr;
}

// Locates env:Envelope/env:Body and returns its single element child,
// mutable: the caller owns the parsed envelope and takes the values out.
StatusOr<Node*> FindBodyChild(const Node& doc) {
  const Node* envelope = nullptr;
  for (const NodePtr& c : doc.children()) {
    if (c->kind() == NodeKind::kElement) envelope = c.get();
  }
  if (envelope == nullptr || envelope->name() != EnvName("Envelope")) {
    return Status::InvalidArgument("SOAP: missing env:Envelope");
  }
  const Node* body = nullptr;
  for (const NodePtr& c : envelope->children()) {
    if (c->kind() == NodeKind::kElement && c->name() == EnvName("Body")) {
      body = c.get();
    }
  }
  if (body == nullptr) return Status::InvalidArgument("SOAP: missing env:Body");
  for (const NodePtr& c : body->children()) {
    if (c->kind() == NodeKind::kElement) return c.get();
  }
  return Status::InvalidArgument("SOAP: empty env:Body");
}

StatusOr<Fault> ParseFaultElement(const Node& fault) {
  Fault out;
  for (const NodePtr& c : fault.children()) {
    if (c->kind() != NodeKind::kElement) continue;
    if (c->name() == EnvName("Code")) {
      for (const NodePtr& v : c->children()) {
        if (v->kind() == NodeKind::kElement && v->name() == EnvName("Value")) {
          out.code = v->StringValue();
        }
      }
    } else if (c->name() == EnvName("Reason")) {
      for (const NodePtr& t : c->children()) {
        if (t->kind() == NodeKind::kElement && t->name() == EnvName("Text")) {
          out.reason = t->StringValue();
        }
      }
    }
  }
  return out;
}

}  // namespace

std::string SerializeRequest(const XrpcRequest& request) {
  xml::XmlWriter w;
  StartEnvelope(&w);
  if (request.deadline_us.has_value() || request.shard.has_value()) {
    w.StartElement(EnvName("Header"));
    if (request.deadline_us.has_value()) {
      TextElement(&w, XrpcName("deadline"),
                  std::to_string(*request.deadline_us));
    }
    if (request.shard.has_value()) {
      const XrpcRequest::ShardScope& scope = *request.shard;
      w.StartElement(XrpcName("shard"));
      w.Attribute(QName("collection"), scope.collection);
      w.Attribute(QName("index"), std::to_string(scope.shard_index));
      w.Attribute(QName("catalog-version"),
                  std::to_string(scope.catalog_version));
      if (scope.data_version > 0) {
        w.Attribute(QName("data-version"), std::to_string(scope.data_version));
      }
      w.EndElement();
    }
    w.EndElement();
  }
  w.StartElement(EnvName("Body"));
  w.StartElement(XrpcName("request"));
  w.Attribute(QName("module"), request.module_ns);
  w.Attribute(QName("method"), request.method);
  w.Attribute(QName("arity"), std::to_string(request.arity));
  if (!request.location.empty()) {
    w.Attribute(QName("location"), request.location);
  }
  if (request.updating) w.Attribute(QName("updCall"), "true");
  w.Attribute(QName("iter-count"), std::to_string(request.calls.size()));
  if (request.query_id.has_value()) {
    const QueryId& q = *request.query_id;
    w.StartElement(XrpcName("queryID"));
    w.Attribute(QName("host"), q.host);
    w.Attribute(QName("timestamp"), std::to_string(q.timestamp));
    w.Attribute(QName("timeout"), std::to_string(q.timeout_sec));
    w.Text(q.id);
    w.EndElement();
  }
  const QName call_name = XrpcName("call");
  for (const std::vector<xdm::Sequence>& call : request.calls) {
    w.StartElement(call_name);
    for (const xdm::Sequence& param : call) WriteSequence(param, &w);
    w.EndElement();
  }
  w.EndElement();
  return FinishEnvelope(&w);
}

StatusOr<XrpcRequest> ParseRequest(std::string_view text) {
  xml::ParseOptions opts;
  opts.strip_ignorable_whitespace = true;
  XRPC_ASSIGN_OR_RETURN(NodePtr doc, xml::ParseXml(text, opts));
  XRPC_ASSIGN_OR_RETURN(Node* req, FindBodyChild(*doc));
  if (req->name() != XrpcName("request")) {
    return Status::InvalidArgument("SOAP: expected xrpc:request, got " +
                                   req->name().Clark());
  }
  XrpcRequest out;
  // Header extensions: xrpc:deadline carries the remaining time budget;
  // unrecognized header children are ignored (mustUnderstand-free
  // extensibility, so newer clients interoperate with this peer too).
  if (const Node* header = FindHeader(*doc)) {
    for (const NodePtr& c : header->children()) {
      if (c->kind() != NodeKind::kElement) continue;
      if (c->name() == XrpcName("deadline")) {
        auto budget = ParseInt64(c->StringValue());
        if (!budget.ok() || budget.value() < 0) {
          return Status::InvalidArgument(
              "SOAP: malformed xrpc:deadline header: \"" + c->StringValue() +
              "\" (expected non-negative micros)");
        }
        out.deadline_us = budget.value();
        continue;
      }
      if (c->name() == XrpcName("shard")) {
        XrpcRequest::ShardScope scope;
        const Node* col = c->FindAttribute(QName("collection"));
        const Node* idx = c->FindAttribute(QName("index"));
        const Node* ver = c->FindAttribute(QName("catalog-version"));
        if (col == nullptr || idx == nullptr || ver == nullptr) {
          return Status::InvalidArgument(
              "SOAP: xrpc:shard header lacks collection/index/"
              "catalog-version");
        }
        scope.collection = col->value();
        auto index = ParseInt64(idx->value());
        auto version = ParseInt64(ver->value());
        if (scope.collection.empty() || !index.ok() || index.value() < 0 ||
            !version.ok() || version.value() < 0) {
          return Status::InvalidArgument(
              "SOAP: malformed xrpc:shard header (collection=\"" +
              scope.collection + "\" index=\"" + idx->value() +
              "\" catalog-version=\"" + ver->value() + "\")");
        }
        scope.shard_index = static_cast<int>(index.value());
        scope.catalog_version = version.value();
        // data-version is optional: requests from pre-versioning senders
        // carry no attribute and parse as 0 (fence disabled).
        if (const Node* dv = c->FindAttribute(QName("data-version"))) {
          auto data_version = ParseInt64(dv->value());
          if (!data_version.ok() || data_version.value() < 0) {
            return Status::InvalidArgument(
                "SOAP: malformed xrpc:shard data-version: \"" + dv->value() +
                "\"");
          }
          scope.data_version = static_cast<uint64_t>(data_version.value());
        }
        out.shard = std::move(scope);
        continue;
      }
    }
  }
  if (const Node* a = req->FindAttribute(QName("module"))) {
    out.module_ns = a->value();
  }
  if (const Node* a = req->FindAttribute(QName("method"))) {
    out.method = a->value();
  }
  if (const Node* a = req->FindAttribute(QName("location"))) {
    out.location = a->value();
  }
  if (const Node* a = req->FindAttribute(QName("arity"))) {
    XRPC_ASSIGN_OR_RETURN(int64_t arity, ParseInt64(a->value()));
    out.arity = static_cast<size_t>(arity);
  }
  if (const Node* a = req->FindAttribute(QName("updCall"))) {
    out.updating = a->value() == "true" || a->value() == "1";
  }
  for (const NodePtr& child : req->children()) {
    if (child->kind() != NodeKind::kElement) continue;
    if (child->name() == XrpcName("queryID")) {
      QueryId q;
      q.id = child->StringValue();
      if (const Node* a = child->FindAttribute(QName("host"))) {
        q.host = a->value();
      }
      if (const Node* a = child->FindAttribute(QName("timestamp"))) {
        auto ts = ParseInt64(a->value());
        if (ts.ok()) q.timestamp = ts.value();
      }
      if (const Node* a = child->FindAttribute(QName("timeout"))) {
        auto t = ParseQueryTimeout(a->value());
        if (!t.ok()) {
          return Status::InvalidArgument(
              "SOAP: malformed xrpc:queryID timeout: \"" + a->value() +
              "\" (expected non-negative seconds)");
        }
        q.timeout_sec = t.value();
      }
      out.query_id = std::move(q);
      continue;
    }
    if (child->name() == XrpcName("call")) {
      std::vector<xdm::Sequence> params;
      for (const NodePtr& seq : child->children()) {
        if (seq->kind() != NodeKind::kElement) continue;
        XRPC_ASSIGN_OR_RETURN(xdm::Sequence param, TakeSequence(seq.get()));
        params.push_back(std::move(param));
      }
      if (params.size() != out.arity) {
        return Status::InvalidArgument(
            "SOAP: call has " + std::to_string(params.size()) +
            " parameters, expected arity " + std::to_string(out.arity));
      }
      out.calls.push_back(std::move(params));
    }
  }
  if (out.calls.empty()) {
    return Status::InvalidArgument("SOAP: request has no calls");
  }
  return out;
}

std::string SerializeResponse(const XrpcResponse& response) {
  xml::XmlWriter w;
  StartEnvelope(&w);
  w.StartElement(EnvName("Body"));
  w.StartElement(XrpcName("response"));
  w.Attribute(QName("module"), response.module_ns);
  w.Attribute(QName("method"), response.method);
  for (const xdm::Sequence& result : response.results) {
    WriteSequence(result, &w);
  }
  if (!response.participating_peers.empty()) {
    w.StartElement(XrpcName("participatingPeers"));
    for (const std::string& uri : response.participating_peers) {
      w.StartElement(XrpcName("peer"));
      w.Attribute(QName("uri"), uri);
      w.EndElement();
    }
    w.EndElement();
  }
  w.EndElement();
  return FinishEnvelope(&w);
}

std::string SerializeFault(const Fault& fault) {
  xml::XmlWriter w;
  StartEnvelope(&w);
  w.StartElement(EnvName("Body"));
  w.StartElement(EnvName("Fault"));
  w.StartElement(EnvName("Code"));
  TextElement(&w, EnvName("Value"), fault.code);
  w.EndElement();
  w.StartElement(EnvName("Reason"));
  w.StartElement(EnvName("Text"));
  w.Attribute(QName("http://www.w3.org/XML/1998/namespace", "lang", "xml"),
              "en");
  w.Text(fault.reason);
  w.EndElement();
  w.EndElement();
  w.EndElement();
  return FinishEnvelope(&w);
}

StatusOr<int64_t> ParseQueryTimeout(std::string_view text) {
  XRPC_ASSIGN_OR_RETURN(int64_t seconds, ParseInt64(text));
  if (seconds < 0 ||
      seconds > std::numeric_limits<int64_t>::max() / 1'000'000) {
    return Status::InvalidArgument("queryID timeout out of range: " +
                                   std::string(text));
  }
  return seconds;
}

Fault FaultFromStatus(const Status& status) {
  Fault f;
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kTypeError:
    case StatusCode::kNotFound:
      f.code = "env:Sender";
      break;
    default:
      f.code = "env:Receiver";
      break;
  }
  f.reason = status.ToString();
  return f;
}

Status StatusFromFault(const Fault& fault) {
  // Deadline/cancellation faults keep their typed status across hops: the
  // reason carries Status::ToString() ("<Code>: <msg>"), and the caller
  // must be able to tell "my budget ran out downstream" (not retryable,
  // feeds deadline metrics) from a generic application fault.
  constexpr std::string_view kDeadlinePrefix = "DeadlineExceeded: ";
  constexpr std::string_view kCancelledPrefix = "Cancelled: ";
  constexpr std::string_view kStaleCatalogPrefix = "StaleCatalog: ";
  if (fault.reason.rfind(kDeadlinePrefix, 0) == 0) {
    return Status::DeadlineExceeded(fault.reason.substr(kDeadlinePrefix.size()));
  }
  if (fault.reason.rfind(kCancelledPrefix, 0) == 0) {
    return Status::Cancelled(fault.reason.substr(kCancelledPrefix.size()));
  }
  // StaleCatalog is the epoch-fencing reject: the peer refused BEFORE
  // executing anything, so the caller may refetch the shard map and
  // re-route the very same call (even an updating one) without violating
  // at-most-once.
  if (fault.reason.rfind(kStaleCatalogPrefix, 0) == 0) {
    return Status::StaleCatalog(fault.reason.substr(kStaleCatalogPrefix.size()));
  }
  // StaleReplica is the data-version fence: this COPY of the fragment is
  // behind, so the caller may retry the identical read at another replica
  // (unlike StaleCatalog, where every copy shares the stale routing).
  constexpr std::string_view kStaleReplicaPrefix = "StaleReplica: ";
  if (fault.reason.rfind(kStaleReplicaPrefix, 0) == 0) {
    return Status::StaleReplica(fault.reason.substr(kStaleReplicaPrefix.size()));
  }
  return Status::SoapFault(fault.code + ": " + fault.reason);
}

StatusOr<XrpcResponse> ParseResponse(std::string_view text) {
  xml::ParseOptions opts;
  opts.strip_ignorable_whitespace = true;
  XRPC_ASSIGN_OR_RETURN(NodePtr doc, xml::ParseXml(text, opts));
  XRPC_ASSIGN_OR_RETURN(Node* child, FindBodyChild(*doc));
  if (child->name() == EnvName("Fault")) {
    XRPC_ASSIGN_OR_RETURN(Fault fault, ParseFaultElement(*child));
    return StatusFromFault(fault);
  }
  if (child->name() != XrpcName("response")) {
    return Status::InvalidArgument("SOAP: expected xrpc:response, got " +
                                   child->name().Clark());
  }
  XrpcResponse out;
  if (const Node* a = child->FindAttribute(QName("module"))) {
    out.module_ns = a->value();
  }
  if (const Node* a = child->FindAttribute(QName("method"))) {
    out.method = a->value();
  }
  for (const NodePtr& c : child->children()) {
    if (c->kind() != NodeKind::kElement) continue;
    if (c->name() == XrpcName("sequence")) {
      XRPC_ASSIGN_OR_RETURN(xdm::Sequence result, TakeSequence(c.get()));
      out.results.push_back(std::move(result));
    } else if (c->name() == XrpcName("participatingPeers")) {
      for (const NodePtr& p : c->children()) {
        if (p->kind() != NodeKind::kElement) continue;
        if (const Node* a = p->FindAttribute(QName("uri"))) {
          out.participating_peers.push_back(a->value());
        }
      }
    }
  }
  return out;
}

}  // namespace xrpc::soap
