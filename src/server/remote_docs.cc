#include "server/remote_docs.h"

#include "base/string_util.h"
#include "net/uri.h"

namespace xrpc::server {

const char* SystemModuleSource() {
  return R"(
module namespace sys = "http://monetdb.cwi.nl/XQuery/system";
declare function sys:doc($uri as xs:string) as document-node()
{ exactly-one(doc($uri)) };
)";
}

StatusOr<xml::NodePtr> FederatedDocumentProvider::GetDocument(
    const std::string& uri) {
  if (!StartsWith(uri, "xrpc://")) {
    if (base_ == nullptr) return Status::NotFound("document not found: " + uri);
    return base_->GetDocument(uri);
  }
  auto cached = remote_cache_.find(uri);
  if (cached != remote_cache_.end()) return cached->second;
  if (client_ == nullptr) {
    return Status::NetworkError("no outgoing transport for remote document " +
                                uri);
  }
  XRPC_ASSIGN_OR_RETURN(net::XrpcUri parsed, net::ParseXrpcUri(uri));
  if (parsed.path.empty()) {
    return Status::InvalidArgument("remote document URI lacks a path: " + uri);
  }
  std::string doc_name = parsed.path;
  net::XrpcUri peer = parsed;
  peer.path.clear();
  xquery::RpcCall call;
  call.dest_uri = peer.ToString();
  call.module_ns = kSystemModuleNs;
  call.function = xml::QName(kSystemModuleNs, "doc", "sys");
  call.args = {
      xdm::Sequence{xdm::Item(xdm::AtomicValue::String(std::move(doc_name)))}};
  XRPC_ASSIGN_OR_RETURN(xdm::Sequence fetched, client_->Execute(call));
  if (fetched.size() != 1 || !fetched[0].IsNode()) {
    return Status::SoapFault("remote fn:doc did not return one document");
  }
  xml::NodePtr doc = fetched[0].node()->shared_from_this();
  remote_cache_[uri] = doc;
  return doc;
}

StatusOr<xml::NodePtr> ShardDocumentProvider::GetDocument(
    const std::string& uri) {
  auto cached = cache_.find(uri);
  if (cached != cache_.end()) return cached->second;
  if (core::Catalog::IsShardUri(uri)) {
    if (catalog_ == nullptr) {
      return Status::NotFound("no peer catalog to resolve " + uri);
    }
    // A copy: Assemble fetches remote fragments, and a re-registration
    // landing meanwhile must not free the shard list under the loop.
    core::ShardedCollection collection;
    if (!catalog_->Snapshot(core::Catalog::CollectionOf(uri), &collection,
                            nullptr)) {
      return Status::NotFound("unknown sharded collection: " + uri);
    }
    XRPC_ASSIGN_OR_RETURN(xml::NodePtr doc,
                          Assemble(collection, /*local_only=*/false));
    cache_[uri] = doc;
    return doc;
  }
  if (base_ == nullptr) return Status::NotFound("document not found: " + uri);
  auto pinned = pinned_.find(uri);
  if (pinned != pinned_.end()) {
    // The request's xrpc:shard scope names the exact fragment this logical
    // name must resolve to here (replica peers hold several fragments).
    auto doc = base_->GetDocument(pinned->second);
    if (!doc.ok()) {
      return Status(doc.status().code(),
                    "pinned fragment " + pinned->second + " of " + uri + ": " +
                        doc.status().message());
    }
    cache_[uri] = doc.value();
    return doc;
  }
  auto direct = base_->GetDocument(uri);
  if (direct.ok() || direct.status().code() != StatusCode::kNotFound ||
      catalog_ == nullptr) {
    return direct;
  }
  // The base has no such document, but the name may be a catalog
  // collection with fragments stored at this peer — a shard serving its
  // partition under the collection's logical name.
  core::ShardedCollection collection;
  if (!catalog_->Snapshot(uri, &collection, nullptr)) return direct;
  bool any_local = false;
  for (const core::ShardInfo& s : collection.shards) {
    if (s.peer_uri == self_uri_) any_local = true;
  }
  if (!any_local) return direct;
  XRPC_ASSIGN_OR_RETURN(xml::NodePtr doc,
                        Assemble(collection, /*local_only=*/true));
  cache_[uri] = doc;
  return doc;
}

StatusOr<xml::NodePtr> ShardDocumentProvider::Assemble(
    const core::ShardedCollection& collection, bool local_only) {
  std::vector<xml::NodePtr> fragments;
  for (const core::ShardInfo& s : collection.shards) {
    bool local = s.peer_uri == self_uri_;
    if (local_only && !local) continue;
    std::string fragment_uri =
        local ? s.doc_name : s.peer_uri + "/" + s.doc_name;
    auto fragment = base_->GetDocument(fragment_uri);
    if (!fragment.ok()) {
      return Status(fragment.status().code(),
                    "fragment " + std::to_string(s.index) + " of " +
                        collection.name + " (" + fragment_uri +
                        "): " + fragment.status().message());
    }
    fragments.push_back(std::move(fragment).value());
  }
  if (fragments.empty()) {
    return Status::NotFound("collection " + collection.name +
                            " has no fragments at " + self_uri_);
  }
  // The one-fragment case keeps the fragment's node identity — essential
  // for the 1-shard ≡ unsharded determinism contract.
  if (fragments.size() == 1) return fragments[0];
  xml::NodePtr doc = xml::Node::NewDocument();
  for (const xml::NodePtr& fragment : fragments) {
    for (const xml::NodePtr& child : fragment->children()) {
      doc->AppendChild(child->Clone());
    }
  }
  return doc;
}

}  // namespace xrpc::server
