#include "server/database.h"

#include <map>
#include <vector>

#include "xml/parser.h"

namespace xrpc::server {

void Database::PutDocument(const std::string& name, xml::NodePtr tree) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = docs_[name];
  e.tree = std::move(tree);
  ++e.version;
}

Status Database::Put(const std::string& uri, xml::NodePtr doc) {
  PutDocument(uri, std::move(doc));
  return Status::OK();
}

Status Database::ApplyImmediate(xquery::PendingUpdateList* pul) {
  // Map live tree roots back to document names so versions can be bumped.
  std::map<const xml::Node*, std::string> root_to_name;
  for (const std::string& name : DocumentNames()) {
    auto doc = GetDocument(name);
    if (doc.ok()) root_to_name[doc.value().get()] = name;
  }
  std::vector<std::string> written;
  for (const auto& entry : pul->entries()) {
    const xquery::UpdatePrimitive& p = entry.primitive;
    if (p.kind == xquery::UpdatePrimitive::Kind::kPut) continue;
    if (p.target.node() == nullptr) continue;
    auto it = root_to_name.find(p.target.node()->Root());
    if (it != root_to_name.end()) written.push_back(it->second);
  }
  XRPC_RETURN_IF_ERROR(xquery::ApplyUpdates(pul, this));
  for (const std::string& name : written) {
    auto doc = GetDocument(name);
    if (doc.ok()) PutDocument(name, doc.value());  // version bump
  }
  return Status::OK();
}

Status Database::PutDocumentText(const std::string& name,
                                 std::string_view xml_text) {
  XRPC_ASSIGN_OR_RETURN(xml::NodePtr doc, xml::ParseXml(xml_text));
  PutDocument(name, std::move(doc));
  return Status::OK();
}

StatusOr<xml::NodePtr> Database::GetDocument(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(name);
  if (it == docs_.end()) {
    return Status::NotFound("document not found: " + name);
  }
  return it->second.tree;
}

StatusOr<std::pair<xml::NodePtr, uint64_t>> Database::GetWithVersion(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(name);
  if (it == docs_.end()) {
    return Status::NotFound("document not found: " + name);
  }
  return std::pair<xml::NodePtr, uint64_t>(it->second.tree,
                                           it->second.version);
}

Status Database::ReplaceIfVersion(const std::string& name,
                                  uint64_t expected_version,
                                  xml::NodePtr tree) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry& e = docs_[name];
  if (e.version != expected_version) {
    return Status::IsolationError(
        "write-write conflict on document " + name + ": expected version " +
        std::to_string(expected_version) + ", found " +
        std::to_string(e.version));
  }
  e.tree = std::move(tree);
  ++e.version;
  return Status::OK();
}

uint64_t Database::VersionOf(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(name);
  return it == docs_.end() ? 0 : it->second.version;
}

uint64_t Database::AppliedDataVersion(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(name);
  return it == docs_.end() ? 0 : it->second.applied_data_version;
}

void Database::SetAppliedDataVersion(const std::string& name,
                                     uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = docs_.find(name);
  if (it == docs_.end()) return;
  if (version > it->second.applied_data_version) {
    it->second.applied_data_version = version;
  }
}

std::vector<std::string> Database::DocumentNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(docs_.size());
  for (const auto& [name, entry] : docs_) names.push_back(name);
  return names;
}

}  // namespace xrpc::server
