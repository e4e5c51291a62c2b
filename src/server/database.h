#ifndef XRPC_SERVER_DATABASE_H_
#define XRPC_SERVER_DATABASE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "xml/node.h"
#include "xquery/context.h"

namespace xrpc::server {

/// A peer's XML database: named documents with per-document version
/// counters (the `db_p(t)` of the paper's formal semantics).
///
/// Reads under `isolation=none` see the live trees. Repeatable-read
/// queries get lazily cloned private copies from the IsolationManager and
/// commit through ReplaceIfVersion(), which implements first-committer-wins
/// conflict detection for distributed snapshot-style updates.
///
/// A database is also where fn:put stores documents (xquery::PutSink).
class Database : public xquery::PutSink {
 public:
  Database() = default;
  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Stores (or replaces) a document; bumps its version.
  void PutDocument(const std::string& name, xml::NodePtr tree);

  /// Parses `xml_text` and stores it under `name`.
  Status PutDocumentText(const std::string& name, std::string_view xml_text);

  /// Current live tree of a document.
  StatusOr<xml::NodePtr> GetDocument(const std::string& name) const;

  /// Current tree plus its version (snapshot basis).
  StatusOr<std::pair<xml::NodePtr, uint64_t>> GetWithVersion(
      const std::string& name) const;

  /// Installs `tree` as the new version of `name` iff the current version
  /// still equals `expected_version`; kIsolationError otherwise (a
  /// conflicting transaction committed first).
  Status ReplaceIfVersion(const std::string& name, uint64_t expected_version,
                          xml::NodePtr tree);

  /// Version of a document (0 if absent).
  uint64_t VersionOf(const std::string& name) const;

  /// Applied fragment data version of a document (0 = unversioned). This
  /// is the replica-local mirror of the catalog's authoritative fragment
  /// data version (DESIGN.md §17): every committed shard update stamps the
  /// version it produced, and the XRPC service fences reads whose shard
  /// scope carries a newer data_version (StaleReplica). Distinct from the
  /// local `version` counter, which also moves on loads and non-sharded
  /// writes and is not comparable across copies.
  uint64_t AppliedDataVersion(const std::string& name) const;

  /// Raises the applied fragment data version of `name` to `version`
  /// (max semantics; no-op on an absent document).
  void SetAppliedDataVersion(const std::string& name, uint64_t version);

  std::vector<std::string> DocumentNames() const;
  bool Contains(const std::string& name) const;

  /// fn:put: stores (or replaces) `doc` under `uri`.
  Status Put(const std::string& uri, xml::NodePtr doc) override;

  /// Applies a pending update list to the live documents (rule RFu,
  /// isolation "none") and bumps the version of every document it writes.
  Status ApplyImmediate(xquery::PendingUpdateList* pul);

 private:
  struct Entry {
    xml::NodePtr tree;
    uint64_t version = 0;
    uint64_t applied_data_version = 0;  ///< see AppliedDataVersion()
  };
  mutable std::mutex mu_;
  std::map<std::string, Entry> docs_;
};

/// DocumentProvider view over the live database (isolation "none").
class LiveDocumentProvider : public xquery::DocumentProvider {
 public:
  explicit LiveDocumentProvider(Database* db) : db_(db) {}
  StatusOr<xml::NodePtr> GetDocument(const std::string& uri) override {
    return db_->GetDocument(uri);
  }

 private:
  Database* db_;
};

}  // namespace xrpc::server

#endif  // XRPC_SERVER_DATABASE_H_
