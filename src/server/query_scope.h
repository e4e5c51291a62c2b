#ifndef XRPC_SERVER_QUERY_SCOPE_H_
#define XRPC_SERVER_QUERY_SCOPE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>

#include "base/cancellation.h"
#include "core/catalog.h"
#include "server/database.h"
#include "server/engine.h"
#include "server/isolation.h"
#include "server/rpc_client.h"

namespace xrpc::server {

/// Namespace of the built-in system module every peer serves; its sys:doc
/// function implements remote document fetch (the data-shipping fn:doc of
/// Section 5: fn:doc with an xrpc:// URI ships the document to the caller).
inline constexpr char kSystemModuleNs[] =
    "http://monetdb.cwi.nl/XQuery/system";

/// Source of that module (registered automatically by peers).
const char* SystemModuleSource();

/// The one fn:doc view of one query at one peer (DESIGN.md §13.4). Rules,
/// in order:
///  1. "shard:<collection>" splices every fragment's root children under
///     one document in shard order (one fragment: that fragment itself);
///  2. "xrpc://host/path" is fetched from that peer through sys:doc;
///  3. a collection name pinned by the request's xrpc:shard scope reads
///     exactly that fragment;
///  4. any other name reads the database: the live tree, or under a
///     queryID the session's snapshot clone (rule R'Fr);
///  5. a name the database lacks that the catalog lists as a collection
///     with fragments here reads the union of the local fragments.
/// Results of rules 1, 2, 3 and 5 are cached for the query, so doc(u) is
/// doc(u) and loop-lifted plans fetch nothing twice.
class DocumentResolver : public xquery::DocumentProvider {
 public:
  /// `session` null = live reads; `client` null = rule 2 fails with
  /// kNetworkError; `catalog` null = rules 1, 3 and 5 are off.
  DocumentResolver(Database* database, QuerySession* session,
                   RpcClient* client, const core::Catalog* catalog,
                   std::string self_uri)
      : database_(database), session_(session), client_(client),
        catalog_(catalog), self_uri_(std::move(self_uri)) {}

  StatusOr<xml::NodePtr> GetDocument(const std::string& uri) override;

  /// Rule 3's pin.
  void PinFragment(const std::string& collection, const std::string& doc_name) {
    pinned_[collection] = doc_name;
  }

 private:
  /// Rules 2 and 4: fetches an xrpc:// URI, else reads the database view.
  StatusOr<xml::NodePtr> Load(const std::string& uri);

  /// Loads the collection's fragments (all, or only those at self_uri_)
  /// and splices them in shard order.
  StatusOr<xml::NodePtr> Assemble(const core::ShardedCollection& collection,
                                  bool local_only);

  Database* database_;
  QuerySession* session_;
  RpcClient* client_;
  const core::Catalog* catalog_;
  std::string self_uri_;
  std::map<std::string, std::string> pinned_;  ///< collection -> fragment
  std::map<std::string, xml::NodePtr> cache_;
};

/// Everything one peer needs to evaluate one query, built alike at p0
/// (PeerNetwork::Execute) and at every served hop (XrpcService::HandleXrpc):
/// the cancellation token armed from the query's deadline, the RpcClient
/// for nested `execute at` calls, the document resolver, and the
/// CallContext that hands them to an engine.
class QueryScope {
 public:
  struct Params {
    std::string self_uri;
    Database* database = nullptr;
    QuerySession* session = nullptr;  ///< snapshot view; null = live reads
    xquery::ModuleResolver* modules = nullptr;
    const core::Catalog* catalog = nullptr;
    net::Transport* transport = nullptr;  ///< null = no client
    net::RpcMetrics* metrics = nullptr;
    net::ThreadPool* dispatch_pool = nullptr;  ///< null = serial fan-out
    /// Set: outgoing calls run under repeatable isolation and carry it.
    std::optional<soap::QueryId> query_id;
    bool simple_query = false;  ///< see RpcClient::Options
    int64_t deadline_us = 0;    ///< absolute, on `now_us`; 0 = none
    std::function<int64_t()> now_us;
  };

  explicit QueryScope(Params params);

  QueryScope(const QueryScope&) = delete;
  QueryScope& operator=(const QueryScope&) = delete;

  /// `cancel` is null without a deadline; `path_index` and
  /// `index_counters` are the caller's to set.
  CallContext& context() { return context_; }
  DocumentResolver& documents() { return documents_; }
  /// Null when the scope has no transport.
  RpcClient* client() { return context_.rpc; }

 private:
  CancellationToken cancel_;
  RpcClient client_;
  DocumentResolver documents_;
  CallContext context_;
};

}  // namespace xrpc::server

#endif  // XRPC_SERVER_QUERY_SCOPE_H_
