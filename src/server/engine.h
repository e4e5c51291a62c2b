#ifndef XRPC_SERVER_ENGINE_H_
#define XRPC_SERVER_ENGINE_H_

#include <string>
#include <vector>

#include "base/cancellation.h"
#include "base/statusor.h"
#include "server/module_registry.h"
#include "soap/message.h"
#include "xquery/context.h"
#include "xquery/update.h"

namespace xrpc::server {

/// Channel for loop-lifted Bulk RPC dispatch: one invocation carries the
/// requests of ONE `execute at` — one Bulk RPC request per distinct
/// destination peer. Implementations may dispatch the requests in
/// parallel (MonetDB/XQuery does); the reference implementation
/// (RpcClient) accounts network time as the maximum over destinations.
class BulkRpcChannel {
 public:
  virtual ~BulkRpcChannel() = default;

  struct Destination {
    std::string dest_uri;
    soap::XrpcRequest request;
    /// Replica peers to try in order when `dest_uri` fails retriably
    /// (dial failure, per-attempt timeout, open breaker). Populated from
    /// the catalog's replica lists for shard-routed read-only subcalls;
    /// updating requests never fail over (at-most-once, Section 4.4).
    std::vector<std::string> fallback_uris;
  };

  /// Executes all requests; result[i] corresponds to destinations[i].
  virtual StatusOr<std::vector<soap::XrpcResponse>> ExecuteBulkAll(
      std::vector<Destination> destinations) = 0;

  /// Observability hook: the caller saw a StaleCatalog reject, refetched
  /// the shard map, and is re-dispatching. The compiler layer cannot link
  /// the metrics registry directly (layering), so the channel records it.
  virtual void NoteStaleReroute() {}
};

/// Everything an engine needs to execute one XRPC request: the database
/// view chosen by the isolation level, the module resolver, and the
/// outgoing RPC handler / bulk channel for nested `execute at` calls.
struct CallContext {
  xquery::DocumentProvider* documents = nullptr;
  xquery::ModuleResolver* modules = nullptr;
  xquery::RpcHandler* rpc = nullptr;
  BulkRpcChannel* bulk_rpc = nullptr;
  /// Cooperative cancellation: engines poll this at evaluation-step
  /// boundaries and abandon the request once it trips (deadline expiry or
  /// explicit cancel). Null = never cancelled.
  const CancellationToken* cancel = nullptr;
};

/// An XQuery execution engine able to serve (bulk) XRPC requests.
///
/// Implementations:
///  - InterpreterEngine (here): tree-walking evaluation of all calls of a
///    request in one evaluation context (shared path memo and join
///    index); the reference semantics.
///  - compiler::RelationalEngine: loop-lifted relational plans with a
///    function cache (the MonetDB/XQuery role).
///  - wrapper::WrapperEngine: generates the Fig. 3 XQuery text for the
///    whole bulk request and evaluates it (the Saxon-behind-a-wrapper
///    role).
class ExecutionEngine {
 public:
  virtual ~ExecutionEngine() = default;

  virtual std::string name() const = 0;

  /// Executes every call of the request, returning one result sequence per
  /// call. Updating requests append their primitives to `pul` (which the
  /// isolation layer either applies immediately — rule RFu — or retains
  /// until Commit — rule R'Fu).
  virtual StatusOr<std::vector<xdm::Sequence>> ExecuteRequest(
      const soap::XrpcRequest& request, const CallContext& context,
      xquery::PendingUpdateList* pul) = 0;
};

/// Reference engine: resolves the function and interprets it for every
/// call of the request in one interpreter evaluation context.
///
/// With `reparse_per_request` the module source is re-parsed from the
/// registry on every request, modeling a cache-less system (the "No
/// Function Cache" column of Table 2); otherwise the pre-parsed module is
/// used directly (the function cache hit path).
class InterpreterEngine : public ExecutionEngine {
 public:
  struct Options {
    bool reparse_per_request = false;
    ModuleRegistry* registry = nullptr;  ///< required when reparsing
  };

  InterpreterEngine() = default;
  explicit InterpreterEngine(const Options& options) : options_(options) {}

  std::string name() const override { return "interpreter"; }

  StatusOr<std::vector<xdm::Sequence>> ExecuteRequest(
      const soap::XrpcRequest& request, const CallContext& context,
      xquery::PendingUpdateList* pul) override;

 private:
  Options options_;
};

}  // namespace xrpc::server

#endif  // XRPC_SERVER_ENGINE_H_
