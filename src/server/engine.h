#ifndef XRPC_SERVER_ENGINE_H_
#define XRPC_SERVER_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "base/cancellation.h"
#include "base/statusor.h"
#include "server/module_registry.h"
#include "soap/message.h"
#include "xquery/context.h"
#include "xquery/interpreter.h"
#include "xquery/path_index.h"
#include "xquery/update.h"

namespace xrpc::server {

class RpcClient;

/// Everything an engine needs to evaluate one query at one peer: the
/// document view chosen by the isolation level, the module resolver, and the
/// outgoing RPC client for nested `execute at` calls. A server::QueryScope
/// builds it, at p0 and at every served hop alike.
struct CallContext {
  xquery::DocumentProvider* documents = nullptr;
  xquery::ModuleResolver* modules = nullptr;
  RpcClient* rpc = nullptr;
  /// Cooperative cancellation: engines poll this at evaluation-step
  /// boundaries and abandon the request once it trips (deadline expiry or
  /// explicit cancel). Null = never cancelled.
  const CancellationToken* cancel = nullptr;
  /// The peer's path index (DESIGN.md §6), which spans requests. Its keys
  /// are expressions, so an engine probes it only for functions resolved
  /// through `modules`; a re-parsed module evaluates over an index of its
  /// own. Null = every evaluation owns one.
  xquery::PathIndex* path_index = nullptr;
  /// Tallies the path index builds, hits and sweeps for the service's
  /// metrics. Null = not counted.
  xquery::PathIndex::Counters* index_counters = nullptr;
};

/// An XQuery execution engine able to serve (bulk) XRPC requests.
///
/// Implementations:
///  - InterpreterEngine (here): tree-walking evaluation of all calls of a
///    request in one evaluation context; the reference semantics.
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

/// The module function a request calls, resolved for any engine.
struct RequestFunction {
  const xquery::LibraryModule* module = nullptr;
  const xquery::FunctionDef* def = nullptr;
  /// Owns `module` when it was re-parsed from source.
  std::unique_ptr<xquery::LibraryModule> reparsed;
};

/// Resolves the function `request` names: through the context's module
/// resolver (the function cache hit path), or, with `reparse`, by parsing
/// the module source from `registry` again (a cache-less engine).
StatusOr<RequestFunction> ResolveRequestFunction(
    const soap::XrpcRequest& request, const CallContext& context,
    bool reparse = false, ModuleRegistry* registry = nullptr);

/// The interpreter configuration that evaluates over `context`.
xquery::Interpreter::Config InterpreterConfig(const CallContext& context);

/// One result sequence per call, in call order. Each call's pending
/// updates join `pul` (when non-null) as one update source: calls that
/// updated nothing open no source.
std::vector<xdm::Sequence> MergeCallResults(
    std::vector<xquery::QueryResult> calls, xquery::PendingUpdateList* pul);

/// Reference engine: resolves the pre-parsed function (the function cache
/// hit path) and interprets it for every call of the request in one
/// interpreter evaluation context, over the context's path index.
class InterpreterEngine : public ExecutionEngine {
 public:
  std::string name() const override { return "interpreter"; }

  StatusOr<std::vector<xdm::Sequence>> ExecuteRequest(
      const soap::XrpcRequest& request, const CallContext& context,
      xquery::PendingUpdateList* pul) override;
};

}  // namespace xrpc::server

#endif  // XRPC_SERVER_ENGINE_H_
