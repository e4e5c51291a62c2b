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
#include "xquery/update.h"

namespace xrpc::server {

class RpcClient;

/// Everything an engine needs to execute one XRPC request: the database
/// view chosen by the isolation level, the module resolver, and the
/// outgoing RPC client for nested `execute at` calls.
struct CallContext {
  xquery::DocumentProvider* documents = nullptr;
  xquery::ModuleResolver* modules = nullptr;
  RpcClient* rpc = nullptr;
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
