#ifndef XRPC_XQUERY_INTERPRETER_H_
#define XRPC_XQUERY_INTERPRETER_H_

#include <vector>

#include "base/cancellation.h"
#include "base/statusor.h"
#include "xquery/context.h"
#include "xquery/module.h"
#include "xquery/path_index.h"

namespace xrpc::xquery {

/// Tree-walking XQuery evaluator.
///
/// This engine plays the role Saxon plays in the paper: a conventional,
/// compile-then-walk XQuery processor with no set-oriented execution. It is
/// the engine behind the XRPC wrapper (Section 4) and the reference
/// implementation the loop-lifting relational compiler is tested against.
///
/// The interpreter itself issues one XRPC request per `execute at`
/// evaluation (one-at-a-time RPC); Bulk RPC arises from the relational
/// backend (Section 3.2) or from the wrapper's generated bulk query.
class Interpreter {
 public:
  struct Config {
    /// Resolves fn:doc(); required for queries touching documents.
    DocumentProvider* documents = nullptr;
    /// Executes `execute at`; required for distributed queries.
    RpcHandler* rpc = nullptr;
    /// Resolves module imports; required for queries calling module
    /// functions.
    ModuleResolver* modules = nullptr;
    /// Cooperative cancellation token polled at every expression-dispatch
    /// boundary; a tripped token aborts the evaluation with its status
    /// (kDeadlineExceeded / kCancelled). Null = never cancelled.
    const CancellationToken* cancel = nullptr;
    /// Path index to probe and fill. Null: the evaluation owns one for its
    /// own duration (one query, or all calls of one request).
    PathIndex* path_index = nullptr;
    /// Tallies the index builds, hits and sweeps this evaluation causes.
    PathIndex::Counters* index_counters = nullptr;
  };

  explicit Interpreter(const Config& config) : config_(config) {}

  /// Evaluates a main module. For updating queries the result sequence is
  /// empty and `updates` carries the pending update list.
  StatusOr<QueryResult> EvaluateQuery(const MainModule& query) const;

  /// Applies a module function to the already-evaluated arguments of each
  /// call of one (Bulk) XRPC request — the server side, after n2s()
  /// unmarshaling — returning one result per call. All calls share one
  /// path index, so the candidates and join index built by the first call
  /// serve the rest: a per-call selection becomes one join. The
  /// cancellation token is also checked between calls.
  StatusOr<std::vector<QueryResult>> CallModuleFunction(
      const LibraryModule& module, const FunctionDef& function,
      std::vector<std::vector<xdm::Sequence>> calls) const;

 private:
  Config config_;
};

}  // namespace xrpc::xquery

#endif  // XRPC_XQUERY_INTERPRETER_H_
