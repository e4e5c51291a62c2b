#ifndef XRPC_COMPILER_LOOP_LIFT_H_
#define XRPC_COMPILER_LOOP_LIFT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "algebra/table.h"
#include "base/cancellation.h"
#include "base/statusor.h"
#include "server/rpc_client.h"
#include "xquery/context.h"
#include "xquery/module.h"
#include "xquery/path_index.h"

namespace xrpc::compiler {

/// Captured intermediate tables of one loop-lifted XRPC call — the
/// map/req/msg/res/result tables of Figure 1. Recorded when tracing is on.
struct BulkRpcTrace {
  struct PerPeer {
    std::string peer;
    /// (iter, iterp) rows: the ρ renumbering of this peer's calls.
    std::vector<std::pair<int64_t, int64_t>> map;
    std::vector<algebra::Table> req;  ///< per parameter: iterp|pos|item
    algebra::Table msg;  ///< iterp|pos|item
    algebra::Table res;  ///< iter|pos|item

    /// Renders `map` as an "iter | iterp" table.
    std::string MapToString() const;
  };
  algebra::Table dst;     ///< the loop-lifted destination variable
  std::vector<PerPeer> peers;
  algebra::Table result;  ///< merged final iter|pos|item
};

/// Configuration of the loop-lifted evaluator.
struct LoopLiftConfig {
  xquery::DocumentProvider* documents = nullptr;
  xquery::ModuleResolver* modules = nullptr;
  server::RpcClient* rpc = nullptr;  ///< routes and sends `execute at`
  bool trace_bulk_rpc = false;  ///< capture Figure 1 tables
  /// Ablation toggles (benchmarking the design choices; leave on).
  bool enable_hoisting = true;       ///< loop-invariant subplan hoisting
  bool enable_join_rewrite = true;   ///< equality-where hash join
  /// Cooperative cancellation token polled at every algebra-expression
  /// dispatch; a tripped token aborts evaluation with its status.
  const CancellationToken* cancel = nullptr;
  /// Path index to probe and fill. Null: the evaluation owns one for its
  /// own duration (one query, or all calls of one request).
  xquery::PathIndex* path_index = nullptr;
  /// Tallies the index builds, hits and sweeps this evaluation causes.
  xquery::PathIndex::Counters* index_counters = nullptr;
};

/// The Pathfinder-style loop-lifted evaluator: XQuery expressions evaluate
/// to iter|pos|item tables relative to a loop relation, removing nested
/// for-loops in favor of bulk set-oriented execution (Section 3.1).
///
/// The payoff is Section 3.2: an `execute at` inside (arbitrarily nested)
/// for-loops sees ALL its iterations at once and emits ONE Bulk RPC
/// request per distinct destination peer, implementing the translation
/// rule of Figure 2 literally — including the ρ-renumbered per-peer
/// iterations and the order-restoring merge-union map-back.
///
/// Built-in functions, operators, type rules, node constructors and XQUF
/// primitives are not re-implemented here: the engine calls the shared
/// library (xquery/functions.h, xquery/update.h) once per iteration, so
/// both engines answer alike and neither needs the other.
/// Updating expressions, updating functions and fn:put file their
/// primitives in a pending table tagged with the iteration; evaluation
/// returns them as pending update lists in the interpreter's order, for
/// the caller to apply at commit (the paper's PUL, Section 2.3). User
/// functions are inlined over the loop of the iterations that call them,
/// recursion included, up to xquery::kMaxCallDepth.
class LoopLiftedEvaluator {
 public:
  explicit LoopLiftedEvaluator(const LoopLiftConfig& config);
  ~LoopLiftedEvaluator();

  LoopLiftedEvaluator(const LoopLiftedEvaluator&) = delete;
  LoopLiftedEvaluator& operator=(const LoopLiftedEvaluator&) = delete;

  /// Evaluates a main module under the singleton loop relation.
  StatusOr<xquery::QueryResult> EvaluateQuery(const xquery::MainModule& query);

  /// Evaluates `num_calls` loop-lifted applications of a module function:
  /// the server side of a Bulk RPC. args[p] holds parameter p of every
  /// call as an iter|pos|item table with iters 1..num_calls; result i
  /// holds call i+1's sequence and pending updates.
  StatusOr<std::vector<xquery::QueryResult>> EvaluateFunctionBulk(
      const xquery::LibraryModule& module, const xquery::FunctionDef& def,
      std::vector<algebra::Table> args, int64_t num_calls);

  /// Bulk RPC traces captured so far (trace_bulk_rpc only).
  const std::vector<BulkRpcTrace>& traces() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace xrpc::compiler

#endif  // XRPC_COMPILER_LOOP_LIFT_H_
