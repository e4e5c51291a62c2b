#ifndef XRPC_COMPILER_LOOP_LIFT_H_
#define XRPC_COMPILER_LOOP_LIFT_H_

#include <memory>
#include <string>
#include <vector>

#include "algebra/table.h"
#include "base/cancellation.h"
#include "base/statusor.h"
#include "server/rpc_client.h"
#include "shred/shredded_doc.h"
#include "xquery/context.h"
#include "xquery/module.h"

namespace xrpc::compiler {

/// Captured intermediate tables of one loop-lifted XRPC call — the
/// map/req/msg/res/result tables of Figure 1. Recorded when tracing is on.
struct BulkRpcTrace {
  struct PerPeer {
    std::string peer;
    algebra::Table map;  ///< iter | iterp
    std::vector<algebra::Table> req;  ///< per parameter: iterp|pos|item
    algebra::Table msg = algebra::Table::IterPosItem();  ///< iterp|pos|item
    algebra::Table res = algebra::Table::IterPosItem();  ///< iter|pos|item
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
  shred::ShredCache* shreds = nullptr;  ///< required
  int max_inline_depth = 128;
  bool trace_bulk_rpc = false;  ///< capture Figure 1 tables
  /// Ablation toggles (benchmarking the design choices; leave on).
  bool enable_hoisting = true;       ///< loop-invariant subplan hoisting
  bool enable_join_rewrite = true;   ///< equality-where hash join
  /// Cooperative cancellation token polled at every algebra-expression
  /// dispatch; a tripped token aborts evaluation with its status.
  const CancellationToken* cancel = nullptr;
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
/// Updating expressions are outside this engine's scope (MonetDB routes
/// them through a separate update path); they report kUnsupported and the
/// caller falls back to the interpreter.
class LoopLiftedEvaluator {
 public:
  explicit LoopLiftedEvaluator(const LoopLiftConfig& config);
  ~LoopLiftedEvaluator();

  LoopLiftedEvaluator(const LoopLiftedEvaluator&) = delete;
  LoopLiftedEvaluator& operator=(const LoopLiftedEvaluator&) = delete;

  /// Evaluates a main module under the singleton loop relation.
  StatusOr<xdm::Sequence> EvaluateQuery(const xquery::MainModule& query);

  /// Evaluates `arity` loop-lifted applications of a module function: the
  /// server side of a Bulk RPC. args[p] holds parameter p of every call
  /// as an iter|pos|item table with iters 1..num_calls; the result table
  /// holds one result sequence per iter.
  StatusOr<algebra::Table> EvaluateFunctionBulk(
      const xquery::LibraryModule& module, const xquery::FunctionDef& def,
      const std::vector<algebra::Table>& args, int64_t num_calls);

  /// Bulk RPC traces captured so far (trace_bulk_rpc only).
  const std::vector<BulkRpcTrace>& traces() const;

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Converts between sequences and canonical tables.
algebra::Table SequenceToTable(const xdm::Sequence& seq, int64_t iter);
xdm::Sequence TableToSequence(const algebra::Table& table, int64_t iter);

}  // namespace xrpc::compiler

#endif  // XRPC_COMPILER_LOOP_LIFT_H_
