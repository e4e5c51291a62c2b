#include "compiler/loop_lift.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>

#include "xquery/functions.h"

namespace xrpc::compiler {

namespace {

using algebra::SortByIterPos;
using algebra::Table;
using xdm::AtomicType;
using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;
using xml::Node;
using xml::NodeKind;
using xml::NodePtr;
using xquery::Axis;
using xquery::CompOp;
using xquery::Expr;
using xquery::ExprKind;
using xquery::ExprPtr;
using xquery::FlworClause;
using xquery::NodeTest;
using xquery::PathStep;

/// Hidden variable names binding the dynamic focus (Pathfinder encodes the
/// context item as an ordinary loop-lifted variable).
constexpr char kDotVar[] = "{fs}dot";
constexpr char kPositionVar[] = "{fs}position";
constexpr char kLastVar[] = "{fs}last";

/// The loop relation: ordered distinct iteration numbers.
using Loop = std::vector<int64_t>;

std::unordered_map<int64_t, std::vector<size_t>> GroupByIter(const Table& t) {
  std::unordered_map<int64_t, std::vector<size_t>> groups;
  groups.reserve(t.NumRows());
  for (size_t i = 0; i < t.NumRows(); ++i) {
    groups[t.Iter(i)].push_back(i);
  }
  return groups;
}

/// True if rows are non-decreasing in iter (the common case: every helper
/// producing tables emits them in loop order).
bool SortedByIter(const Table& t) {
  for (size_t i = 1; i < t.NumRows(); ++i) {
    if (t.Iter(i) < t.Iter(i - 1)) return false;
  }
  return true;
}

/// True if `loop` is the contiguous range [front..back] (for-loops always
/// mint contiguous ranges).
bool ContiguousLoop(const std::vector<int64_t>& loop) {
  return !loop.empty() &&
         loop.back() - loop.front() + 1 == static_cast<int64_t>(loop.size());
}

// ---- Loop-invariant hoisting analysis (Pathfinder performs the algebraic
// equivalent: subplans independent of the loop relation are evaluated once
// and joined back). An expression is hoistable when it has no free
// variables (including the hidden focus), constructs no nodes (node
// constructors must mint fresh identities per iteration) and updates
// nothing (each iteration files its own pending updates).

void CollectHoistInfo(const Expr& e, std::set<std::string>* bound,
                      bool* has_free, bool* blocks, bool* has_rpc);

void CollectChildHoistInfo(const Expr& e, std::set<std::string>* bound,
                           bool* has_free, bool* blocks, bool* has_rpc) {
  for (const ExprPtr& c : e.children) {
    if (c) CollectHoistInfo(*c, bound, has_free, blocks, has_rpc);
  }
  if (e.where) CollectHoistInfo(*e.where, bound, has_free, blocks, has_rpc);
  for (const xquery::OrderSpec& o : e.order_by) {
    if (o.key) CollectHoistInfo(*o.key, bound, has_free, blocks, has_rpc);
  }
  if (e.ret) CollectHoistInfo(*e.ret, bound, has_free, blocks, has_rpc);
  for (const ExprPtr& p : e.predicates) {
    if (p) {
      std::set<std::string> inner = *bound;
      inner.insert(kDotVar);
      inner.insert(kPositionVar);
      inner.insert(kLastVar);
      CollectHoistInfo(*p, &inner, has_free, blocks, has_rpc);
    }
  }
  for (const ExprPtr& a : e.attributes) {
    if (a) CollectHoistInfo(*a, bound, has_free, blocks, has_rpc);
  }
  if (e.name_expr) CollectHoistInfo(*e.name_expr, bound, has_free, blocks, has_rpc);
  for (const PathStep& step : e.steps) {
    for (const ExprPtr& p : step.predicates) {
      if (p) {
        std::set<std::string> inner = *bound;
        inner.insert(kDotVar);
        inner.insert(kPositionVar);
        inner.insert(kLastVar);
        CollectHoistInfo(*p, &inner, has_free, blocks, has_rpc);
      }
    }
  }
}

void CollectHoistInfo(const Expr& e, std::set<std::string>* bound,
                      bool* has_free, bool* blocks, bool* has_rpc) {
  switch (e.kind) {
    case ExprKind::kExecuteAt:
      *has_rpc = true;
      CollectChildHoistInfo(e, bound, has_free, blocks, has_rpc);
      return;
    case ExprKind::kVarRef:
      if (bound->count(e.name.Clark()) == 0) *has_free = true;
      return;
    case ExprKind::kContextItem:
      if (bound->count(kDotVar) == 0) *has_free = true;
      return;
    case ExprKind::kElementCtor:
    case ExprKind::kAttributeCtor:
    case ExprKind::kTextCtor:
    case ExprKind::kCommentCtor:
    case ExprKind::kPiCtor:
    case ExprKind::kDocumentCtor:
      *blocks = true;  // constructors mint per-iteration node identities
      return;
    case ExprKind::kInsert:
    case ExprKind::kDelete:
    case ExprKind::kReplaceNode:
    case ExprKind::kReplaceValue:
    case ExprKind::kRename:
      *blocks = true;
      return;
    case ExprKind::kPath:
      // A relative path (no source expression) reads the context item.
      if (e.children[0] == nullptr && bound->count(kDotVar) == 0) {
        *has_free = true;
      }
      CollectChildHoistInfo(e, bound, has_free, blocks, has_rpc);
      return;
    case ExprKind::kFunctionCall:
      if (xquery::ReadsFocus(e.name, e.children.size()) &&
          bound->count(kDotVar) == 0) {
        *has_free = true;
      }
      if ((e.name.ns_uri != xquery::kFnNs && e.name.ns_uri != xml::kXsNs) ||
          (e.name.ns_uri == xquery::kFnNs && e.name.local == "put")) {
        *blocks = true;  // user function bodies are opaque; fn:put updates
      }
      CollectChildHoistInfo(e, bound, has_free, blocks, has_rpc);
      return;
    case ExprKind::kFlwor:
    case ExprKind::kQuantified: {
      std::set<std::string> inner = *bound;
      for (const FlworClause& c : e.clauses) {
        if (c.expr) CollectHoistInfo(*c.expr, &inner, has_free, blocks, has_rpc);
        inner.insert(c.var.Clark());
        if (!c.pos_var.empty()) inner.insert(c.pos_var.Clark());
      }
      if (e.where) {
        CollectHoistInfo(*e.where, &inner, has_free, blocks, has_rpc);
      }
      for (const xquery::OrderSpec& o : e.order_by) {
        if (o.key) CollectHoistInfo(*o.key, &inner, has_free, blocks, has_rpc);
      }
      if (e.ret) CollectHoistInfo(*e.ret, &inner, has_free, blocks, has_rpc);
      return;
    }
    default:
      CollectChildHoistInfo(e, bound, has_free, blocks, has_rpc);
      return;
  }
}

/// What CollectHoistInfo finds in a whole expression.
struct HoistInfo {
  bool has_free = false;
  bool blocks = false;
  bool has_rpc = false;
};

HoistInfo Analyze(const Expr& e) {
  std::set<std::string> bound;
  HoistInfo info;
  CollectHoistInfo(e, &bound, &info.has_free, &info.blocks, &info.has_rpc);
  return info;
}

/// True if evaluating `e` once and broadcasting the result over the loop
/// preserves semantics AND the expression performs no RPC: `execute at`
/// is never hoisted — the protocol performs one remote application per
/// iteration (that is what Bulk RPC batches).
bool IsHoistable(const Expr& e) {
  // Only hoist kinds whose single evaluation is expensive enough to matter.
  if (e.kind != ExprKind::kPath && e.kind != ExprKind::kFilter &&
      e.kind != ExprKind::kFunctionCall) {
    return false;
  }
  const HoistInfo info = Analyze(e);
  return !info.has_free && !info.blocks && !info.has_rpc;
}

/// The hash join evaluates its binding once, which is sound for remote
/// calls too (they are pure reads under the join rewrite, as in any
/// distributed query optimizer), and its where clause per bound row, not
/// per tuple: neither may construct, update or call a user function
/// (which might update), and the binding must be loop-invariant.
bool IsJoinable(const Expr& binding, const Expr& where) {
  const HoistInfo info = Analyze(binding);
  return !info.has_free && !info.blocks && !Analyze(where).blocks;
}

/// Collects the free variable names of `e` (Clark names; the hidden focus
/// variables appear as {fs}dot etc. when the context leaks out).
void CollectFreeNames(const Expr& e, std::set<std::string> bound,
                      std::set<std::string>* free);

void CollectFreeNamesChildren(const Expr& e, const std::set<std::string>& bound,
                              std::set<std::string>* free) {
  auto visit_pred = [&](const ExprPtr& pred) {
    std::set<std::string> inner = bound;
    inner.insert(kDotVar);
    inner.insert(kPositionVar);
    inner.insert(kLastVar);
    CollectFreeNames(*pred, std::move(inner), free);
  };
  for (const ExprPtr& c : e.children) {
    if (c) CollectFreeNames(*c, bound, free);
  }
  if (e.where) CollectFreeNames(*e.where, bound, free);
  for (const xquery::OrderSpec& o : e.order_by) {
    if (o.key) CollectFreeNames(*o.key, bound, free);
  }
  if (e.ret) CollectFreeNames(*e.ret, bound, free);
  for (const ExprPtr& pr : e.predicates) {
    if (pr) visit_pred(pr);
  }
  for (const ExprPtr& a : e.attributes) {
    if (a) CollectFreeNames(*a, bound, free);
  }
  if (e.name_expr) CollectFreeNames(*e.name_expr, bound, free);
  for (const PathStep& step : e.steps) {
    for (const ExprPtr& pr : step.predicates) {
      if (pr) visit_pred(pr);
    }
  }
}

void CollectFreeNames(const Expr& e, std::set<std::string> bound,
                      std::set<std::string>* free) {
  switch (e.kind) {
    case ExprKind::kVarRef:
      if (bound.count(e.name.Clark()) == 0) free->insert(e.name.Clark());
      return;
    case ExprKind::kContextItem:
      if (bound.count(kDotVar) == 0) free->insert(kDotVar);
      return;
    case ExprKind::kPath:
      if (e.children[0] == nullptr && bound.count(kDotVar) == 0) {
        free->insert(kDotVar);
      }
      CollectFreeNamesChildren(e, bound, free);
      return;
    case ExprKind::kFunctionCall:
      if (xquery::ReadsFocus(e.name, e.children.size()) &&
          bound.count(kDotVar) == 0) {
        free->insert(kDotVar);
      }
      CollectFreeNamesChildren(e, bound, free);
      return;
    case ExprKind::kFlwor:
    case ExprKind::kQuantified: {
      for (const FlworClause& c : e.clauses) {
        if (c.expr) CollectFreeNames(*c.expr, bound, free);
        bound.insert(c.var.Clark());
        if (!c.pos_var.empty()) bound.insert(c.pos_var.Clark());
      }
      if (e.where) CollectFreeNames(*e.where, bound, free);
      for (const xquery::OrderSpec& o : e.order_by) {
        if (o.key) CollectFreeNames(*o.key, bound, free);
      }
      if (e.ret) CollectFreeNames(*e.ret, bound, free);
      return;
    }
    default:
      CollectFreeNamesChildren(e, bound, free);
      return;
  }
}

bool IsStringJoinableType(AtomicType t) {
  return t == AtomicType::kUntypedAtomic || t == AtomicType::kString ||
         t == AtomicType::kAnyUri;
}

/// Consumes an iter|pos|item table one iteration at a time, each
/// iteration's items in pos order, moving them out of the table. Visiting
/// iterations in ascending order (as loops are) walks the table once.
class IterCursor {
 public:
  explicit IterCursor(Table t) : table_(SortByIterPos(std::move(t))) {}

  /// Replaces `out` with the items of iteration `iter`.
  void Take(int64_t iter, Sequence* out) {
    const size_t n = table_.NumRows();
    if (row_ >= n || table_.Iter(row_) != iter) {
      size_t lo = 0, hi = n;  // seek: first row with Iter >= iter
      while (lo < hi) {
        size_t mid = lo + (hi - lo) / 2;
        if (table_.Iter(mid) < iter) {
          lo = mid + 1;
        } else {
          hi = mid;
        }
      }
      row_ = lo;
    }
    out->clear();
    for (; row_ < n && table_.Iter(row_) == iter; ++row_) {
      out->push_back(table_.TakeItemAt(row_));
    }
  }

 private:
  Table table_;
  size_t row_ = 0;
};

}  // namespace

// ===========================================================================

class LoopLiftedEvaluator::Impl {
 public:
  explicit Impl(const LoopLiftConfig& config) : cfg_(config) {}

  StatusOr<xquery::QueryResult> EvaluateQuery(
      const xquery::MainModule& query) {
    XRPC_ASSIGN_OR_RETURN(Scope scope, BuildScope(&query.prolog, ""));
    scopes_.push_back(std::move(scope));
    Loop loop{1};
    for (const auto& [name, init] : query.prolog.variables) {
      XRPC_ASSIGN_OR_RETURN(Table v, Eval(*init, loop));
      env_.emplace_back(name.Clark(), std::move(v));
    }
    XRPC_ASSIGN_OR_RETURN(Table result, Eval(*query.body, loop));
    std::vector<xquery::QueryResult> out(1);
    IterCursor(std::move(result)).Take(1, &out[0].sequence);
    XRPC_RETURN_IF_ERROR(TakePending(&out));
    return std::move(out[0]);
  }

  StatusOr<std::vector<xquery::QueryResult>> EvaluateFunctionBulk(
      const xquery::LibraryModule& module, const xquery::FunctionDef& def,
      std::vector<Table> args, int64_t num_calls) {
    if (args.size() != def.arity()) {
      return Status::TypeError("bulk call arity mismatch for " +
                               def.name.Lexical());
    }
    XRPC_ASSIGN_OR_RETURN(Scope scope,
                          BuildScope(&module.prolog, module.target_ns));
    scopes_.push_back(std::move(scope));
    Loop loop;
    loop.reserve(static_cast<size_t>(num_calls));
    for (int64_t i = 1; i <= num_calls; ++i) loop.push_back(i);
    size_t env_mark = env_.size();
    for (size_t p = 0; p < args.size(); ++p) {
      XRPC_ASSIGN_OR_RETURN(
          Table coerced,
          CoerceParam(std::move(args[p]), def.params[p].type, loop));
      env_.emplace_back(def.params[p].name.Clark(), std::move(coerced));
    }
    auto result = Eval(*def.body, loop);
    env_.resize(env_mark);
    scopes_.pop_back();
    if (!result.ok()) return result.status();
    Table t = SortByIterPos(std::move(result).value());
    std::vector<xquery::QueryResult> out(static_cast<size_t>(num_calls));
    for (size_t i = 0; i < t.NumRows(); ++i) {
      if (t.Iter(i) < 1 || t.Iter(i) > num_calls) {
        return Status::Internal("bulk result iteration out of range");
      }
      out[static_cast<size_t>(t.Iter(i) - 1)].sequence.push_back(
          t.TakeItemAt(i));
    }
    XRPC_RETURN_IF_ERROR(TakePending(&out));
    return out;
  }

  const std::vector<BulkRpcTrace>& traces() const { return traces_; }

 private:
  // ----------------------------------------------------------- scaffolding

  struct Scope {
    const xquery::Prolog* prolog = nullptr;
    std::string self_ns;
    std::map<std::string, const xquery::LibraryModule*> imports_by_ns;
    std::map<std::string, std::string> location_by_ns;
  };

  StatusOr<Scope> BuildScope(const xquery::Prolog* prolog,
                             std::string self_ns) {
    Scope scope;
    scope.prolog = prolog;
    scope.self_ns = std::move(self_ns);
    for (const xquery::ModuleImport& imp : prolog->imports) {
      scope.location_by_ns[imp.target_ns] = imp.location;
      if (cfg_.modules != nullptr) {
        auto resolved = cfg_.modules->Resolve(imp.target_ns, imp.location);
        if (resolved.ok()) scope.imports_by_ns[imp.target_ns] = resolved.value();
      }
    }
    return scope;
  }

  // ------------------------------------------------------ pending updates
  //
  // Update primitives (XQUF expressions, updating functions, fn:put) land
  // in one table, each row tagged with the iteration that produced it.
  // Within one iteration rows keep their evaluation order, which is the
  // interpreter's: operands evaluate in order, and an `if` runs one branch
  // per iteration. Across iterations the order does not matter until an
  // operator that evaluated under an inner loop maps its rows out: it
  // first sorts them stably by inner iter, which is tuple order, then
  // re-tags them with their outer iters. The final split buckets rows by
  // iter.

  struct PendingRow {
    int64_t iter;
    xquery::UpdatePrimitive primitive;
  };

  void SortPending(size_t from) {
    auto by_iter = [](const PendingRow& a, const PendingRow& b) {
      return a.iter < b.iter;
    };
    auto first = pending_.begin() + static_cast<std::ptrdiff_t>(from);
    if (!std::is_sorted(first, pending_.end(), by_iter)) {
      std::stable_sort(first, pending_.end(), by_iter);
    }
  }

  /// Re-tags the rows from `*from` on, added under an inner loop, with the
  /// outer iters `inner_to_outer` maps them to, and advances `*from`.
  void PendingToOuter(size_t* from,
                      const std::map<int64_t, int64_t>& inner_to_outer) {
    SortPending(*from);
    for (size_t r = *from; r < pending_.size(); ++r) {
      pending_[r].iter = inner_to_outer.find(pending_[r].iter)->second;
    }
    *from = pending_.size();
  }

  /// Moves the pending table into the per-iteration PULs of `out` (iter i
  /// fills out[i - 1]), leaving it empty.
  Status TakePending(std::vector<xquery::QueryResult>* out) {
    std::vector<PendingRow> rows = std::move(pending_);
    pending_.clear();
    for (PendingRow& row : rows) {
      if (row.iter < 1 || row.iter > static_cast<int64_t>(out->size())) {
        return Status::Internal("pending update iteration out of range");
      }
      (*out)[static_cast<size_t>(row.iter - 1)].updates.Add(
          std::move(row.primitive));
    }
    return Status::OK();
  }

  const Table* FindVar(const std::string& clark) const {
    for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
      if (it->first == clark) return &it->second;
    }
    return nullptr;
  }

  StatusOr<const Table*> LookupVar(const std::string& clark) const {
    if (const Table* t = FindVar(clark)) return t;
    return Status::EvalError("unbound variable $" + clark);
  }

  template <typename Exprs>
  StatusOr<std::vector<Table>> EvalArgs(const Exprs& exprs, const Loop& loop) {
    std::vector<Table> out;
    out.reserve(exprs.size());
    for (const auto& x : exprs) {
      XRPC_ASSIGN_OR_RETURN(Table t, Eval(*x, loop));
      out.push_back(std::move(t));
    }
    return out;
  }

  /// The one bridge from loop-lifted tables to the sequence-level function
  /// and operator library (xquery/functions.h): for every iteration of
  /// `loop`, moves that iteration's sequence out of each argument table,
  /// calls `fn(sequences, context)` once and appends the result sequence.
  /// With `focus`, the context carries the item, position and size bound
  /// to the hidden focus variables in that iteration. Update primitives
  /// the call adds to the context's list join the pending table under
  /// that iteration.
  template <typename Fn>
  StatusOr<Table> PerIteration(const Loop& loop, std::vector<Table> args,
                               bool focus, const Fn& fn) {
    std::vector<IterCursor> cursors;
    cursors.reserve(args.size());
    for (Table& t : args) cursors.emplace_back(std::move(t));
    std::vector<IterCursor> focus_cursors;  // dot, position, last
    if (focus) {
      // Outside a predicate the focus is undefined: no hidden variables.
      for (const char* var : {kDotVar, kPositionVar, kLastVar}) {
        if (const Table* t = FindVar(var)) focus_cursors.emplace_back(*t);
      }
      if (focus_cursors.size() != 3) focus_cursors.clear();
    }
    std::vector<Sequence> call_args(cursors.size());
    Sequence focus_seqs[3];
    xquery::PendingUpdateList updates;
    xquery::FunctionContext ctx;
    ctx.documents = cfg_.documents;
    ctx.pul = &updates;
    Table out;
    PollGate gate(cfg_.cancel);
    for (int64_t iter : loop) {
      if (gate.Tick()) return gate.status();
      for (size_t a = 0; a < cursors.size(); ++a) {
        cursors[a].Take(iter, &call_args[a]);
      }
      if (!focus_cursors.empty()) {
        for (size_t k = 0; k < 3; ++k) {
          focus_cursors[k].Take(iter, &focus_seqs[k]);
        }
        ctx.item = focus_seqs[0].empty() ? nullptr : &focus_seqs[0][0];
        ctx.position = focus_seqs[1].empty()
                           ? 0
                           : focus_seqs[1][0].atomic().AsInteger();
        ctx.size = focus_seqs[2].empty()
                       ? 0
                       : focus_seqs[2][0].atomic().AsInteger();
      }
      XRPC_ASSIGN_OR_RETURN(Sequence result, fn(call_args, ctx));
      if (!updates.empty()) {
        for (auto& entry : updates.mutable_entries()) {
          pending_.push_back({iter, std::move(entry.primitive)});
        }
        updates.mutable_entries().clear();
      }
      for (size_t k = 0; k < result.size(); ++k) {
        out.AppendIPI(iter, static_cast<int64_t>(k + 1), std::move(result[k]));
      }
    }
    return out;
  }

  /// Coerces a parameter table, iteration by iteration, to its declared
  /// type (empty iterations included: they are empty sequences).
  StatusOr<Table> CoerceParam(Table t, const xquery::SequenceType& type,
                              const Loop& loop) {
    if (type.kind == xquery::SequenceType::ItemKind::kItem &&
        type.occurrence == xquery::Occurrence::kZeroOrMore) {
      return t;
    }
    std::vector<Table> args;
    args.push_back(std::move(t));
    return PerIteration(
        loop, std::move(args), false,
        [&type](std::vector<Sequence>& a, const xquery::FunctionContext&) {
          return xquery::CoerceToType(std::move(a[0]), type);
        });
  }

  /// Sequences, operators and type expressions: operands evaluate
  /// loop-lifted, the operator itself applies per iteration.
  StatusOr<Table> EvalOperator(const Expr& e, const Loop& loop) {
    XRPC_ASSIGN_OR_RETURN(std::vector<Table> args, EvalArgs(e.children, loop));
    return PerIteration(
        loop, std::move(args), false,
        [&e](std::vector<Sequence>& a,
             const xquery::FunctionContext&) -> StatusOr<Sequence> {
          switch (e.kind) {
            case ExprKind::kComparison:
              return xquery::Compare(e.comp_op, a[0], a[1]);
            case ExprKind::kArith:
              return xquery::Arithmetic(e.arith_op, a[0], a[1]);
            case ExprKind::kRange:
              return xquery::Range(a[0], a[1]);
            case ExprKind::kUnaryMinus:
              return xquery::Negate(a[0]);
            case ExprKind::kSequence:
              for (size_t i = 1; i < a.size(); ++i) {
                a[0].insert(a[0].end(), std::make_move_iterator(a[i].begin()),
                            std::make_move_iterator(a[i].end()));
              }
              return a.empty() ? Sequence{} : std::move(a[0]);
            default:
              return xquery::ApplyTypeExpr(e.kind, e.seq_type,
                                           std::move(a[0]));
          }
        });
  }

  /// Restricts a value table to the iters of `loop`.
  Table RestrictToLoop(const Table& t, const Loop& loop) const {
    auto in_loop = [&](int64_t iter) {
      if (ContiguousLoop(loop)) {
        return iter >= loop.front() && iter <= loop.back();
      }
      return std::binary_search(loop.begin(), loop.end(), iter);
    };
    // Fast path: every row already in the loop — return the table as-is.
    bool all_in = true;
    for (size_t i = 0; i < t.NumRows(); ++i) {
      if (!in_loop(t.Iter(i))) {
        all_in = false;
        break;
      }
    }
    if (all_in) return t;
    Table out;
    for (size_t i = 0; i < t.NumRows(); ++i) {
      if (in_loop(t.Iter(i))) {
        out.AppendIPI(t.Iter(i), t.Pos(i), t.ItemAt(i));
      }
    }
    return out;
  }

  /// Per-iter singleton atomization; `required` makes absence an error.
  StatusOr<std::unordered_map<int64_t, AtomicValue>> AtomizedSingletons(
      const Table& t, const char* what) const {
    std::unordered_map<int64_t, AtomicValue> out;
    out.reserve(t.NumRows());
    for (size_t i = 0; i < t.NumRows(); ++i) {
      int64_t iter = t.Iter(i);
      if (out.count(iter) > 0) {
        return Status::TypeError(std::string(what) +
                                 ": more than one item in an iteration");
      }
      out.emplace(iter, t.ItemAt(i).Atomize());
    }
    return out;
  }

  // ------------------------------------------------------------ dispatcher

  // [[gnu::noinline]] keeps called-once operators that the compiler would
  // fold into the dispatcher or the user-function call path out of line:
  // every nesting level of a query, and so every level of a recursion,
  // pays those frames, and a recursion of xquery::kMaxCallDepth calls must
  // fit a thread's stack, sanitizer builds included.

  StatusOr<Table> Eval(const Expr& e, const Loop& loop) {
    if (cfg_.cancel != nullptr) {
      // Set-oriented plans batch whole loops into single operators, so the
      // per-dispatch poll here is the finest boundary this engine has; it
      // is checked BEFORE the empty-loop shortcut so even degenerate plans
      // observe a tripped deadline.
      XRPC_RETURN_IF_ERROR(cfg_.cancel->CheckCancelled());
    }
    if (loop.empty()) return Table();
    // Loop-invariant hoisting: evaluate once, broadcast over the loop.
    if (cfg_.enable_hoisting && loop.size() > 1 && Hoistable(e)) {
      return EvalHoisted(e, loop);
    }
    return Dispatch(e, loop);
  }

  bool Hoistable(const Expr& e) {
    auto cached = hoistable_.find(&e);
    return cached != hoistable_.end() ? cached->second
                                      : (hoistable_[&e] = IsHoistable(e));
  }

  [[gnu::noinline]] StatusOr<Table> EvalHoisted(const Expr& e,
                                                const Loop& loop) {
    XRPC_ASSIGN_OR_RETURN(Table once, Eval(e, Loop{loop.front()}));
    Table out;
    for (int64_t iter : loop) {
      for (size_t i = 0; i < once.NumRows(); ++i) {
        out.AppendIPI(iter, once.Pos(i), once.ItemAt(i));
      }
    }
    return out;
  }

  StatusOr<Table> Dispatch(const Expr& e, const Loop& loop) {
    switch (e.kind) {
      case ExprKind::kLiteral: {
        Table t;
        for (int64_t iter : loop) t.AppendIPI(iter, 1, Item(e.literal));
        return t;
      }
      case ExprKind::kSequence:
      case ExprKind::kRange:
      case ExprKind::kComparison:
      case ExprKind::kArith:
      case ExprKind::kUnaryMinus:
      case ExprKind::kCastAs:
      case ExprKind::kCastableAs:
      case ExprKind::kInstanceOf:
      case ExprKind::kTreatAs:
        return EvalOperator(e, loop);
      case ExprKind::kVarRef: {
        XRPC_ASSIGN_OR_RETURN(const Table* t, LookupVar(e.name.Clark()));
        return RestrictToLoop(*t, loop);
      }
      case ExprKind::kContextItem: {
        XRPC_ASSIGN_OR_RETURN(const Table* t, LookupVar(kDotVar));
        return RestrictToLoop(*t, loop);
      }
      case ExprKind::kFlwor:
        return EvalFlwor(e, loop);
      case ExprKind::kIf:
        return EvalIf(e, loop);
      case ExprKind::kQuantified:
        return EvalQuantified(e, loop);
      case ExprKind::kOr:
      case ExprKind::kAnd:
        return EvalLogic(e, loop);
      case ExprKind::kUnion:
        return EvalUnion(e, loop);
      case ExprKind::kPath:
        return EvalPath(e, loop);
      case ExprKind::kFilter: {
        XRPC_ASSIGN_OR_RETURN(Table in, Eval(*e.children[0], loop));
        return ApplyPredicates(std::move(in), e.predicates);
      }
      case ExprKind::kFunctionCall:
        return EvalFunctionCall(e, loop);
      case ExprKind::kExecuteAt:
        return EvalExecuteAt(e, loop);
      case ExprKind::kElementCtor:
      case ExprKind::kAttributeCtor:
      case ExprKind::kTextCtor:
      case ExprKind::kCommentCtor:
      case ExprKind::kPiCtor:
      case ExprKind::kDocumentCtor:
        return EvalConstructor(e, loop);
      case ExprKind::kInsert:
      case ExprKind::kDelete:
      case ExprKind::kReplaceNode:
      case ExprKind::kReplaceValue:
      case ExprKind::kRename:
        return EvalUpdating(e, loop);
    }
    return Status::Internal("unhandled expression kind");
  }

  /// XQUF expressions: operands evaluate loop-lifted, primitives are built
  /// per iteration into the pending table.
  [[gnu::noinline]] StatusOr<Table> EvalUpdating(const Expr& e,
                                                 const Loop& loop) {
    XRPC_ASSIGN_OR_RETURN(std::vector<Table> args, EvalArgs(e.children, loop));
    return PerIteration(
        loop, std::move(args), false,
        [&e](std::vector<Sequence>& a,
             const xquery::FunctionContext& ctx) -> StatusOr<Sequence> {
          XRPC_RETURN_IF_ERROR(xquery::AddUpdatePrimitives(e, a, ctx.pul));
          return Sequence{};
        });
  }

  // ----------------------------------------------------------- structures

  /// Remaps a value table through an outer->inner iteration map, yielding
  /// the table keyed by inner iters ("loop-lifting" a live variable into a
  /// deeper scope).
  Table MapIntoInner(const Table& t,
                     const std::multimap<int64_t, int64_t>& outer_to_inner) {
    Table out;
    for (size_t i = 0; i < t.NumRows(); ++i) {
      auto [lo, hi] = outer_to_inner.equal_range(t.Iter(i));
      for (auto it = lo; it != hi; ++it) {
        out.AppendIPI(it->second, t.Pos(i), t.ItemAt(i));
      }
    }
    return out;
  }

  /// MapIntoInner over a vector of (outer, inner) pairs sorted by outer.
  Table MapIntoInnerSorted(
      const Table& t,
      const std::vector<std::pair<int64_t, int64_t>>& outer_to_inner) {
    Table out;
    auto less_outer = [](const std::pair<int64_t, int64_t>& p, int64_t v) {
      return p.first < v;
    };
    for (size_t i = 0; i < t.NumRows(); ++i) {
      auto lo = std::lower_bound(outer_to_inner.begin(), outer_to_inner.end(),
                                 t.Iter(i), less_outer);
      for (; lo != outer_to_inner.end() && lo->first == t.Iter(i); ++lo) {
        out.AppendIPI(lo->second, t.Pos(i), t.ItemAt(i));
      }
    }
    return out;
  }

  /// Attempts to execute the final for-clause `c` plus the equality
  /// where-clause as a hash join. Returns true when the join path was
  /// taken (cur_loop/inner_to_outer/env updated, the where consumed);
  /// false to fall back to cross-product expansion. Conditions: the
  /// binding expression is loop-invariant, the where is a general `=` with
  /// one side depending only on $c.var and the other side not on it, and
  /// both key sides are singleton string-comparable values.
  StatusOr<bool> TryHashJoinClause(const Expr& e, const FlworClause& c,
                                   Loop* cur_loop,
                                   std::map<int64_t, int64_t>* inner_to_outer) {
    const Expr& w = *e.where;
    if (w.kind != ExprKind::kComparison || w.comp_op != CompOp::kGenEq) {
      return false;
    }
    auto cached = joinable_.find(c.expr.get());
    bool invariant =
        cached != joinable_.end()
            ? cached->second
            : (joinable_[c.expr.get()] = IsJoinable(*c.expr, w));
    if (!invariant) return false;

    std::set<std::string> free_l, free_r;
    CollectFreeNames(*w.children[0], {}, &free_l);
    CollectFreeNames(*w.children[1], {}, &free_r);
    std::string var = c.var.Clark();
    const Expr* y_side = nullptr;
    const Expr* x_side = nullptr;
    auto only_var = [&](const std::set<std::string>& f) {
      return f.size() == 1 && *f.begin() == var;
    };
    auto without_var = [&](const std::set<std::string>& f) {
      return f.count(var) == 0 && f.count(kDotVar) == 0 &&
             f.count(kPositionVar) == 0;
    };
    if (only_var(free_l) && without_var(free_r)) {
      y_side = w.children[0].get();
      x_side = w.children[1].get();
    } else if (only_var(free_r) && without_var(free_l)) {
      y_side = w.children[1].get();
      x_side = w.children[0].get();
    } else {
      return false;
    }

    // Evaluate the binding once (it is loop-invariant).
    XRPC_ASSIGN_OR_RETURN(Table t_once, Eval(*c.expr, Loop{cur_loop->front()}));

    // Key each bound row: evaluate the y-side with $var bound per row.
    int64_t n = static_cast<int64_t>(t_once.NumRows());
    Loop yloop;
    Table yvar;
    for (int64_t i = 0; i < n; ++i) {
      int64_t iter = iter_base_ + i + 1;
      yloop.push_back(iter);
      yvar.AppendIPI(iter, 1, t_once.ItemAt(static_cast<size_t>(i)));
    }
    iter_base_ += n + 1;
    std::vector<std::pair<std::string, Table>> saved = std::move(env_);
    env_.clear();
    env_.emplace_back(var, std::move(yvar));
    auto ykeys_t = Eval(*y_side, yloop);
    env_ = std::move(saved);
    XRPC_RETURN_IF_ERROR(ykeys_t.status());
    auto ykeys_or = AtomizedSingletons(ykeys_t.value(), "join key");
    if (!ykeys_or.ok()) return false;  // multi-valued keys: fall back
    std::unordered_multimap<std::string, int64_t> build;
    build.reserve(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      auto it = ykeys_or.value().find(yloop[static_cast<size_t>(i)]);
      if (it == ykeys_or.value().end()) continue;  // empty key: never joins
      if (!IsStringJoinableType(it->second.type())) return false;
      build.emplace(it->second.ToString(), i);
    }

    // Probe side under the current loop.
    XRPC_ASSIGN_OR_RETURN(Table xkeys_t, Eval(*x_side, *cur_loop));
    auto xkeys_or = AtomizedSingletons(xkeys_t, "join key");
    if (!xkeys_or.ok()) return false;
    for (const auto& [iter, v] : xkeys_or.value()) {
      if (!IsStringJoinableType(v.type())) return false;
    }

    // Expand only the matching (outer, row) pairs, ordered by outer iter
    // then bound-row order.
    std::vector<std::pair<int64_t, int64_t>> old_to_new;
    std::map<int64_t, int64_t> next_inner_to_outer;
    Table var_table;
    Loop new_loop;
    for (int64_t iter : *cur_loop) {
      auto xk = xkeys_or.value().find(iter);
      if (xk == xkeys_or.value().end()) continue;
      auto [lo, hi] = build.equal_range(xk->second.ToString());
      std::vector<int64_t> rows;
      for (auto it = lo; it != hi; ++it) rows.push_back(it->second);
      std::sort(rows.begin(), rows.end());
      for (int64_t row : rows) {
        int64_t new_iter = ++iter_base_;
        old_to_new.emplace_back(iter, new_iter);
        next_inner_to_outer[new_iter] = (*inner_to_outer)[iter];
        new_loop.push_back(new_iter);
        var_table.AppendIPI(new_iter, 1,
                            t_once.ItemAt(static_cast<size_t>(row)));
      }
    }
    ++iter_base_;

    std::vector<std::pair<std::string, Table>> remapped;
    for (const auto& [name, table] : env_) {
      remapped.emplace_back(name, MapIntoInnerSorted(table, old_to_new));
    }
    env_ = std::move(remapped);
    env_.emplace_back(var, std::move(var_table));
    *inner_to_outer = std::move(next_inner_to_outer);
    *cur_loop = std::move(new_loop);
    return true;
  }

  StatusOr<Table> EvalFlwor(const Expr& e, const Loop& loop) {
    // State while processing clauses: the current inner loop, the
    // composed inner->outer map, and an env whose visible variables are
    // keyed by inner iters.
    Loop cur_loop = loop;
    std::map<int64_t, int64_t> inner_to_outer;
    for (int64_t iter : loop) inner_to_outer[iter] = iter;
    // The clause machinery remaps the whole environment into inner loops;
    // restore the caller's environment on every exit path.
    std::vector<std::pair<std::string, Table>> saved_env = env_;
    struct EnvRestorer {
      Impl* self;
      std::vector<std::pair<std::string, Table>>* saved;
      ~EnvRestorer() { self->env_ = std::move(*saved); }
    } restore{this, &saved_env};
    // Pending rows from here on carry the current inner loop's iters until
    // they are mapped back, before each change of loop and at the end.
    size_t pending_inner = pending_.size();

    Status st = Status::OK();
    bool where_consumed = false;
    for (size_t k = 0; k < e.clauses.size(); ++k) {
      const FlworClause& c = e.clauses[k];

      // Join detection (the algebraic optimization MonetDB's relational
      // backend applies): the last for-clause combined with an equality
      // where-clause between a key of the new variable and a key of the
      // already-bound tuple is executed as a hash join instead of
      // materializing the cross product.
      if (cfg_.enable_join_rewrite && k + 1 == e.clauses.size() &&
          c.kind == FlworClause::Kind::kFor && c.pos_var.empty() &&
          e.where != nullptr && cur_loop.size() > 1) {
        PendingToOuter(&pending_inner, inner_to_outer);
        auto joined = TryHashJoinClause(e, c, &cur_loop, &inner_to_outer);
        if (!joined.ok()) {
          st = joined.status();
          break;
        }
        if (joined.value()) {
          where_consumed = true;
          break;
        }
      }

      auto bound = Eval(*c.expr, cur_loop);
      if (!bound.ok()) {
        st = bound.status();
        break;
      }
      if (c.kind == FlworClause::Kind::kLet) {
        env_.emplace_back(c.var.Clark(),
                          SortByIterPos(std::move(bound).value()));
        continue;
      }
      // for $v in t: every row of t becomes a new iteration.
      Table t = SortByIterPos(std::move(bound).value());
      std::vector<std::pair<int64_t, int64_t>> old_to_new;  // sorted by old
      Table var_table;
      Table pos_table;
      Loop new_loop;
      std::map<int64_t, int64_t> next_inner_to_outer;
      int64_t pos_index = 0;
      old_to_new.reserve(t.NumRows());
      for (size_t i = 0; i < t.NumRows(); ++i) {
        int64_t new_iter = static_cast<int64_t>(i + 1) + iter_base_;
        if (i > 0 && t.Iter(i) != t.Iter(i - 1)) pos_index = 0;
        old_to_new.emplace_back(t.Iter(i), new_iter);
        next_inner_to_outer[new_iter] = inner_to_outer[t.Iter(i)];
        new_loop.push_back(new_iter);
        var_table.AppendIPI(new_iter, 1, t.TakeItemAt(i));
        ++pos_index;
        if (!c.pos_var.empty()) {
          pos_table.AppendIPI(new_iter, 1,
                              Item(AtomicValue::Integer(pos_index)));
        }
      }
      iter_base_ += static_cast<int64_t>(t.NumRows()) + 1;

      // Remap visible variables into the new loop.
      std::vector<std::pair<std::string, Table>> remapped;
      for (const auto& [name, table] : env_) {
        remapped.emplace_back(name, MapIntoInnerSorted(table, old_to_new));
      }
      env_ = std::move(remapped);
      env_.emplace_back(c.var.Clark(), std::move(var_table));
      if (!c.pos_var.empty()) {
        env_.emplace_back(c.pos_var.Clark(), std::move(pos_table));
      }
      PendingToOuter(&pending_inner, inner_to_outer);
      inner_to_outer = std::move(next_inner_to_outer);
      cur_loop = std::move(new_loop);
    }

    if (!st.ok()) return st;

    // where: restrict the loop (unless consumed by the hash join).
    if (e.where != nullptr && !where_consumed) {
      auto cond = EvalBool(*e.where, cur_loop);
      if (!cond.ok()) return cond.status();
      Loop filtered;
      for (int64_t iter : cur_loop) {
        auto it = cond.value().find(iter);
        if (it != cond.value().end() && it->second) filtered.push_back(iter);
      }
      cur_loop = std::move(filtered);
    }

    // order by: per inner iteration, compute sort keys.
    std::vector<int64_t> ordered_iters = cur_loop;
    if (!e.order_by.empty()) {
      struct Keyed {
        int64_t iter;
        std::vector<std::optional<AtomicValue>> keys;
      };
      std::vector<Keyed> keyed;
      keyed.reserve(cur_loop.size());
      std::vector<std::unordered_map<int64_t, AtomicValue>> key_maps;
      for (const xquery::OrderSpec& spec : e.order_by) {
        XRPC_ASSIGN_OR_RETURN(Table kt, Eval(*spec.key, cur_loop));
        XRPC_ASSIGN_OR_RETURN(auto km, AtomizedSingletons(kt, "order by"));
        key_maps.push_back(std::move(km));
      }
      for (int64_t iter : cur_loop) {
        Keyed k;
        k.iter = iter;
        for (auto& km : key_maps) {
          auto it = km.find(iter);
          k.keys.push_back(it == km.end()
                               ? std::nullopt
                               : std::optional<AtomicValue>(it->second));
        }
        keyed.push_back(std::move(k));
      }
      Status sort_error = Status::OK();
      std::stable_sort(keyed.begin(), keyed.end(), [&](const Keyed& a,
                                                       const Keyed& b) {
        // Iterations of distinct outer tuples keep their grouping by outer
        // iter first (XQuery order by sorts the tuple stream of the whole
        // FLWOR; with our composed maps outer grouping is preserved by the
        // stable sort as iters ascend with outer order).
        for (size_t i = 0; i < e.order_by.size(); ++i) {
          const xquery::OrderSpec& spec = e.order_by[i];
          const auto& ka = a.keys[i];
          const auto& kb = b.keys[i];
          if (!ka.has_value() || !kb.has_value()) {
            if (ka.has_value() == kb.has_value()) continue;
            bool a_first = !ka.has_value() != spec.empty_greatest;
            return spec.descending ? !a_first : a_first;
          }
          auto cmp = xdm::CompareAtomic(*ka, *kb);
          if (!cmp.ok()) {
            if (sort_error.ok()) sort_error = cmp.status();
            return false;
          }
          if (cmp.value() != 0) {
            return spec.descending ? cmp.value() > 0 : cmp.value() < 0;
          }
        }
        return false;
      });
      XRPC_RETURN_IF_ERROR(sort_error);
      ordered_iters.clear();
      for (const Keyed& k : keyed) ordered_iters.push_back(k.iter);
    }

    // return clause under the final loop; map back to outer iters with
    // pos renumbered in (ordered inner iteration, inner pos) order.
    XRPC_ASSIGN_OR_RETURN(Table ret, Eval(*e.ret, cur_loop));
    PendingToOuter(&pending_inner, inner_to_outer);
    ret = SortByIterPos(std::move(ret));
    auto groups = GroupByIter(ret);
    Table out;
    std::map<int64_t, int64_t> out_pos;
    for (int64_t iter : ordered_iters) {
      auto g = groups.find(iter);
      if (g == groups.end()) continue;
      int64_t outer = inner_to_outer[iter];
      for (size_t row : g->second) {
        out.AppendIPI(outer, ++out_pos[outer], ret.TakeItemAt(row));
      }
    }
    return SortByIterPos(std::move(out));
  }

  StatusOr<Table> EvalIf(const Expr& e, const Loop& loop) {
    XRPC_ASSIGN_OR_RETURN(auto cond, EvalBool(*e.children[0], loop));
    Loop then_loop, else_loop;
    for (int64_t iter : loop) {
      auto it = cond.find(iter);
      (it != cond.end() && it->second ? then_loop : else_loop).push_back(iter);
    }
    Table out;
    if (!then_loop.empty()) {
      XRPC_ASSIGN_OR_RETURN(Table t, Eval(*e.children[1], then_loop));
      out = algebra::DisjointUnion(std::move(out), std::move(t));
    }
    if (!else_loop.empty()) {
      XRPC_ASSIGN_OR_RETURN(Table t, Eval(*e.children[2], else_loop));
      out = algebra::DisjointUnion(std::move(out), std::move(t));
    }
    return SortByIterPos(std::move(out));
  }

  StatusOr<Table> EvalQuantified(const Expr& e, const Loop& loop) {
    // some $v in E satisfies P / every ...: bind clauses like EvalFlwor
    // does, evaluate P per inner iteration, aggregate per outer iter.
    Loop cur_loop = loop;
    std::map<int64_t, int64_t> inner_to_outer;
    for (int64_t iter : loop) inner_to_outer[iter] = iter;
    size_t env_mark = env_.size();
    std::vector<std::pair<std::string, Table>> saved_env = env_;
    size_t pending_inner = pending_.size();  // as in EvalFlwor

    Status st = Status::OK();
    for (const FlworClause& c : e.clauses) {
      auto bound = Eval(*c.expr, cur_loop);
      if (!bound.ok()) {
        st = bound.status();
        break;
      }
      Table t = SortByIterPos(std::move(bound).value());
      std::multimap<int64_t, int64_t> old_to_new;
      std::map<int64_t, int64_t> new_to_old;
      Table var_table;
      Loop new_loop;
      for (size_t i = 0; i < t.NumRows(); ++i) {
        int64_t new_iter = static_cast<int64_t>(i + 1) + iter_base_;
        old_to_new.emplace(t.Iter(i), new_iter);
        new_to_old[new_iter] = t.Iter(i);
        new_loop.push_back(new_iter);
        var_table.AppendIPI(new_iter, 1, t.TakeItemAt(i));
      }
      iter_base_ += static_cast<int64_t>(t.NumRows()) + 1;
      std::vector<std::pair<std::string, Table>> remapped;
      for (const auto& [name, table] : env_) {
        remapped.emplace_back(name, MapIntoInner(table, old_to_new));
      }
      env_ = std::move(remapped);
      env_.emplace_back(c.var.Clark(), std::move(var_table));
      std::map<int64_t, int64_t> composed;
      for (const auto& [ni, oi] : new_to_old) composed[ni] = inner_to_outer[oi];
      PendingToOuter(&pending_inner, inner_to_outer);
      inner_to_outer = std::move(composed);
      cur_loop = std::move(new_loop);
    }
    std::map<int64_t, bool> verdict;
    if (st.ok()) {
      auto cond = EvalBool(*e.ret, cur_loop);
      if (!cond.ok()) {
        st = cond.status();
      } else {
        PendingToOuter(&pending_inner, inner_to_outer);
        for (int64_t iter : loop) verdict[iter] = e.every;
        for (int64_t inner : cur_loop) {
          bool b = false;
          auto it = cond.value().find(inner);
          if (it != cond.value().end()) b = it->second;
          int64_t outer = inner_to_outer[inner];
          if (e.every) {
            verdict[outer] = verdict[outer] && b;
          } else {
            verdict[outer] = verdict[outer] || b;
          }
        }
      }
    }
    env_ = std::move(saved_env);
    env_.resize(env_mark);
    XRPC_RETURN_IF_ERROR(st);
    Table out;
    for (int64_t iter : loop) {
      out.AppendIPI(iter, 1, Item(AtomicValue::Boolean(verdict[iter])));
    }
    return out;
  }

  StatusOr<Table> EvalLogic(const Expr& e, const Loop& loop) {
    // Short-circuits like the interpreter: the right operand runs only in
    // the iterations the left one leaves undecided.
    const bool is_or = e.kind == ExprKind::kOr;
    XRPC_ASSIGN_OR_RETURN(auto l, EvalBool(*e.children[0], loop));
    Loop undecided;
    for (int64_t iter : loop) {
      if (l[iter] != is_or) undecided.push_back(iter);
    }
    XRPC_ASSIGN_OR_RETURN(auto r, EvalBool(*e.children[1], undecided));
    Table out;
    for (int64_t iter : loop) {
      bool v = l[iter] == is_or ? is_or : r[iter];
      out.AppendIPI(iter, 1, Item(AtomicValue::Boolean(v)));
    }
    return out;
  }

  /// Evaluates an expression to one effective boolean per iteration.
  StatusOr<std::map<int64_t, bool>> EvalBool(const Expr& e, const Loop& loop) {
    XRPC_ASSIGN_OR_RETURN(Table t, Eval(e, loop));
    auto groups = GroupByIter(t);
    PollGate gate(cfg_.cancel);
    std::map<int64_t, bool> out;
    Sequence seq;
    for (int64_t iter : loop) {
      if (gate.Tick()) return gate.status();
      auto g = groups.find(iter);
      bool b = false;
      if (g != groups.end()) {
        seq.clear();
        for (size_t row : g->second) seq.push_back(t.TakeItemAt(row));
        XRPC_ASSIGN_OR_RETURN(b, xdm::EffectiveBooleanValue(seq));
      }
      out[iter] = b;
    }
    return out;
  }

  StatusOr<Table> EvalUnion(const Expr& e, const Loop& loop) {
    XRPC_ASSIGN_OR_RETURN(Table l, Eval(*e.children[0], loop));
    XRPC_ASSIGN_OR_RETURN(Table r, Eval(*e.children[1], loop));
    return DocOrderPerIter(algebra::DisjointUnion(std::move(l), std::move(r)));
  }

  /// Sorts node rows per iter into document order, deduplicates, and
  /// renumbers pos.
  StatusOr<Table> DocOrderPerIter(Table t) {
    if (!SortedByIter(t)) t = SortByIterPos(std::move(t));
    Table out;
    PollGate gate(cfg_.cancel);
    Sequence seq;
    const size_t end = t.NumRows();
    size_t i = 0;
    while (i < end) {
      if (gate.Tick()) return gate.status();
      int64_t iter = t.Iter(i);
      seq.clear();
      for (; i < end && t.Iter(i) == iter; ++i) {
        seq.push_back(t.TakeItemAt(i));
      }
      if (seq.size() == 1) {
        if (!seq[0].IsNode()) {
          return Status::TypeError(
              "path step result contains an atomic value (XPTY0018)");
        }
        out.AppendIPI(iter, 1, std::move(seq[0]));
        continue;
      }
      XRPC_RETURN_IF_ERROR(xdm::SortByDocumentOrder(&seq));
      for (size_t k = 0; k < seq.size(); ++k) {
        out.AppendIPI(iter, static_cast<int64_t>(k + 1), std::move(seq[k]));
      }
    }
    return out;
  }

  // ----------------------------------------------------------------- paths

  StatusOr<Table> EvalPath(const Expr& e, const Loop& loop) {
    Table input;
    if (e.children[0] != nullptr) {
      XRPC_ASSIGN_OR_RETURN(input, Eval(*e.children[0], loop));
    } else {
      XRPC_ASSIGN_OR_RETURN(const Table* dot, LookupVar(kDotVar));
      input = RestrictToLoop(*dot, loop);
      if (e.root_path) {
        Table roots;
        for (size_t i = 0; i < input.NumRows(); ++i) {
          const Item& item = input.ItemAt(i);
          if (!item.IsNode()) {
            return Status::TypeError("context item is not a node");
          }
          roots.AppendIPI(input.Iter(i), 1,
                          Item::NodeInTree(item.node()->Root(), item.anchor()));
        }
        input = std::move(roots);
      }
    }
    // Path index (DESIGN.md §6): when every iteration's source is one
    // document, the path's indexed head comes from the entries of the
    // documents' current versions.
    const xquery::IndexedHead head = xquery::HeadOf(e);
    size_t first_step = 0;
    if (head.end() > 0 && OneDocumentPerIter(input)) {
      XRPC_ASSIGN_OR_RETURN(input, EvalIndexedHead(e, head, input));
      first_step = head.end();
    }
    for (size_t i = first_step; i < e.steps.size(); ++i) {
      XRPC_ASSIGN_OR_RETURN(input, EvalStep(input, e.steps[i]));
    }
    return input;
  }

  /// True if `t` has rows, each an index source, and no two share an iter.
  static bool OneDocumentPerIter(const Table& t) {
    Loop iters;
    iters.reserve(t.NumRows());
    for (size_t i = 0; i < t.NumRows(); ++i) {
      if (!xquery::IsIndexSource(t.ItemAt(i))) return false;
      iters.push_back(t.Iter(i));
    }
    std::sort(iters.begin(), iters.end());
    return !iters.empty() &&
           std::adjacent_find(iters.begin(), iters.end()) == iters.end();
  }

  /// The head of path `e` from index entries, for `docs`' one document row
  /// per iteration. Each distinct document's entry is looked up once per
  /// loop. Behind a plain step with a join index, the probe ($v or a
  /// literal) is evaluated once under the loop and each iteration makes
  /// one hash probe: an index nested-loop join. The step's other
  /// predicates then filter each iteration's nodes under its own iter.
  StatusOr<Table> EvalIndexedHead(const Expr& e,
                                  const xquery::IndexedHead& head,
                                  const Table& docs) {
    using Entry = xquery::PathIndex::Entry;
    std::map<const xml::Node*, std::shared_ptr<const Entry>> by_doc;
    std::vector<const Entry*> entries;  // per row
    bool join = false;
    Loop iters;
    for (size_t i = 0; i < docs.NumRows(); ++i) {
      auto& entry = by_doc[docs.ItemAt(i).node()];
      if (entry == nullptr) {
        entry = path_index_->Lookup(e, head, docs.ItemAt(i), counters_);
      }
      entries.push_back(entry.get());
      join = join || !entry->join.empty();
      iters.push_back(docs.Iter(i));
    }
    std::sort(iters.begin(), iters.end());
    Table probe;
    std::unordered_map<int64_t, std::vector<size_t>> probe_rows;
    if (join) {
      XRPC_ASSIGN_OR_RETURN(probe,
                            Eval(*xquery::JoinProbe(*head.plain), iters));
      probe_rows = GroupByIter(probe);
    }
    Table out;
    PollGate gate(cfg_.cancel);
    for (size_t i = 0; i < docs.NumRows(); ++i) {
      if (gate.Tick()) return gate.status();
      const int64_t iter = docs.Iter(i);
      const Entry& entry = *entries[i];
      std::span<const ExprPtr> preds;
      if (head.plain != nullptr) preds = head.plain->predicates;
      std::optional<std::vector<xml::Node*>> hits;
      if (!entry.join.empty()) {
        Sequence values;
        if (auto g = probe_rows.find(iter); g != probe_rows.end()) {
          for (size_t row : g->second) values.push_back(probe.ItemAt(row));
        }
        hits = entry.Probe(values);
        if (hits) preds = preds.subspan(1);
      }
      Sequence nodes = xquery::NodeItems(hits ? *hits : entry.nodes,
                                         docs.ItemAt(i).anchor());
      if (!preds.empty()) {
        XRPC_ASSIGN_OR_RETURN(
            nodes, FilterWithPredicates(std::move(nodes), preds, iter));
      }
      for (size_t k = 0; k < nodes.size(); ++k) {
        out.AppendIPI(iter, static_cast<int64_t>(k + 1), std::move(nodes[k]));
      }
    }
    return SortedByIter(out) ? std::move(out) : SortByIterPos(std::move(out));
  }

  StatusOr<Table> EvalStep(const Table& input, const PathStep& step) {
    Table expanded;
    bool single_row_iters = true;  // no iter contributed two context nodes
    PollGate gate(cfg_.cancel);
    Sequence nodes;
    for (size_t i = 0; i < input.NumRows(); ++i) {
      if (gate.Tick()) return gate.status();
      if (i > 0 && input.Iter(i) == input.Iter(i - 1)) {
        single_row_iters = false;
      }
      const Item& item = input.ItemAt(i);
      if (!item.IsNode()) {
        return Status::TypeError("path step applied to an atomic value");
      }
      nodes.clear();
      xquery::CollectAxis(item, step.axis, step.test, &nodes);
      // Per-context-node predicate application (with focus).
      if (!step.predicates.empty()) {
        XRPC_ASSIGN_OR_RETURN(
            nodes,
            FilterWithPredicates(std::move(nodes), step.predicates,
                                 input.Iter(i)));
      }
      for (size_t k = 0; k < nodes.size(); ++k) {
        expanded.AppendIPI(input.Iter(i), static_cast<int64_t>(k + 1),
                           std::move(nodes[k]));
      }
    }
    if (single_row_iters && SortedByIter(expanded) &&
        xquery::IsForwardAxis(step.axis)) {
      return expanded;  // already per-iter document order, duplicate-free
    }
    return DocOrderPerIter(std::move(expanded));
  }

  /// Applies predicates to a candidate node list by loop-lifting the
  /// predicate over the candidates: each candidate is one iteration, the
  /// context item/position/last become hidden variables, and the visible
  /// environment (bound in `enclosing_iter` of the outer loop) is remapped
  /// into the candidate loop so loop-dependent predicates such as
  /// [./buyer/@person = $pid] see the right binding per iteration.
  StatusOr<Sequence> FilterWithPredicates(
      Sequence candidates, std::span<const ExprPtr> predicates,
      int64_t enclosing_iter) {
    for (const ExprPtr& pred : predicates) {
      if (candidates.empty()) break;
      Loop cand_loop;
      Table dot;
      Table position;
      Table last;
      std::multimap<int64_t, int64_t> outer_to_cand;
      int64_t n = static_cast<int64_t>(candidates.size());
      for (int64_t i = 0; i < n; ++i) {
        int64_t iter = iter_base_ + i + 1;
        cand_loop.push_back(iter);
        outer_to_cand.emplace(enclosing_iter, iter);
        dot.AppendIPI(iter, 1, candidates[static_cast<size_t>(i)]);
        position.AppendIPI(iter, 1, Item(AtomicValue::Integer(i + 1)));
        last.AppendIPI(iter, 1, Item(AtomicValue::Integer(n)));
      }
      iter_base_ += n + 1;
      std::vector<std::pair<std::string, Table>> saved_env = std::move(env_);
      env_.clear();
      for (const auto& [name, table] : saved_env) {
        env_.emplace_back(name, MapIntoInner(table, outer_to_cand));
      }
      env_.emplace_back(kDotVar, std::move(dot));
      env_.emplace_back(kPositionVar, std::move(position));
      env_.emplace_back(kLastVar, std::move(last));
      const size_t pending_mark = pending_.size();
      auto value = Eval(*pred, cand_loop);
      env_ = std::move(saved_env);
      XRPC_RETURN_IF_ERROR(value.status());
      SortPending(pending_mark);  // candidates in order
      for (size_t r = pending_mark; r < pending_.size(); ++r) {
        pending_[r].iter = enclosing_iter;
      }
      auto groups = GroupByIter(value.value());
      Sequence kept;
      for (int64_t i = 0; i < n; ++i) {
        int64_t iter = cand_loop[static_cast<size_t>(i)];
        auto g = groups.find(iter);
        if (g == groups.end()) continue;
        Sequence v;
        for (size_t row : g->second) {
          v.push_back(value.value().ItemAt(row));
        }
        XRPC_ASSIGN_OR_RETURN(bool keep, xquery::PredicateTruth(v, i + 1));
        if (keep) kept.push_back(candidates[static_cast<size_t>(i)]);
      }
      candidates = std::move(kept);
    }
    return candidates;
  }

  StatusOr<Table> ApplyPredicates(Table in,
                                  const std::vector<ExprPtr>& predicates) {
    auto groups = GroupByIter(in);
    Table out;
    for (auto& [iter, rows] : groups) {
      Sequence seq;
      for (size_t row : rows) seq.push_back(in.TakeItemAt(row));
      XRPC_ASSIGN_OR_RETURN(
          seq, FilterWithPredicates(std::move(seq), predicates, iter));
      for (size_t i = 0; i < seq.size(); ++i) {
        out.AppendIPI(iter, static_cast<int64_t>(i + 1), std::move(seq[i]));
      }
    }
    return SortByIterPos(std::move(out));
  }

  // ------------------------------------------------------------ functions

  StatusOr<Table> EvalFunctionCall(const Expr& e, const Loop& loop);
  [[gnu::noinline]] StatusOr<Table> EvalBuiltinCall(const Expr& e,
                                                    const Loop& loop);
  /// Evaluates and coerces a user function's arguments under `loop` into a
  /// fresh frame (only parameters are visible in the body) and enters the
  /// function's module scope.
  [[gnu::noinline]] StatusOr<std::vector<std::pair<std::string, Table>>>
  EnterFunction(const xquery::FunctionDef& def,
                const xquery::LibraryModule* module, const Expr& call,
                const Loop& loop);

  // -------------------------------------------------------------- XRPC

  StatusOr<Table> EvalExecuteAt(const Expr& e, const Loop& loop);

  // -------------------------------------------------------- constructors

  StatusOr<Table> EvalConstructor(const Expr& e, const Loop& loop);

  LoopLiftConfig cfg_;
  std::vector<std::pair<std::string, Table>> env_;
  std::vector<Scope> scopes_;
  std::vector<BulkRpcTrace> traces_;
  std::unordered_map<const Expr*, bool> hoistable_;
  std::unordered_map<const Expr*, bool> joinable_;
  std::vector<PendingRow> pending_;
  int64_t iter_base_ = 1'000'000;  ///< fresh iteration number source
  int inline_depth_ = 0;
  /// Used when the configuration supplies no index or no counters.
  xquery::PathIndex own_index_;
  xquery::PathIndex::Counters own_counters_;
  xquery::PathIndex* path_index_ =
      cfg_.path_index != nullptr ? cfg_.path_index : &own_index_;
  xquery::PathIndex::Counters* counters_ =
      cfg_.index_counters != nullptr ? cfg_.index_counters : &own_counters_;
};

// ------------------------- function calls ---------------------------------

StatusOr<Table> LoopLiftedEvaluator::Impl::EvalFunctionCall(const Expr& e,
                                                            const Loop& loop) {
  // User-defined functions: inline-expand loop-lifted.
  const size_t arity = e.children.size();
  const xquery::LibraryModule* def_module = nullptr;
  const Scope& scope = scopes_.back();
  const xquery::FunctionDef* def = scope.prolog->FindFunction(e.name, arity);
  if (def == nullptr) {
    auto it = scope.imports_by_ns.find(e.name.ns_uri);
    if (it != scope.imports_by_ns.end()) {
      def = it->second->prolog.FindFunction(e.name, arity);
      def_module = it->second;
    }
  }
  if (def != nullptr) {
    // Each level of recursion runs on the sub-loop of the iterations that
    // reach the call, so the loops shrink as the recursion deepens.
    if (inline_depth_ >= xquery::kMaxCallDepth) {
      return xquery::RecursionLimitExceeded();
    }
    ++inline_depth_;
    const size_t scope_mark = scopes_.size();
    auto frame = EnterFunction(*def, def_module, e, loop);
    if (!frame.ok()) {
      --inline_depth_;
      return frame.status();
    }
    frame->swap(env_);
    auto result = Eval(*def->body, loop);
    env_ = std::move(frame).value();
    scopes_.resize(scope_mark);
    --inline_depth_;
    return result;
  }
  return EvalBuiltinCall(e, loop);
}

StatusOr<Table> LoopLiftedEvaluator::Impl::EvalBuiltinCall(const Expr& e,
                                                           const Loop& loop) {
  XRPC_ASSIGN_OR_RETURN(std::vector<Table> args, EvalArgs(e.children, loop));
  XRPC_ASSIGN_OR_RETURN(const xquery::Builtin* builtin,
                        xquery::FindBuiltin(e.name, e.children.size()));
  return PerIteration(
      loop, std::move(args), builtin->focus && e.children.empty(),
      [&](std::vector<Sequence>& a, const xquery::FunctionContext& ctx) {
        return (*builtin)(e.name, a, ctx);
      });
}

StatusOr<std::vector<std::pair<std::string, Table>>>
LoopLiftedEvaluator::Impl::EnterFunction(const xquery::FunctionDef& def,
                                         const xquery::LibraryModule* module,
                                         const Expr& call, const Loop& loop) {
  XRPC_ASSIGN_OR_RETURN(std::vector<Table> args,
                        EvalArgs(call.children, loop));
  // A fresh frame: only parameters are visible inside the body.
  std::vector<std::pair<std::string, Table>> frame;
  for (size_t i = 0; i < args.size(); ++i) {
    XRPC_ASSIGN_OR_RETURN(
        Table coerced, CoerceParam(std::move(args[i]), def.params[i].type, loop));
    frame.emplace_back(def.params[i].name.Clark(), std::move(coerced));
  }
  if (module != nullptr) {
    XRPC_ASSIGN_OR_RETURN(Scope scope,
                          BuildScope(&module->prolog, module->target_ns));
    scopes_.push_back(std::move(scope));
  }
  return frame;
}

// ------------------------- execute at (Figure 2) ---------------------------

StatusOr<Table> LoopLiftedEvaluator::Impl::EvalExecuteAt(const Expr& e,
                                                         const Loop& loop) {
  if (cfg_.rpc == nullptr) {
    return Status::EvalError("no Bulk RPC channel configured");
  }
  // dst: iter|pos|item (one destination string per iteration).
  XRPC_ASSIGN_OR_RETURN(Table dst, Eval(*e.children[0], loop));
  XRPC_ASSIGN_OR_RETURN(auto dst_map, AtomizedSingletons(dst, "execute at"));

  // Parameter tables under the same loop.
  std::vector<Table> params;
  for (size_t i = 1; i < e.children.size(); ++i) {
    XRPC_ASSIGN_OR_RETURN(Table p, Eval(*e.children[i], loop));
    params.push_back(SortByIterPos(std::move(p)));
  }
  size_t arity = params.size();

  // Module metadata for the request.
  const Scope& scope = scopes_.back();
  std::string location;
  auto loc = scope.location_by_ns.find(e.name.ns_uri);
  if (loc != scope.location_by_ns.end()) location = loc->second;
  bool updating = false;
  auto imp = scope.imports_by_ns.find(e.name.ns_uri);
  if (imp != scope.imports_by_ns.end()) {
    const xquery::FunctionDef* def =
        imp->second->FindFunction(e.name, arity);
    if (def != nullptr) updating = def->updating;
  }

  // One logical call per iteration: its destination and its parameter
  // sequences. The router (server::RpcClient::ExecuteRouted) decomposes
  // "shard:<collection>" destinations against the catalog, groups the
  // calls into one Bulk RPC request per peer or shard (δ on dst.item in
  // first-appearance order), dispatches them, and re-routes reads once on
  // a StaleCatalog fence (DESIGN.md §13-14).
  auto param_groups =
      std::vector<std::unordered_map<int64_t, std::vector<size_t>>>();
  for (const Table& p : params) param_groups.push_back(GroupByIter(p));
  std::vector<server::RpcClient::RoutedCall> calls;
  calls.reserve(loop.size());
  for (int64_t iter : loop) {
    auto d = dst_map.find(iter);
    if (d == dst_map.end()) {
      return Status::EvalError("execute at: empty destination in iteration " +
                               std::to_string(iter));
    }
    server::RpcClient::RoutedCall call;
    call.dest_uri = d->second.ToString();
    for (size_t p = 0; p < arity; ++p) {
      Sequence param;
      auto g = param_groups[p].find(iter);
      if (g != param_groups[p].end()) {
        for (size_t row : g->second) param.push_back(params[p].TakeItemAt(row));
      }
      call.args.push_back(std::move(param));
    }
    calls.push_back(std::move(call));
  }
  soap::XrpcRequest header;
  header.module_ns = e.name.ns_uri;
  header.method = e.name.local;
  header.location = location;
  header.arity = arity;
  header.updating = updating;
  XRPC_ASSIGN_OR_RETURN(std::vector<server::RpcClient::RoutedGroup> groups,
                        cfg_.rpc->ExecuteRouted(header, calls));

  // Traces present iterations as their rank within this loop scope
  // (1..n), matching Figure 1's presentation; per group, the map table
  // iter<->iterp (ρ renumbering, iterp = slot + 1) and the per-param
  // request tables req_p^i.
  BulkRpcTrace trace;
  std::map<int64_t, int64_t> trace_rank;
  auto normalize = [&trace_rank](const Table& t) {
    Table out;
    for (size_t i = 0; i < t.NumRows(); ++i) {
      auto r = trace_rank.find(t.Iter(i));
      out.AppendIPI(r == trace_rank.end() ? t.Iter(i) : r->second, t.Pos(i),
                    t.ItemAt(i));
    }
    return out;
  };
  if (cfg_.trace_bulk_rpc) {
    for (size_t i = 0; i < loop.size(); ++i) {
      trace_rank[loop[i]] = static_cast<int64_t>(i + 1);
    }
    trace.dst = normalize(dst);
    for (const server::RpcClient::RoutedGroup& group : groups) {
      BulkRpcTrace::PerPeer tp;
      tp.peer = group.peer;
      tp.req.resize(arity);
      for (size_t k = 0; k < group.slots.size(); ++k) {
        const int64_t iterp = static_cast<int64_t>(k + 1);
        const server::RpcClient::RoutedCall& call = calls[group.slots[k].call];
        for (size_t p = 0; p < arity; ++p) {
          for (size_t j = 0; j < call.args[p].size(); ++j) {
            tp.req[p].AppendIPI(iterp, static_cast<int64_t>(j + 1),
                                call.args[p][j]);
          }
        }
        tp.map.emplace_back(trace_rank[loop[group.slots[k].call]], iterp);
      }
      trace.peers.push_back(std::move(tp));
    }
  }

  // Map iterp back to iter, bucket each call's sequence by its shard
  // rank, and recombine with the order-preserving scatter-gather merge:
  // within each iteration, rank order then per-call sequence order, pos
  // renumbered densely, whole table sorted by iter. For plain (unsharded)
  // destinations every call has rank 0 and this degenerates to the
  // original merge-union + sort of Figure 2, byte for byte.
  int max_rank = 0;
  for (const server::RpcClient::RoutedGroup& group : groups) {
    for (const server::RpcClient::Slot& slot : group.slots) {
      max_rank = std::max(max_rank, slot.rank);
    }
  }
  std::vector<Table> shard_sources(static_cast<size_t>(max_rank) + 1);
  for (size_t w = 0; w < groups.size(); ++w) {
    // A replica echo of an all-copies write answered (and is enlisted in
    // the 2PC); only the primary's results feed the merge.
    if (groups[w].echo) continue;
    std::vector<Sequence>& results = groups[w].response.results;
    for (size_t k = 0; k < results.size(); ++k) {
      const server::RpcClient::Slot& slot = groups[w].slots[k];
      const int64_t iter = loop[slot.call];
      Sequence& seq = results[k];
      if (cfg_.trace_bulk_rpc) {
        for (size_t i = 0; i < seq.size(); ++i) {
          trace.peers[w].msg.AppendIPI(static_cast<int64_t>(k + 1),
                                       static_cast<int64_t>(i + 1), seq[i]);
          trace.peers[w].res.AppendIPI(trace_rank[iter],
                                       static_cast<int64_t>(i + 1), seq[i]);
        }
      }
      for (size_t i = 0; i < seq.size(); ++i) {
        shard_sources[static_cast<size_t>(slot.rank)].AppendIPI(
            iter, static_cast<int64_t>(i + 1), std::move(seq[i]));
      }
    }
  }
  Table result = algebra::ScatterGatherMerge(std::move(shard_sources));
  if (cfg_.trace_bulk_rpc) {
    for (auto& tp : trace.peers) {
      tp.msg = SortByIterPos(std::move(tp.msg));
      tp.res = SortByIterPos(std::move(tp.res));
    }
    trace.result = normalize(result);
    traces_.push_back(std::move(trace));
  }
  return result;
}

// ------------------------- constructors ------------------------------------

StatusOr<Table> LoopLiftedEvaluator::Impl::EvalConstructor(const Expr& e,
                                                           const Loop& loop) {
  // Operands evaluate loop-lifted; nodes are built once per iteration.
  XRPC_ASSIGN_OR_RETURN(std::vector<Table> args,
                        EvalArgs(xquery::ConstructorOperands(e), loop));
  return PerIteration(
      loop, std::move(args), false,
      [&e](std::vector<Sequence>& a, const xquery::FunctionContext&) {
        return xquery::Construct(e, a);
      });
}

// ===========================================================================

LoopLiftedEvaluator::LoopLiftedEvaluator(const LoopLiftConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

LoopLiftedEvaluator::~LoopLiftedEvaluator() = default;

StatusOr<xquery::QueryResult> LoopLiftedEvaluator::EvaluateQuery(
    const xquery::MainModule& query) {
  return impl_->EvaluateQuery(query);
}

StatusOr<std::vector<xquery::QueryResult>>
LoopLiftedEvaluator::EvaluateFunctionBulk(
    const xquery::LibraryModule& module, const xquery::FunctionDef& def,
    std::vector<algebra::Table> args, int64_t num_calls) {
  return impl_->EvaluateFunctionBulk(module, def, std::move(args), num_calls);
}

const std::vector<BulkRpcTrace>& LoopLiftedEvaluator::traces() const {
  return impl_->traces();
}

std::string BulkRpcTrace::PerPeer::MapToString() const {
  std::string out = "iter | iterp\n";
  for (const auto& [iter, iterp] : map) {
    out += std::to_string(iter) + " | " + std::to_string(iterp) + "\n";
  }
  return out;
}

}  // namespace xrpc::compiler
