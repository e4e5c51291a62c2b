#include "compiler/loop_lift.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>

#include "xquery/functions.h"

namespace xrpc::compiler {

namespace {

using algebra::Cell;
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
// variables (including the hidden focus) and constructs no nodes (node
// constructors must mint fresh identities per iteration).

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
      if (e.name.ns_uri != xquery::kFnNs && e.name.ns_uri != xml::kXsNs) {
        *blocks = true;  // user function bodies are opaque here
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
      Expr shallow(e.kind);  // visit the non-clause parts under `inner`
      if (e.where) {
        CollectHoistInfo(*e.where, &inner, has_free, blocks, has_rpc);
      }
      for (const xquery::OrderSpec& o : e.order_by) {
        if (o.key) CollectHoistInfo(*o.key, &inner, has_free, blocks, has_rpc);
      }
      if (e.ret) CollectHoistInfo(*e.ret, &inner, has_free, blocks, has_rpc);
      (void)shallow;
      return;
    }
    default:
      CollectChildHoistInfo(e, bound, has_free, blocks, has_rpc);
      return;
  }
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
  std::set<std::string> bound;
  bool has_free = false, blocks = false, has_rpc = false;
  CollectHoistInfo(e, &bound, &has_free, &blocks, &has_rpc);
  return !has_free && !blocks && !has_rpc;
}

/// Loop-invariance for the hash-join binding: the join evaluates the
/// build side once, which is sound for remote calls too (they are pure
/// reads under the join rewrite, as in any distributed query optimizer).
bool IsJoinInvariant(const Expr& e) {
  std::set<std::string> bound;
  bool has_free = false, blocks = false, has_rpc = false;
  CollectHoistInfo(e, &bound, &has_free, &blocks, &has_rpc);
  return !has_free && !blocks;
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

/// Sorts an iter|pos|item table by (iter, pos).
Table SortIPI(const Table& t) {
  auto sorted = algebra::SortBy(t, {"iter", "pos"});
  return sorted.ok() ? std::move(sorted).value() : t;
}

bool SortedByIterPos(const Table& t) {
  for (size_t i = 1; i < t.NumRows(); ++i) {
    if (t.Iter(i) != t.Iter(i - 1) ? t.Iter(i) < t.Iter(i - 1)
                                   : t.Pos(i) < t.Pos(i - 1)) {
      return false;
    }
  }
  return true;
}

/// Consumes an iter|pos|item table one iteration at a time, each
/// iteration's items in pos order, moving them out of the table. Visiting
/// iterations in ascending order (as loops are) walks the table once.
class IterCursor {
 public:
  explicit IterCursor(Table t)
      : table_(SortedByIterPos(t) ? std::move(t) : SortIPI(t)) {}

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

Table SequenceToTable(const Sequence& seq, int64_t iter) {
  Table t = Table::IterPosItem();
  for (size_t i = 0; i < seq.size(); ++i) {
    t.AppendIPI(iter, static_cast<int64_t>(i + 1), seq[i]);
  }
  return t;
}

Sequence TableToSequence(const Table& table, int64_t iter) {
  std::vector<std::pair<int64_t, Item>> rows;
  for (size_t i = 0; i < table.NumRows(); ++i) {
    if (table.Iter(i) == iter) rows.emplace_back(table.Pos(i), table.ItemAt(i));
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  Sequence out;
  out.reserve(rows.size());
  for (auto& [pos, item] : rows) out.push_back(std::move(item));
  return out;
}

// ===========================================================================

class LoopLiftedEvaluator::Impl {
 public:
  explicit Impl(const LoopLiftConfig& config) : cfg_(config) {}

  StatusOr<Sequence> EvaluateQuery(const xquery::MainModule& query) {
    XRPC_ASSIGN_OR_RETURN(Scope scope, BuildScope(&query.prolog, ""));
    scopes_.push_back(std::move(scope));
    Loop loop{1};
    for (const auto& [name, init] : query.prolog.variables) {
      XRPC_ASSIGN_OR_RETURN(Table v, Eval(*init, loop));
      env_.emplace_back(name.Clark(), std::move(v));
    }
    XRPC_ASSIGN_OR_RETURN(Table result, Eval(*query.body, loop));
    return TableToSequence(SortIPI(result), 1);
  }

  StatusOr<Table> EvaluateFunctionBulk(const xquery::LibraryModule& module,
                                       const xquery::FunctionDef& def,
                                       const std::vector<Table>& args,
                                       int64_t num_calls) {
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
      XRPC_ASSIGN_OR_RETURN(Table coerced,
                            CoerceParam(args[p], def.params[p].type, loop));
      env_.emplace_back(def.params[p].name.Clark(), std::move(coerced));
    }
    auto result = Eval(*def.body, loop);
    env_.resize(env_mark);
    scopes_.pop_back();
    if (!result.ok()) return result.status();
    return SortIPI(result.value());
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

  StatusOr<std::vector<Table>> EvalArgs(const std::vector<ExprPtr>& exprs,
                                        const Loop& loop) {
    std::vector<Table> out;
    out.reserve(exprs.size());
    for (const ExprPtr& x : exprs) {
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
  /// to the hidden focus variables in that iteration.
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
    xquery::FunctionContext ctx;
    ctx.documents = cfg_.documents;
    Table out = Table::IterPosItem();
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

  /// Operators and type expressions: operands evaluate loop-lifted, the
  /// operator itself applies per iteration.
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
    Table out = Table::IterPosItem();
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

  StatusOr<Table> Eval(const Expr& e, const Loop& loop) {
    if (cfg_.cancel != nullptr) {
      // Set-oriented plans batch whole loops into single operators, so the
      // per-dispatch poll here is the finest boundary this engine has; it
      // is checked BEFORE the empty-loop shortcut so even degenerate plans
      // observe a tripped deadline.
      XRPC_RETURN_IF_ERROR(cfg_.cancel->CheckCancelled());
    }
    if (loop.empty()) return Table::IterPosItem();
    // Loop-invariant hoisting: evaluate once, broadcast over the loop.
    if (cfg_.enable_hoisting && loop.size() > 1) {
      auto cached = hoistable_.find(&e);
      bool hoistable = cached != hoistable_.end() ? cached->second
                                                  : (hoistable_[&e] = IsHoistable(e));
      if (hoistable) {
        XRPC_ASSIGN_OR_RETURN(Table once, Eval(e, Loop{loop.front()}));
        Table out = Table::IterPosItem();
        for (int64_t iter : loop) {
          for (size_t i = 0; i < once.NumRows(); ++i) {
            out.AppendIPI(iter, once.Pos(i), once.ItemAt(i));
          }
        }
        return out;
      }
    }
    switch (e.kind) {
      case ExprKind::kLiteral: {
        Table t = Table::IterPosItem();
        for (int64_t iter : loop) t.AppendIPI(iter, 1, Item(e.literal));
        return t;
      }
      case ExprKind::kSequence:
        return EvalSequence(e, loop);
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
        return Status::Unsupported(
            "updating expressions run on the update path, not the "
            "loop-lifted relational engine");
    }
    return Status::Internal("unhandled expression kind");
  }

  // ----------------------------------------------------------- structures

  StatusOr<Table> EvalSequence(const Expr& e, const Loop& loop) {
    // (e1, ..., en): per iter, concatenate branch results in order.
    std::vector<Table> parts;
    parts.reserve(e.children.size());
    for (const ExprPtr& c : e.children) {
      XRPC_ASSIGN_OR_RETURN(Table t, Eval(*c, loop));
      parts.push_back(SortIPI(t));
    }
    Table out = Table::IterPosItem();
    for (int64_t iter : loop) {
      int64_t pos = 0;
      for (const Table& part : parts) {
        for (size_t i = 0; i < part.NumRows(); ++i) {
          if (part.Iter(i) == iter) out.AppendIPI(iter, ++pos, part.ItemAt(i));
        }
      }
    }
    return out;
  }

  /// Remaps a value table through an outer->inner iteration map, yielding
  /// the table keyed by inner iters ("loop-lifting" a live variable into a
  /// deeper scope).
  Table MapIntoInner(const Table& t,
                     const std::multimap<int64_t, int64_t>& outer_to_inner) {
    Table out = Table::IterPosItem();
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
    Table out = Table::IterPosItem();
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
    auto cached = join_invariant_.find(c.expr.get());
    bool invariant =
        cached != join_invariant_.end()
            ? cached->second
            : (join_invariant_[c.expr.get()] = IsJoinInvariant(*c.expr));
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
    Table yvar = Table::IterPosItem();
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
    Table var_table = Table::IterPosItem();
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
        env_.emplace_back(c.var.Clark(), SortIPI(bound.value()));
        continue;
      }
      // for $v in t: every row of t becomes a new iteration.
      Table t = SortIPI(bound.value());
      std::vector<std::pair<int64_t, int64_t>> old_to_new;  // sorted by old
      Table var_table = Table::IterPosItem();
      Table pos_table = Table::IterPosItem();
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
        var_table.AppendIPI(new_iter, 1, t.ItemAt(i));
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
    ret = SortIPI(ret);
    auto groups = GroupByIter(ret);
    Table out = Table::IterPosItem();
    std::map<int64_t, int64_t> out_pos;
    for (int64_t iter : ordered_iters) {
      auto g = groups.find(iter);
      if (g == groups.end()) continue;
      int64_t outer = inner_to_outer[iter];
      for (size_t row : g->second) {
        out.AppendIPI(outer, ++out_pos[outer], ret.ItemAt(row));
      }
    }
    return SortIPI(out);
  }

  StatusOr<Table> EvalIf(const Expr& e, const Loop& loop) {
    XRPC_ASSIGN_OR_RETURN(auto cond, EvalBool(*e.children[0], loop));
    Loop then_loop, else_loop;
    for (int64_t iter : loop) {
      auto it = cond.find(iter);
      (it != cond.end() && it->second ? then_loop : else_loop).push_back(iter);
    }
    Table out = Table::IterPosItem();
    if (!then_loop.empty()) {
      XRPC_ASSIGN_OR_RETURN(Table t, Eval(*e.children[1], then_loop));
      XRPC_ASSIGN_OR_RETURN(out, algebra::DisjointUnion(out, t));
    }
    if (!else_loop.empty()) {
      XRPC_ASSIGN_OR_RETURN(Table t, Eval(*e.children[2], else_loop));
      XRPC_ASSIGN_OR_RETURN(out, algebra::DisjointUnion(out, t));
    }
    return SortIPI(out);
  }

  StatusOr<Table> EvalQuantified(const Expr& e, const Loop& loop) {
    // some $v in E satisfies P / every ...: bind clauses like EvalFlwor
    // does, evaluate P per inner iteration, aggregate per outer iter.
    Loop cur_loop = loop;
    std::map<int64_t, int64_t> inner_to_outer;
    for (int64_t iter : loop) inner_to_outer[iter] = iter;
    size_t env_mark = env_.size();
    std::vector<std::pair<std::string, Table>> saved_env = env_;

    Status st = Status::OK();
    for (const FlworClause& c : e.clauses) {
      auto bound = Eval(*c.expr, cur_loop);
      if (!bound.ok()) {
        st = bound.status();
        break;
      }
      Table t = SortIPI(bound.value());
      std::multimap<int64_t, int64_t> old_to_new;
      std::map<int64_t, int64_t> new_to_old;
      Table var_table = Table::IterPosItem();
      Loop new_loop;
      for (size_t i = 0; i < t.NumRows(); ++i) {
        int64_t new_iter = static_cast<int64_t>(i + 1) + iter_base_;
        old_to_new.emplace(t.Iter(i), new_iter);
        new_to_old[new_iter] = t.Iter(i);
        new_loop.push_back(new_iter);
        var_table.AppendIPI(new_iter, 1, t.ItemAt(i));
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
      inner_to_outer = std::move(composed);
      cur_loop = std::move(new_loop);
    }
    std::map<int64_t, bool> verdict;
    if (st.ok()) {
      auto cond = EvalBool(*e.ret, cur_loop);
      if (!cond.ok()) {
        st = cond.status();
      } else {
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
    Table out = Table::IterPosItem();
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
    Table out = Table::IterPosItem();
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
        for (size_t row : g->second) seq.push_back(t.ItemAt(row));
        XRPC_ASSIGN_OR_RETURN(b, xdm::EffectiveBooleanValue(seq));
      }
      out[iter] = b;
    }
    return out;
  }

  StatusOr<Table> EvalUnion(const Expr& e, const Loop& loop) {
    XRPC_ASSIGN_OR_RETURN(Table l, Eval(*e.children[0], loop));
    XRPC_ASSIGN_OR_RETURN(Table r, Eval(*e.children[1], loop));
    XRPC_ASSIGN_OR_RETURN(Table both, algebra::DisjointUnion(l, r));
    return DocOrderPerIter(both);
  }

  /// Sorts node rows per iter into document order, deduplicates, and
  /// renumbers pos.
  StatusOr<Table> DocOrderPerIter(const Table& t_in) {
    Table sorted;
    const Table* t = &t_in;
    if (!SortedByIter(t_in)) {
      sorted = SortIPI(t_in);
      t = &sorted;
    }
    Table out = Table::IterPosItem();
    PollGate gate(cfg_.cancel);
    Sequence seq;
    const size_t end = t->NumRows();
    size_t i = 0;
    while (i < end) {
      if (gate.Tick()) return gate.status();
      int64_t iter = t->Iter(i);
      seq.clear();
      for (; i < end && t->Iter(i) == iter; ++i) {
        seq.push_back(t->ItemAt(i));
      }
      if (seq.size() == 1) {
        if (!seq[0].IsNode()) {
          return Status::TypeError(
              "path step result contains an atomic value (XPTY0018)");
        }
        out.AppendIPI(iter, 1, seq[0]);
        continue;
      }
      XRPC_RETURN_IF_ERROR(xdm::SortByDocumentOrder(&seq));
      for (size_t k = 0; k < seq.size(); ++k) {
        out.AppendIPI(iter, static_cast<int64_t>(k + 1), seq[k]);
      }
    }
    return out;
  }

  // ----------------------------------------------------------------- paths

  StatusOr<Table> EvalPath(const Expr& e, const Loop& loop) {
    Table input = Table::IterPosItem();
    if (e.children[0] != nullptr) {
      XRPC_ASSIGN_OR_RETURN(input, Eval(*e.children[0], loop));
    } else {
      XRPC_ASSIGN_OR_RETURN(const Table* dot, LookupVar(kDotVar));
      input = RestrictToLoop(*dot, loop);
      if (e.root_path) {
        Table roots = Table::IterPosItem();
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
    for (const PathStep& step : e.steps) {
      XRPC_ASSIGN_OR_RETURN(input, EvalStep(input, step));
    }
    return input;
  }

  StatusOr<Table> EvalStep(const Table& input, const PathStep& step) {
    Table expanded = Table::IterPosItem();
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
      CollectAxis(item, step, &nodes);
      // Per-context-node predicate application (with focus).
      if (!step.predicates.empty()) {
        XRPC_ASSIGN_OR_RETURN(
            nodes,
            FilterWithPredicates(std::move(nodes), step.predicates,
                                 input.Iter(i)));
      }
      for (size_t k = 0; k < nodes.size(); ++k) {
        expanded.AppendIPI(input.Iter(i), static_cast<int64_t>(k + 1),
                           nodes[k]);
      }
    }
    if (single_row_iters && SortedByIter(expanded) &&
        xquery::IsForwardAxis(step.axis)) {
      return expanded;  // already per-iter document order, duplicate-free
    }
    return DocOrderPerIter(expanded);
  }

  /// Axis navigation: the descendant axes go through the shredded
  /// pre/size/level tables (staircase scans); the remaining axes use the
  /// DOM pointers. A child step reads only the node's own children, so
  /// shredding (and caching) the whole tree for it would cost more than
  /// it saves — and would retain every result tree p0 ever navigates.
  void CollectAxis(const Item& item, const PathStep& step, Sequence* out) {
    Node* n = item.node();
    const NodePtr& anchor = item.anchor();
    const NodeTest& test = step.test;

    auto name_test_only = test.kind == NodeTest::Kind::kName && !test.wildcard;

    if ((step.axis == Axis::kDescendant ||
         step.axis == Axis::kDescendantOrSelf) &&
        (name_test_only || (test.kind == NodeTest::Kind::kName && test.wildcard) ||
         test.kind == NodeTest::Kind::kElement) &&
        cfg_.shreds != nullptr) {
      // Shredded fast path (elements only — which is what a name test
      // selects on these axes).
      auto shredded = cfg_.shreds->GetOrShred(
          n->Root() == anchor.get() ? anchor : n->Root()->shared_from_this());
      int32_t pre = shredded->PreOf(n);
      if (pre >= 0) {
        int32_t name_id = name_test_only ? shredded->NameId(test.name) : -1;
        if (name_test_only && name_id < 0) return;  // name never occurs
        std::vector<int32_t> pres = shredded->DescendantElements(pre, name_id);
        if (step.axis == Axis::kDescendantOrSelf) {
          const auto& row = shredded->Row(pre);
          bool self_matches = row.kind == NodeKind::kElement &&
                              (name_id < 0 || row.name_id == name_id);
          if (self_matches) pres.insert(pres.begin(), pre);
        }
        for (int32_t p : pres) {
          out->push_back(Item::NodeInTree(shredded->Row(p).dom, anchor));
        }
        return;
      }
    }

    xquery::CollectAxis(item, step.axis, test, out);
  }

  /// Applies predicates to a candidate node list by loop-lifting the
  /// predicate over the candidates: each candidate is one iteration, the
  /// context item/position/last become hidden variables, and the visible
  /// environment (bound in `enclosing_iter` of the outer loop) is remapped
  /// into the candidate loop so loop-dependent predicates such as
  /// [./buyer/@person = $pid] see the right binding per iteration.
  StatusOr<Sequence> FilterWithPredicates(
      Sequence candidates, const std::vector<ExprPtr>& predicates,
      int64_t enclosing_iter) {
    for (const ExprPtr& pred : predicates) {
      if (candidates.empty()) break;
      Loop cand_loop;
      Table dot = Table::IterPosItem();
      Table position = Table::IterPosItem();
      Table last = Table::IterPosItem();
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
      auto value = Eval(*pred, cand_loop);
      env_ = std::move(saved_env);
      XRPC_RETURN_IF_ERROR(value.status());
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
    Table out = Table::IterPosItem();
    for (auto& [iter, rows] : groups) {
      Sequence seq;
      for (size_t row : rows) seq.push_back(in.ItemAt(row));
      XRPC_ASSIGN_OR_RETURN(seq, FilterWithPredicates(seq, predicates, iter));
      for (size_t i = 0; i < seq.size(); ++i) {
        out.AppendIPI(iter, static_cast<int64_t>(i + 1), seq[i]);
      }
    }
    return SortIPI(out);
  }

  // ------------------------------------------------------------ functions

  StatusOr<Table> EvalFunctionCall(const Expr& e, const Loop& loop);
  StatusOr<Table> InlineUserFunction(const xquery::FunctionDef& def,
                                     const xquery::LibraryModule* module,
                                     const Expr& call, const Loop& loop);

  // -------------------------------------------------------------- XRPC

  StatusOr<Table> EvalExecuteAt(const Expr& e, const Loop& loop);

  // -------------------------------------------------------- constructors

  StatusOr<Table> EvalConstructor(const Expr& e, const Loop& loop);

  LoopLiftConfig cfg_;
  std::vector<std::pair<std::string, Table>> env_;
  std::vector<Scope> scopes_;
  std::vector<BulkRpcTrace> traces_;
  std::unordered_map<const Expr*, bool> hoistable_;
  std::unordered_map<const Expr*, bool> join_invariant_;
  int64_t iter_base_ = 1'000'000;  ///< fresh iteration number source
  int inline_depth_ = 0;
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
    if (def->updating) {
      return Status::Unsupported("updating function on the relational path");
    }
    if (inline_depth_ >= cfg_.max_inline_depth) {
      return Status::Unsupported(
          "recursion beyond inline depth on the relational path");
    }
    ++inline_depth_;
    auto result = InlineUserFunction(*def, def_module, e, loop);
    --inline_depth_;
    return result;
  }

  XRPC_ASSIGN_OR_RETURN(std::vector<Table> args, EvalArgs(e.children, loop));
  XRPC_ASSIGN_OR_RETURN(const xquery::Builtin* builtin,
                        xquery::FindBuiltin(e.name, arity));
  return PerIteration(
      loop, std::move(args), builtin->focus && arity == 0,
      [&](std::vector<Sequence>& a, const xquery::FunctionContext& ctx) {
        return (*builtin)(e.name, a, ctx);
      });
}

StatusOr<Table> LoopLiftedEvaluator::Impl::InlineUserFunction(
    const xquery::FunctionDef& def, const xquery::LibraryModule* module,
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
  const size_t scope_mark = scopes_.size();
  if (module != nullptr) {
    XRPC_ASSIGN_OR_RETURN(Scope scope,
                          BuildScope(&module->prolog, module->target_ns));
    scopes_.push_back(std::move(scope));
  }
  frame.swap(env_);
  auto result = Eval(*def.body, loop);
  env_ = std::move(frame);
  scopes_.resize(scope_mark);
  return result;
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
    params.push_back(SortIPI(p));
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
        for (size_t row : g->second) param.push_back(params[p].ItemAt(row));
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
    Table out = Table::IterPosItem();
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
      tp.map = algebra::LiteralTable({"iter", "iterp"}, {});
      tp.req.resize(arity, Table::IterPosItem());
      for (size_t k = 0; k < group.slots.size(); ++k) {
        const int64_t iterp = static_cast<int64_t>(k + 1);
        const server::RpcClient::RoutedCall& call = calls[group.slots[k].call];
        for (size_t p = 0; p < arity; ++p) {
          for (size_t j = 0; j < call.args[p].size(); ++j) {
            tp.req[p].AppendIPI(iterp, static_cast<int64_t>(j + 1),
                                call.args[p][j]);
          }
        }
        tp.map.AppendRow({Cell::Int(trace_rank[loop[group.slots[k].call]]),
                          Cell::Int(iterp)});
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
  std::vector<Table> shard_sources(static_cast<size_t>(max_rank) + 1,
                                   Table::IterPosItem());
  for (size_t w = 0; w < groups.size(); ++w) {
    // A replica echo of an all-copies write answered (and is enlisted in
    // the 2PC); only the primary's results feed the merge.
    if (groups[w].echo) continue;
    const std::vector<Sequence>& results = groups[w].response.results;
    for (size_t k = 0; k < results.size(); ++k) {
      const server::RpcClient::Slot& slot = groups[w].slots[k];
      const int64_t iter = loop[slot.call];
      const Sequence& seq = results[k];
      for (size_t i = 0; i < seq.size(); ++i) {
        shard_sources[static_cast<size_t>(slot.rank)].AppendIPI(
            iter, static_cast<int64_t>(i + 1), seq[i]);
      }
      if (cfg_.trace_bulk_rpc) {
        for (size_t i = 0; i < seq.size(); ++i) {
          trace.peers[w].msg.AppendIPI(static_cast<int64_t>(k + 1),
                                       static_cast<int64_t>(i + 1), seq[i]);
          trace.peers[w].res.AppendIPI(trace_rank[iter],
                                       static_cast<int64_t>(i + 1), seq[i]);
        }
      }
    }
  }
  Table result = algebra::ScatterGatherMerge(shard_sources);
  if (cfg_.trace_bulk_rpc) {
    for (auto& tp : trace.peers) {
      tp.msg = SortIPI(tp.msg);
      tp.res = SortIPI(tp.res);
    }
    trace.result = normalize(result);
    traces_.push_back(std::move(trace));
  }
  return result;
}

// ------------------------- constructors ------------------------------------

StatusOr<Table> LoopLiftedEvaluator::Impl::EvalConstructor(const Expr& e,
                                                           const Loop& loop) {
  // Content tables are evaluated loop-lifted; node assembly is per iter.
  switch (e.kind) {
    case ExprKind::kElementCtor: {
      std::map<int64_t, xml::QName> names;
      if (e.name_expr != nullptr) {
        XRPC_ASSIGN_OR_RETURN(Table nt, Eval(*e.name_expr, loop));
        XRPC_ASSIGN_OR_RETURN(auto nm, AtomizedSingletons(nt, "element name"));
        for (auto& [iter, v] : nm) names[iter] = xml::QName(v.ToString());
      }
      // Attribute value tables.
      struct AttrWork {
        const Expr* attr;
        std::vector<Table> parts;
      };
      std::vector<AttrWork> attrs;
      for (const ExprPtr& a : e.attributes) {
        AttrWork w;
        w.attr = a.get();
        for (const ExprPtr& c : a->children) {
          XRPC_ASSIGN_OR_RETURN(Table t, Eval(*c, loop));
          w.parts.push_back(SortIPI(t));
        }
        attrs.push_back(std::move(w));
      }
      // Content tables.
      std::vector<std::pair<const Expr*, Table>> content;
      for (const ExprPtr& c : e.children) {
        if (c->kind == ExprKind::kTextCtor && c->children.empty()) {
          content.emplace_back(c.get(), Table::IterPosItem());  // literal text
          continue;
        }
        XRPC_ASSIGN_OR_RETURN(Table t, Eval(*c, loop));
        content.emplace_back(c.get(), SortIPI(t));
      }
      Table out = Table::IterPosItem();
      for (int64_t iter : loop) {
        xml::QName name = e.name;
        auto ni = names.find(iter);
        if (ni != names.end()) name = ni->second;
        NodePtr elem = Node::NewElement(name);
        for (const AttrWork& w : attrs) {
          std::string value;
          bool first_enclosed = true;
          for (size_t p = 0; p < w.parts.size(); ++p) {
            const Expr* part_expr = w.attr->children[p].get();
            if (part_expr->kind == ExprKind::kLiteral) {
              value += part_expr->literal.ToString();
              continue;
            }
            (void)first_enclosed;
            bool first = true;
            for (size_t row = 0; row < w.parts[p].NumRows(); ++row) {
              if (w.parts[p].Iter(row) != iter) continue;
              if (!first) value += " ";
              value += w.parts[p].ItemAt(row).StringValue();
              first = false;
            }
          }
          elem->SetAttribute(Node::NewAttribute(w.attr->name, value));
        }
        for (auto& [expr, table] : content) {
          if (expr->kind == ExprKind::kTextCtor && expr->children.empty()) {
            elem->AppendChild(Node::NewText(expr->literal.ToString()));
            continue;
          }
          Sequence items;
          for (size_t row = 0; row < table.NumRows(); ++row) {
            if (table.Iter(row) == iter) items.push_back(table.ItemAt(row));
          }
          std::string pending;
          bool has_pending = false;
          for (const Item& item : items) {
            if (item.IsAtomic()) {
              if (has_pending) pending += " ";
              pending += item.atomic().ToString();
              has_pending = true;
              continue;
            }
            if (has_pending) {
              elem->AppendChild(Node::NewText(pending));
              pending.clear();
              has_pending = false;
            }
            const Node* node = item.node();
            if (node->kind() == NodeKind::kAttribute) {
              elem->SetAttribute(node->Clone());
            } else if (node->kind() == NodeKind::kDocument) {
              for (const NodePtr& c : node->children()) {
                elem->AppendChild(c->Clone());
              }
            } else {
              elem->AppendChild(node->Clone());
            }
          }
          if (has_pending && !pending.empty()) {
            elem->AppendChild(Node::NewText(pending));
          }
        }
        out.AppendIPI(iter, 1, Item::Node(std::move(elem)));
      }
      return out;
    }
    case ExprKind::kTextCtor: {
      if (e.children.empty()) {
        Table out = Table::IterPosItem();
        for (int64_t iter : loop) {
          out.AppendIPI(iter, 1,
                        Item::Node(Node::NewText(e.literal.ToString())));
        }
        return out;
      }
      XRPC_ASSIGN_OR_RETURN(Table t, Eval(*e.children[0], loop));
      auto groups = GroupByIter(SortIPI(t));
      Table out = Table::IterPosItem();
      for (int64_t iter : loop) {
        auto g = groups.find(iter);
        if (g == groups.end() || g->second.empty()) continue;
        std::string text;
        for (size_t k = 0; k < g->second.size(); ++k) {
          if (k > 0) text += " ";
          text += t.ItemAt(g->second[k]).StringValue();
        }
        out.AppendIPI(iter, 1, Item::Node(Node::NewText(std::move(text))));
      }
      return out;
    }
    default:
      return Status::Unsupported(
          "this constructor kind on the relational path");
  }
}

// ===========================================================================

LoopLiftedEvaluator::LoopLiftedEvaluator(const LoopLiftConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

LoopLiftedEvaluator::~LoopLiftedEvaluator() = default;

StatusOr<xdm::Sequence> LoopLiftedEvaluator::EvaluateQuery(
    const xquery::MainModule& query) {
  return impl_->EvaluateQuery(query);
}

StatusOr<algebra::Table> LoopLiftedEvaluator::EvaluateFunctionBulk(
    const xquery::LibraryModule& module, const xquery::FunctionDef& def,
    const std::vector<algebra::Table>& args, int64_t num_calls) {
  return impl_->EvaluateFunctionBulk(module, def, args, num_calls);
}

const std::vector<BulkRpcTrace>& LoopLiftedEvaluator::traces() const {
  return impl_->traces();
}

}  // namespace xrpc::compiler
