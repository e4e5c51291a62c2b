#include "compiler/loop_lift.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <set>
#include <utility>

#include "base/string_util.h"
#include "xml/serializer.h"

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
      if (e.name.ns_uri == xquery::kFnNs &&
          (e.name.local == "position" || e.name.local == "last")) {
        if (bound->count(kPositionVar) == 0) *has_free = true;
        return;
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
      if (e.name.ns_uri == xquery::kFnNs &&
          (e.name.local == "position" || e.name.local == "last") &&
          bound.count(kPositionVar) == 0) {
        free->insert(kPositionVar);
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
      XRPC_ASSIGN_OR_RETURN(
          Table coerced, CoerceTable(args[p], def.params[p].type));
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

  StatusOr<const Table*> LookupVar(const std::string& clark) const {
    for (auto it = env_.rbegin(); it != env_.rend(); ++it) {
      if (it->first == clark) return &it->second;
    }
    return Status::EvalError("unbound variable $" + clark);
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

  StatusOr<Table> CoerceTable(const Table& t, const xquery::SequenceType& type) {
    if (type.kind != xquery::SequenceType::ItemKind::kAtomic) return t;
    Table out = Table::IterPosItem();
    for (size_t i = 0; i < t.NumRows(); ++i) {
      AtomicValue v = t.ItemAt(i).Atomize();
      if (v.type() != type.atomic) {
        XRPC_ASSIGN_OR_RETURN(v, v.CastTo(type.atomic));
      }
      out.AppendIPI(t.Iter(i), t.Pos(i), Item(std::move(v)));
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
        return EvalRange(e, loop);
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
      case ExprKind::kComparison:
        return EvalComparison(e, loop);
      case ExprKind::kArith:
        return EvalArith(e, loop);
      case ExprKind::kUnaryMinus: {
        XRPC_ASSIGN_OR_RETURN(Table v, Eval(*e.children[0], loop));
        Table out = Table::IterPosItem();
        for (size_t i = 0; i < v.NumRows(); ++i) {
          AtomicValue a = v.ItemAt(i).Atomize();
          if (a.type() == AtomicType::kInteger) {
            out.AppendIPI(v.Iter(i), 1, Item(AtomicValue::Integer(-a.AsInteger())));
          } else {
            out.AppendIPI(v.Iter(i), 1, Item(AtomicValue::Double(-a.AsDouble())));
          }
        }
        return out;
      }
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
      case ExprKind::kCastAs:
      case ExprKind::kCastableAs:
      case ExprKind::kInstanceOf:
      case ExprKind::kTreatAs:
        return EvalTypeExpr(e, loop);
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

  StatusOr<Table> EvalRange(const Expr& e, const Loop& loop) {
    XRPC_ASSIGN_OR_RETURN(Table lo_t, Eval(*e.children[0], loop));
    XRPC_ASSIGN_OR_RETURN(Table hi_t, Eval(*e.children[1], loop));
    XRPC_ASSIGN_OR_RETURN(auto lo, AtomizedSingletons(lo_t, "range"));
    XRPC_ASSIGN_OR_RETURN(auto hi, AtomizedSingletons(hi_t, "range"));
    Table out = Table::IterPosItem();
    for (int64_t iter : loop) {
      auto l = lo.find(iter);
      auto h = hi.find(iter);
      if (l == lo.end() || h == hi.end()) continue;
      int64_t a = l->second.AsInteger(), b = h->second.AsInteger();
      if (b - a > 100'000'000) return Status::EvalError("range too large");
      int64_t pos = 0;
      for (int64_t v = a; v <= b; ++v) {
        out.AppendIPI(iter, ++pos, Item(AtomicValue::Integer(v)));
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
    XRPC_ASSIGN_OR_RETURN(auto l, EvalBool(*e.children[0], loop));
    XRPC_ASSIGN_OR_RETURN(auto r, EvalBool(*e.children[1], loop));
    Table out = Table::IterPosItem();
    for (int64_t iter : loop) {
      bool lb = l.count(iter) > 0 && l[iter];
      bool rb = r.count(iter) > 0 && r[iter];
      bool v = e.kind == ExprKind::kOr ? (lb || rb) : (lb && rb);
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

  StatusOr<Table> EvalComparison(const Expr& e, const Loop& loop) {
    XRPC_ASSIGN_OR_RETURN(Table l, Eval(*e.children[0], loop));
    XRPC_ASSIGN_OR_RETURN(Table r, Eval(*e.children[1], loop));
    auto lg = GroupByIter(l);
    auto rg = GroupByIter(r);

    auto satisfied = [&](int c) {
      switch (e.comp_op) {
        case CompOp::kGenEq:
        case CompOp::kValEq:
          return c == 0;
        case CompOp::kGenNe:
        case CompOp::kValNe:
          return c != 0;
        case CompOp::kGenLt:
        case CompOp::kValLt:
          return c < 0;
        case CompOp::kGenLe:
        case CompOp::kValLe:
          return c <= 0;
        case CompOp::kGenGt:
        case CompOp::kValGt:
          return c > 0;
        case CompOp::kGenGe:
        case CompOp::kValGe:
          return c >= 0;
        default:
          return false;
      }
    };
    bool value_comp =
        e.comp_op == CompOp::kValEq || e.comp_op == CompOp::kValNe ||
        e.comp_op == CompOp::kValLt || e.comp_op == CompOp::kValLe ||
        e.comp_op == CompOp::kValGt || e.comp_op == CompOp::kValGe;
    bool node_comp = e.comp_op == CompOp::kNodeIs ||
                     e.comp_op == CompOp::kNodeBefore ||
                     e.comp_op == CompOp::kNodeAfter;

    Table out = Table::IterPosItem();
    PollGate gate(cfg_.cancel);
    for (int64_t iter : loop) {
      if (gate.Tick()) return gate.status();
      auto li = lg.find(iter);
      auto ri = rg.find(iter);
      if (li == lg.end() || ri == rg.end()) {
        if (value_comp || node_comp) continue;  // empty result
        out.AppendIPI(iter, 1, Item(AtomicValue::Boolean(false)));
        continue;
      }
      if (node_comp) {
        if (li->second.size() != 1 || ri->second.size() != 1) {
          return Status::TypeError("node comparison requires single nodes");
        }
        const Item& a = l.ItemAt(li->second[0]);
        const Item& b = r.ItemAt(ri->second[0]);
        if (!a.IsNode() || !b.IsNode()) {
          return Status::TypeError("node comparison requires nodes");
        }
        int c = xml::CompareDocumentOrder(a.node(), b.node());
        bool v = e.comp_op == CompOp::kNodeIs
                     ? a.node() == b.node()
                     : (e.comp_op == CompOp::kNodeBefore ? c < 0 : c > 0);
        out.AppendIPI(iter, 1, Item(AtomicValue::Boolean(v)));
        continue;
      }
      if (value_comp) {
        if (li->second.size() != 1 || ri->second.size() != 1) {
          return Status::TypeError("value comparison requires singletons");
        }
        AtomicValue a = l.ItemAt(li->second[0]).Atomize();
        AtomicValue b = r.ItemAt(ri->second[0]).Atomize();
        if (a.type() == AtomicType::kUntypedAtomic) {
          a = AtomicValue::String(a.ToString());
        }
        if (b.type() == AtomicType::kUntypedAtomic) {
          b = AtomicValue::String(b.ToString());
        }
        XRPC_ASSIGN_OR_RETURN(int c, xdm::CompareAtomic(a, b));
        out.AppendIPI(iter, 1, Item(AtomicValue::Boolean(satisfied(c))));
        continue;
      }
      // General comparison: existential semantics.
      bool found = false;
      for (size_t x : li->second) {
        if (found) break;
        AtomicValue a = l.ItemAt(x).Atomize();
        for (size_t y : ri->second) {
          AtomicValue b = r.ItemAt(y).Atomize();
          XRPC_ASSIGN_OR_RETURN(int c, xdm::CompareAtomic(a, b));
          if (satisfied(c)) {
            found = true;
            break;
          }
        }
      }
      out.AppendIPI(iter, 1, Item(AtomicValue::Boolean(found)));
    }
    return out;
  }

  StatusOr<Table> EvalArith(const Expr& e, const Loop& loop) {
    XRPC_ASSIGN_OR_RETURN(Table l, Eval(*e.children[0], loop));
    XRPC_ASSIGN_OR_RETURN(Table r, Eval(*e.children[1], loop));
    XRPC_ASSIGN_OR_RETURN(auto lv, AtomizedSingletons(l, "arithmetic"));
    XRPC_ASSIGN_OR_RETURN(auto rv, AtomizedSingletons(r, "arithmetic"));
    Table out = Table::IterPosItem();
    for (int64_t iter : loop) {
      auto li = lv.find(iter);
      auto ri = rv.find(iter);
      if (li == lv.end() || ri == rv.end()) continue;
      AtomicValue a = li->second, b = ri->second;
      if (a.type() == AtomicType::kUntypedAtomic) {
        XRPC_ASSIGN_OR_RETURN(a, a.CastTo(AtomicType::kDouble));
      }
      if (b.type() == AtomicType::kUntypedAtomic) {
        XRPC_ASSIGN_OR_RETURN(b, b.CastTo(AtomicType::kDouble));
      }
      bool both_int = a.type() == AtomicType::kInteger &&
                      b.type() == AtomicType::kInteger;
      switch (e.arith_op) {
        case xquery::ArithOp::kAdd:
          out.AppendIPI(iter, 1,
                        both_int ? Item(AtomicValue::Integer(a.AsInteger() +
                                                             b.AsInteger()))
                                 : Item(AtomicValue::Double(a.AsDouble() +
                                                            b.AsDouble())));
          break;
        case xquery::ArithOp::kSub:
          out.AppendIPI(iter, 1,
                        both_int ? Item(AtomicValue::Integer(a.AsInteger() -
                                                             b.AsInteger()))
                                 : Item(AtomicValue::Double(a.AsDouble() -
                                                            b.AsDouble())));
          break;
        case xquery::ArithOp::kMul:
          out.AppendIPI(iter, 1,
                        both_int ? Item(AtomicValue::Integer(a.AsInteger() *
                                                             b.AsInteger()))
                                 : Item(AtomicValue::Double(a.AsDouble() *
                                                            b.AsDouble())));
          break;
        case xquery::ArithOp::kDiv:
          out.AppendIPI(iter, 1,
                        Item(AtomicValue::Double(a.AsDouble() / b.AsDouble())));
          break;
        case xquery::ArithOp::kIDiv: {
          if (b.AsDouble() == 0) {
            return Status::EvalError("division by zero (FOAR0001)");
          }
          out.AppendIPI(iter, 1,
                        Item(AtomicValue::Integer(static_cast<int64_t>(
                            std::trunc(a.AsDouble() / b.AsDouble())))));
          break;
        }
        case xquery::ArithOp::kMod: {
          if (both_int) {
            if (b.AsInteger() == 0) {
              return Status::EvalError("division by zero (FOAR0001)");
            }
            out.AppendIPI(iter, 1,
                          Item(AtomicValue::Integer(a.AsInteger() %
                                                    b.AsInteger())));
          } else {
            out.AppendIPI(iter, 1,
                          Item(AtomicValue::Double(
                              std::fmod(a.AsDouble(), b.AsDouble()))));
          }
          break;
        }
      }
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

  static bool IsForwardAxis(Axis axis) {
    switch (axis) {
      case Axis::kChild:
      case Axis::kDescendant:
      case Axis::kDescendantOrSelf:
      case Axis::kSelf:
      case Axis::kAttribute:
      case Axis::kFollowingSibling:
        return true;
      default:
        return false;
    }
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
        IsForwardAxis(step.axis)) {
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

    // DOM fallback covering every axis and node test.
    auto matches = [&](const Node& m) {
      switch (test.kind) {
        case NodeTest::Kind::kAnyKind:
          return true;
        case NodeTest::Kind::kText:
          return m.kind() == NodeKind::kText;
        case NodeTest::Kind::kComment:
          return m.kind() == NodeKind::kComment;
        case NodeTest::Kind::kPi:
          return m.kind() == NodeKind::kProcessingInstruction;
        case NodeTest::Kind::kElement:
          return m.kind() == NodeKind::kElement;
        case NodeTest::Kind::kAttribute:
          return m.kind() == NodeKind::kAttribute;
        case NodeTest::Kind::kDocument:
          return m.kind() == NodeKind::kDocument;
        case NodeTest::Kind::kName: {
          NodeKind principal = step.axis == Axis::kAttribute
                                   ? NodeKind::kAttribute
                                   : NodeKind::kElement;
          if (m.kind() != principal) return false;
          return test.wildcard || m.name() == test.name;
        }
      }
      return false;
    };
    auto emit = [&](Node* m) {
      if (matches(*m)) out->push_back(Item::NodeInTree(m, anchor));
    };
    std::function<void(Node*)> descend = [&](Node* v) {
      for (const NodePtr& c : v->children()) {
        emit(c.get());
        descend(c.get());
      }
    };
    switch (step.axis) {
      case Axis::kChild:
        for (const NodePtr& c : n->children()) emit(c.get());
        return;
      case Axis::kAttribute:
        for (const NodePtr& a : n->attributes()) emit(a.get());
        return;
      case Axis::kSelf:
        emit(n);
        return;
      case Axis::kParent:
        if (n->parent() != nullptr) emit(n->parent());
        return;
      case Axis::kDescendant:
        descend(n);
        return;
      case Axis::kDescendantOrSelf:
        emit(n);
        descend(n);
        return;
      case Axis::kAncestor:
        for (Node* p = n->parent(); p != nullptr; p = p->parent()) emit(p);
        return;
      case Axis::kAncestorOrSelf:
        for (Node* p = n; p != nullptr; p = p->parent()) emit(p);
        return;
      case Axis::kFollowingSibling: {
        Node* parent = n->parent();
        if (parent == nullptr || n->kind() == NodeKind::kAttribute) return;
        for (size_t i = n->IndexInParent() + 1;
             i < parent->children().size(); ++i) {
          emit(parent->children()[i].get());
        }
        return;
      }
      case Axis::kPrecedingSibling: {
        Node* parent = n->parent();
        if (parent == nullptr || n->kind() == NodeKind::kAttribute) return;
        for (size_t i = 0; i < n->IndexInParent(); ++i) {
          emit(parent->children()[i].get());
        }
        return;
      }
    }
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
        bool keep;
        if (v.size() == 1 && v[0].IsAtomic() && v[0].atomic().IsNumeric()) {
          keep = v[0].atomic().AsDouble() == static_cast<double>(i + 1);
        } else {
          XRPC_ASSIGN_OR_RETURN(keep, xdm::EffectiveBooleanValue(v));
        }
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
  StatusOr<Table> EvalBuiltin(const Expr& e, const Loop& loop,
                              std::vector<Table> args);

  // -------------------------------------------------------------- XRPC

  StatusOr<Table> EvalExecuteAt(const Expr& e, const Loop& loop);

  // -------------------------------------------------------- constructors

  StatusOr<Table> EvalConstructor(const Expr& e, const Loop& loop);

  StatusOr<Table> EvalTypeExpr(const Expr& e, const Loop& loop) {
    XRPC_ASSIGN_OR_RETURN(Table v, Eval(*e.children[0], loop));
    auto groups = GroupByIter(v);
    Table out = Table::IterPosItem();
    for (int64_t iter : loop) {
      auto g = groups.find(iter);
      Sequence seq;
      if (g != groups.end()) {
        for (size_t row : g->second) seq.push_back(v.ItemAt(row));
      }
      switch (e.kind) {
        case ExprKind::kCastAs: {
          if (seq.empty()) {
            if (e.seq_type.occurrence == xquery::Occurrence::kZeroOrOne) {
              continue;
            }
            return Status::TypeError("cast of empty sequence");
          }
          if (seq.size() > 1) return Status::TypeError("cast of sequence");
          XRPC_ASSIGN_OR_RETURN(AtomicValue c,
                                seq[0].Atomize().CastTo(e.seq_type.atomic));
          out.AppendIPI(iter, 1, Item(std::move(c)));
          break;
        }
        case ExprKind::kCastableAs: {
          bool ok = seq.size() == 1 &&
                    seq[0].Atomize().CastTo(e.seq_type.atomic).ok();
          if (seq.empty()) {
            ok = e.seq_type.occurrence == xquery::Occurrence::kZeroOrOne;
          }
          out.AppendIPI(iter, 1, Item(AtomicValue::Boolean(ok)));
          break;
        }
        case ExprKind::kInstanceOf:
        case ExprKind::kTreatAs:
          return Status::Unsupported(
              "instance of / treat as on the relational path");
        default:
          return Status::Internal("not a type expression");
      }
    }
    return out;
  }

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
  // xs: constructor functions.
  if (e.name.ns_uri == xml::kXsNs) {
    if (e.children.size() != 1) {
      return Status::TypeError("constructor function takes one argument");
    }
    XRPC_ASSIGN_OR_RETURN(Table v, Eval(*e.children[0], loop));
    XRPC_ASSIGN_OR_RETURN(AtomicType t,
                          xdm::AtomicTypeFromName("xs:" + e.name.local));
    Table out = Table::IterPosItem();
    for (size_t i = 0; i < v.NumRows(); ++i) {
      XRPC_ASSIGN_OR_RETURN(AtomicValue c, v.ItemAt(i).Atomize().CastTo(t));
      out.AppendIPI(v.Iter(i), v.Pos(i), Item(std::move(c)));
    }
    return out;
  }

  // position()/last() resolve against the hidden focus variables.
  if (e.name.ns_uri == xquery::kFnNs && e.children.empty()) {
    if (e.name.local == "position") {
      XRPC_ASSIGN_OR_RETURN(const Table* t, LookupVar(kPositionVar));
      return RestrictToLoop(*t, loop);
    }
    if (e.name.local == "last") {
      XRPC_ASSIGN_OR_RETURN(const Table* t, LookupVar(kLastVar));
      return RestrictToLoop(*t, loop);
    }
  }

  // User-defined functions: inline-expand loop-lifted.
  const xquery::FunctionDef* def = nullptr;
  const xquery::LibraryModule* def_module = nullptr;
  const Scope& scope = scopes_.back();
  for (const xquery::FunctionDef& f : scope.prolog->functions) {
    if (f.name == e.name && f.arity() == e.children.size()) {
      def = &f;
      break;
    }
  }
  if (def == nullptr) {
    auto it = scope.imports_by_ns.find(e.name.ns_uri);
    if (it != scope.imports_by_ns.end()) {
      def = it->second->FindFunction(e.name, e.children.size());
      def_module = it->second;
    }
  }
  if (def != nullptr) {
    if (def->updating) {
      return Status::Unsupported("updating function on the relational path");
    }
    if (++inline_depth_ > cfg_.max_inline_depth) {
      --inline_depth_;
      return Status::Unsupported(
          "recursion beyond inline depth on the relational path");
    }
    std::vector<Table> args;
    Status st = Status::OK();
    for (const ExprPtr& c : e.children) {
      auto a = Eval(*c, loop);
      if (!a.ok()) {
        st = a.status();
        break;
      }
      args.push_back(std::move(a).value());
    }
    StatusOr<Table> result = Status::Internal("uninitialized");
    if (st.ok()) {
      size_t env_mark = env_.size();
      size_t scope_mark = scopes_.size();
      // A fresh frame: only parameters are visible inside the body.
      std::vector<std::pair<std::string, Table>> saved_env;
      saved_env.swap(env_);
      if (def_module != nullptr) {
        auto s = BuildScope(&def_module->prolog, def_module->target_ns);
        if (!s.ok()) {
          st = s.status();
        } else {
          scopes_.push_back(std::move(s).value());
        }
      }
      if (st.ok()) {
        for (size_t i = 0; i < args.size(); ++i) {
          auto coerced = CoerceTable(args[i], def->params[i].type);
          if (!coerced.ok()) {
            st = coerced.status();
            break;
          }
          env_.emplace_back(def->params[i].name.Clark(),
                            std::move(coerced).value());
        }
      }
      if (st.ok()) {
        result = Eval(*def->body, loop);
      }
      env_ = std::move(saved_env);
      env_.resize(env_mark);
      scopes_.resize(scope_mark);
    }
    --inline_depth_;
    XRPC_RETURN_IF_ERROR(st);
    return result;
  }

  if (e.name.ns_uri == xquery::kFnNs || e.name.ns_uri == xml::kXrpcNs) {
    std::vector<Table> args;
    for (const ExprPtr& c : e.children) {
      XRPC_ASSIGN_OR_RETURN(Table a, Eval(*c, loop));
      args.push_back(std::move(a));
    }
    return EvalBuiltin(e, loop, std::move(args));
  }
  return Status::NotFound("unknown function " + e.name.Clark());
}

StatusOr<Table> LoopLiftedEvaluator::Impl::EvalBuiltin(
    const Expr& e, const Loop& loop, std::vector<Table> args) {
  const std::string& f = e.name.local;
  size_t n = args.size();
  Table out = Table::IterPosItem();

  auto groups_of = [](const Table& t) { return GroupByIter(t); };

  if (e.name.ns_uri == xml::kXrpcNs) {
    if ((f == "host" || f == "path") && n == 1) {
      for (size_t i = 0; i < args[0].NumRows(); ++i) {
        std::string url = args[0].ItemAt(i).StringValue();
        std::string result;
        if (StartsWith(url, "xrpc://")) {
          std::string rest = url.substr(7);
          size_t slash = rest.find('/');
          if (f == "host") {
            result = "xrpc://" +
                     (slash == std::string::npos ? rest
                                                 : rest.substr(0, slash));
          } else {
            result = slash == std::string::npos ? "" : rest.substr(slash + 1);
          }
        } else {
          result = f == "host" ? "localhost" : url;
        }
        out.AppendIPI(args[0].Iter(i), 1, Item(AtomicValue::String(result)));
      }
      return out;
    }
    return Status::Unsupported("xrpc:" + f + " on the relational path");
  }

  if (f == "doc" && n == 1) {
    if (cfg_.documents == nullptr) {
      return Status::EvalError("fn:doc: no document provider");
    }
    for (size_t i = 0; i < args[0].NumRows(); ++i) {
      XRPC_ASSIGN_OR_RETURN(
          NodePtr doc,
          cfg_.documents->GetDocument(args[0].ItemAt(i).StringValue()));
      out.AppendIPI(args[0].Iter(i), 1, Item::Node(std::move(doc)));
    }
    return out;
  }
  if (f == "count" && n == 1) {
    auto groups = groups_of(args[0]);
    for (int64_t iter : loop) {
      auto g = groups.find(iter);
      int64_t c = g == groups.end() ? 0 : static_cast<int64_t>(g->second.size());
      out.AppendIPI(iter, 1, Item(AtomicValue::Integer(c)));
    }
    return out;
  }
  if ((f == "empty" || f == "exists") && n == 1) {
    auto groups = groups_of(args[0]);
    for (int64_t iter : loop) {
      bool has = groups.count(iter) > 0 && !groups[iter].empty();
      out.AppendIPI(iter, 1,
                    Item(AtomicValue::Boolean(f == "empty" ? !has : has)));
    }
    return out;
  }
  if ((f == "not" || f == "boolean") && n == 1) {
    auto groups = groups_of(args[0]);
    for (int64_t iter : loop) {
      Sequence seq;
      auto g = groups.find(iter);
      if (g != groups.end()) {
        for (size_t row : g->second) seq.push_back(args[0].ItemAt(row));
      }
      XRPC_ASSIGN_OR_RETURN(bool b, xdm::EffectiveBooleanValue(seq));
      out.AppendIPI(iter, 1, Item(AtomicValue::Boolean(f == "not" ? !b : b)));
    }
    return out;
  }
  if (f == "true" && n == 0) {
    for (int64_t iter : loop) {
      out.AppendIPI(iter, 1, Item(AtomicValue::Boolean(true)));
    }
    return out;
  }
  if (f == "false" && n == 0) {
    for (int64_t iter : loop) {
      out.AppendIPI(iter, 1, Item(AtomicValue::Boolean(false)));
    }
    return out;
  }
  if (f == "string" && n == 1) {
    auto groups = groups_of(args[0]);
    for (int64_t iter : loop) {
      auto g = groups.find(iter);
      std::string s;
      if (g != groups.end() && !g->second.empty()) {
        if (g->second.size() > 1) {
          return Status::TypeError("fn:string: more than one item");
        }
        s = args[0].ItemAt(g->second[0]).StringValue();
      }
      out.AppendIPI(iter, 1, Item(AtomicValue::String(std::move(s))));
    }
    return out;
  }
  if (f == "data" && n == 1) {
    for (size_t i = 0; i < args[0].NumRows(); ++i) {
      out.AppendIPI(args[0].Iter(i), args[0].Pos(i),
                    Item(args[0].ItemAt(i).Atomize()));
    }
    return out;
  }
  if (f == "concat" && n >= 2) {
    std::vector<std::unordered_map<int64_t, std::vector<size_t>>> groups;
    for (const Table& a : args) groups.push_back(GroupByIter(a));
    for (int64_t iter : loop) {
      std::string s;
      for (size_t a = 0; a < n; ++a) {
        auto g = groups[a].find(iter);
        if (g == groups[a].end()) continue;
        if (g->second.size() > 1) {
          return Status::TypeError("fn:concat: non-singleton argument");
        }
        s += args[a].ItemAt(g->second[0]).StringValue();
      }
      out.AppendIPI(iter, 1, Item(AtomicValue::String(std::move(s))));
    }
    return out;
  }
  if (f == "string-join" && (n == 1 || n == 2)) {
    auto groups = groups_of(args[0]);
    auto seps = n == 2 ? GroupByIter(args[1])
                       : std::unordered_map<int64_t, std::vector<size_t>>{};
    for (int64_t iter : loop) {
      std::string sep;
      if (n == 2) {
        auto s = seps.find(iter);
        if (s != seps.end() && !s->second.empty()) {
          sep = args[1].ItemAt(s->second[0]).StringValue();
        }
      }
      std::string joined;
      auto g = groups.find(iter);
      if (g != groups.end()) {
        for (size_t k = 0; k < g->second.size(); ++k) {
          if (k > 0) joined += sep;
          joined += args[0].ItemAt(g->second[k]).StringValue();
        }
      }
      out.AppendIPI(iter, 1, Item(AtomicValue::String(std::move(joined))));
    }
    return out;
  }
  if ((f == "contains" || f == "starts-with" || f == "ends-with") && n == 2) {
    auto lg = groups_of(args[0]);
    auto rg = groups_of(args[1]);
    for (int64_t iter : loop) {
      std::string a, b;
      auto li = lg.find(iter);
      if (li != lg.end() && !li->second.empty()) {
        a = args[0].ItemAt(li->second[0]).StringValue();
      }
      auto ri = rg.find(iter);
      if (ri != rg.end() && !ri->second.empty()) {
        b = args[1].ItemAt(ri->second[0]).StringValue();
      }
      bool v = f == "contains"
                   ? a.find(b) != std::string::npos
                   : (f == "starts-with" ? StartsWith(a, b) : EndsWith(a, b));
      out.AppendIPI(iter, 1, Item(AtomicValue::Boolean(v)));
    }
    return out;
  }
  if ((f == "sum" || f == "avg" || f == "min" || f == "max") && n >= 1) {
    auto groups = groups_of(args[0]);
    for (int64_t iter : loop) {
      auto g = groups.find(iter);
      if (g == groups.end() || g->second.empty()) {
        if (f == "sum") out.AppendIPI(iter, 1, Item(AtomicValue::Integer(0)));
        continue;
      }
      bool all_int = true;
      double acc = 0;
      int64_t iacc = 0;
      double mn = std::numeric_limits<double>::infinity();
      double mx = -std::numeric_limits<double>::infinity();
      for (size_t row : g->second) {
        AtomicValue v = args[0].ItemAt(row).Atomize();
        if (v.type() != AtomicType::kInteger) all_int = false;
        double d = v.AsDouble();
        acc += d;
        iacc += v.AsInteger();
        mn = std::min(mn, d);
        mx = std::max(mx, d);
      }
      if (f == "sum") {
        out.AppendIPI(iter, 1,
                      all_int ? Item(AtomicValue::Integer(iacc))
                              : Item(AtomicValue::Double(acc)));
      } else if (f == "avg") {
        out.AppendIPI(iter, 1,
                      Item(AtomicValue::Double(
                          acc / static_cast<double>(g->second.size()))));
      } else {
        double v = f == "min" ? mn : mx;
        out.AppendIPI(iter, 1,
                      all_int ? Item(AtomicValue::Integer(
                                    static_cast<int64_t>(v)))
                              : Item(AtomicValue::Double(v)));
      }
    }
    return out;
  }
  if (f == "distinct-values" && n >= 1) {
    auto groups = groups_of(args[0]);
    for (int64_t iter : loop) {
      auto g = groups.find(iter);
      if (g == groups.end()) continue;
      std::vector<AtomicValue> seen;
      int64_t pos = 0;
      for (size_t row : g->second) {
        AtomicValue v = args[0].ItemAt(row).Atomize();
        bool dup = false;
        for (const AtomicValue& s : seen) {
          auto cmp = xdm::CompareAtomic(v, s);
          if (cmp.ok() && cmp.value() == 0) {
            dup = true;
            break;
          }
        }
        if (!dup) {
          seen.push_back(v);
          out.AppendIPI(iter, ++pos, Item(std::move(v)));
        }
      }
    }
    return out;
  }
  if ((f == "zero-or-one" || f == "exactly-one" || f == "one-or-more") &&
      n == 1) {
    auto groups = groups_of(args[0]);
    for (int64_t iter : loop) {
      size_t c = groups.count(iter) > 0 ? groups[iter].size() : 0;
      if (f == "zero-or-one" && c > 1) {
        return Status::TypeError("fn:zero-or-one: more than one (FORG0003)");
      }
      if (f == "exactly-one" && c != 1) {
        return Status::TypeError("fn:exactly-one: not one item (FORG0005)");
      }
      if (f == "one-or-more" && c == 0) {
        return Status::TypeError("fn:one-or-more: empty (FORG0004)");
      }
    }
    return args[0];
  }
  if ((f == "name" || f == "local-name") && n == 1) {
    for (size_t i = 0; i < args[0].NumRows(); ++i) {
      const Item& item = args[0].ItemAt(i);
      if (!item.IsNode()) return Status::TypeError("fn:" + f + ": not a node");
      out.AppendIPI(args[0].Iter(i), 1,
                    Item(AtomicValue::String(f == "name"
                                                 ? item.node()->name().Lexical()
                                                 : item.node()->name().local)));
    }
    return out;
  }
  if (f == "number" && n <= 1) {
    if (n == 1) {
      auto groups = groups_of(args[0]);
      for (int64_t iter : loop) {
        double d = std::numeric_limits<double>::quiet_NaN();
        auto g = groups.find(iter);
        if (g != groups.end() && !g->second.empty()) {
          d = args[0].ItemAt(g->second[0]).Atomize().AsDouble();
        }
        out.AppendIPI(iter, 1, Item(AtomicValue::Double(d)));
      }
      return out;
    }
  }
  if (f == "error") {
    return Status::EvalError(n > 0 && args[n - 1].NumRows() > 0
                                 ? args[n - 1].ItemAt(0).StringValue()
                                 : "fn:error called");
  }

  return Status::Unsupported("built-in fn:" + f + "#" + std::to_string(n) +
                             " on the relational path");
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
