#include "xquery/interpreter.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <utility>

#include "xquery/functions.h"
#include "xquery/normalize.h"

namespace xrpc::xquery {

namespace {

using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;
using xml::Node;
using xml::NodeKind;
using xml::NodePtr;
using xml::QName;

/// Evaluation focus: context item, position and size (for predicates).
struct Focus {
  std::optional<Item> item;
  int64_t position = 0;
  int64_t size = 0;
};

/// The tree-walking evaluator. One instance evaluates one query, or all
/// calls of one request; it owns the variable environment, the focus and
/// the pending update list, and the path index unless the configuration
/// supplies a longer-lived one.
class Evaluator {
 public:
  explicit Evaluator(const Interpreter::Config& config) : cfg_(config) {}

  StatusOr<QueryResult> RunQuery(const MainModule& query) {
    XRPC_ASSIGN_OR_RETURN(Scope scope, BuildScope(&query.prolog, ""));
    scopes_.push_back(std::move(scope));
    for (const auto& [name, init] : query.prolog.variables) {
      XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(*init));
      vars_.emplace_back(name.Clark(), std::move(v));
    }
    QueryResult result;
    XRPC_ASSIGN_OR_RETURN(result.sequence, Eval(*query.body));
    result.updates = std::move(pul_);
    return result;
  }

  /// Evaluates every call of one request in this evaluator, so the path
  /// index persists across calls. Each call gets fresh parameter bindings
  /// and its own pending update list.
  StatusOr<std::vector<QueryResult>> RunFunction(
      const LibraryModule& module, const FunctionDef& function,
      std::vector<std::vector<Sequence>> calls) {
    XRPC_ASSIGN_OR_RETURN(Scope scope,
                          BuildScope(&module.prolog, module.target_ns));
    scopes_.push_back(std::move(scope));
    std::vector<QueryResult> results;
    results.reserve(calls.size());
    for (std::vector<Sequence>& args : calls) {
      if (cfg_.cancel != nullptr) {
        // With many short calls the per-call boundary is the dominant
        // poll point.
        XRPC_RETURN_IF_ERROR(cfg_.cancel->CheckCancelled());
      }
      if (args.size() != function.arity()) {
        return Status::TypeError("wrong number of arguments for " +
                                 function.name.Lexical());
      }
      for (size_t i = 0; i < args.size(); ++i) {
        XRPC_ASSIGN_OR_RETURN(
            Sequence coerced,
            CoerceToType(std::move(args[i]), function.params[i].type));
        vars_.emplace_back(function.params[i].name.Clark(),
                           std::move(coerced));
      }
      QueryResult result;
      XRPC_ASSIGN_OR_RETURN(result.sequence, Eval(*function.body));
      vars_.clear();
      result.updates = std::exchange(pul_, PendingUpdateList());
      results.push_back(std::move(result));
    }
    return results;
  }

 private:
  // ------------------------------------------------------------- scopes

  /// A module evaluation scope: where user functions and imports resolve.
  struct Scope {
    const Prolog* prolog = nullptr;
    std::string self_ns;  ///< library module target namespace ("" for main)
    std::map<std::string, const LibraryModule*> imports_by_ns;
    std::map<std::string, std::string> location_by_ns;
  };

  StatusOr<Scope> BuildScope(const Prolog* prolog, std::string self_ns) {
    Scope scope;
    scope.prolog = prolog;
    scope.self_ns = std::move(self_ns);
    for (const ModuleImport& imp : prolog->imports) {
      scope.location_by_ns[imp.target_ns] = imp.location;
      if (cfg_.modules != nullptr) {
        auto resolved = cfg_.modules->Resolve(imp.target_ns, imp.location);
        if (resolved.ok()) {
          scope.imports_by_ns[imp.target_ns] = resolved.value();
        }
        // Unresolvable imports are tolerated until a call needs them: a
        // remote-only module may be unavailable at the calling peer.
      }
    }
    return scope;
  }

  const Scope& CurrentScope() const { return scopes_.back(); }

  // ------------------------------------------------------------ helpers

  Status EvalError(const std::string& msg) const {
    return Status::EvalError(msg);
  }

  [[gnu::noinline]] StatusOr<const Sequence*> LookupVar(
      const QName& name) const {
    std::string key = name.Clark();
    for (auto it = vars_.rbegin(); it != vars_.rend(); ++it) {
      if (it->first == key) return &it->second;
    }
    return Status::EvalError("unbound variable $" + name.Lexical());
  }

  // --------------------------------------------------------- dispatcher

  StatusOr<Sequence> Eval(const Expr& e) {
    if (cfg_.cancel != nullptr) {
      // Cooperative cancellation: every expression dispatch is a poll
      // point, so a deadline expiring mid-query (e.g. while iterating a
      // FLWOR over nested `execute at` calls) is observed within one
      // evaluation step — no runaway query can outlive its budget by more
      // than one expression.
      XRPC_RETURN_IF_ERROR(cfg_.cancel->CheckCancelled());
    }
    if (++depth_ > kMaxCallDepth * 16) {
      --depth_;
      return Status::EvalError("expression nesting too deep");
    }
    auto result = EvalImpl(e);
    --depth_;
    return result;
  }

  StatusOr<Sequence> EvalImpl(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kLiteral:
        return Sequence{Item(e.literal)};
      case ExprKind::kSequence:
      case ExprKind::kRange:
      case ExprKind::kComparison:
      case ExprKind::kArith:
      case ExprKind::kUnaryMinus:
      case ExprKind::kUnion:
      case ExprKind::kCastAs:
      case ExprKind::kCastableAs:
      case ExprKind::kInstanceOf:
      case ExprKind::kTreatAs:
        return EvalOperator(e);
      case ExprKind::kVarRef: {
        XRPC_ASSIGN_OR_RETURN(const Sequence* v, LookupVar(e.name));
        return *v;
      }
      case ExprKind::kContextItem:
        if (!focus_.item.has_value()) {
          return EvalError("context item is undefined");
        }
        return Sequence{*focus_.item};
      case ExprKind::kFlwor:
        return EvalFlwor(e);
      case ExprKind::kIf: {
        XRPC_ASSIGN_OR_RETURN(bool b, EvalBool(*e.children[0]));
        return Eval(b ? *e.children[1] : *e.children[2]);
      }
      case ExprKind::kQuantified:
        return EvalQuantified(e);
      case ExprKind::kOr:
      case ExprKind::kAnd: {
        // The right operand runs only when the left leaves it undecided.
        const bool is_or = e.kind == ExprKind::kOr;
        XRPC_ASSIGN_OR_RETURN(bool b, EvalBool(*e.children[0]));
        if (b != is_or) {
          XRPC_ASSIGN_OR_RETURN(b, EvalBool(*e.children[1]));
        }
        return xdm::SingletonBool(b);
      }
      case ExprKind::kPath:
        return EvalPath(e);
      case ExprKind::kFilter:
        return EvalFilter(e);
      case ExprKind::kFunctionCall:
        return EvalFunctionCall(e);
      case ExprKind::kExecuteAt:
        return EvalExecuteAt(e);
      case ExprKind::kElementCtor:
      case ExprKind::kAttributeCtor:
      case ExprKind::kTextCtor:
      case ExprKind::kCommentCtor:
      case ExprKind::kPiCtor:
      case ExprKind::kDocumentCtor:
        return EvalConstructor(e);
      case ExprKind::kInsert:
      case ExprKind::kDelete:
      case ExprKind::kReplaceNode:
      case ExprKind::kReplaceValue:
      case ExprKind::kRename:
        return EvalUpdating(e);
    }
    return Status::Internal("unhandled expression kind");
  }

  // ------------------------------------------------------------- pieces
  //
  // [[gnu::noinline]] keeps the cases of EvalImpl that hold sequences out
  // of the dispatcher, where the compiler would fold these called-once
  // helpers: every nesting level of a query, and so every level of a
  // user-function recursion, pays the dispatcher's frame, and a recursion
  // of kMaxCallDepth calls must fit a thread's stack, sanitizer builds
  // included.

  [[gnu::noinline]] StatusOr<Sequence> EvalFilter(const Expr& e) {
    XRPC_ASSIGN_OR_RETURN(Sequence in, Eval(*e.children[0]));
    return ApplyPredicates(std::move(in), e.predicates);
  }

  [[gnu::noinline]] StatusOr<bool> EvalBool(const Expr& e) {
    XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(e));
    return xdm::EffectiveBooleanValue(v);
  }

  /// Sequences, operators and type expressions: every operand evaluates,
  /// then the library applies the operator.
  [[gnu::noinline]] StatusOr<Sequence> EvalOperator(const Expr& e) {
    XRPC_ASSIGN_OR_RETURN(std::vector<Sequence> a, EvalEach(e.children));
    switch (e.kind) {
      case ExprKind::kComparison:
        return Compare(e.comp_op, a[0], a[1]);
      case ExprKind::kArith:
        return Arithmetic(e.arith_op, a[0], a[1]);
      case ExprKind::kRange:
        return Range(a[0], a[1]);
      case ExprKind::kUnaryMinus:
        return Negate(a[0]);
      case ExprKind::kSequence:
        for (size_t i = 1; i < a.size(); ++i) {
          a[0].insert(a[0].end(), std::make_move_iterator(a[i].begin()),
                      std::make_move_iterator(a[i].end()));
        }
        return a.empty() ? Sequence{} : std::move(a[0]);
      case ExprKind::kUnion:
        a[0].insert(a[0].end(), a[1].begin(), a[1].end());
        XRPC_RETURN_IF_ERROR(xdm::SortByDocumentOrder(&a[0]));
        return std::move(a[0]);
      default:
        return ApplyTypeExpr(e.kind, e.seq_type, std::move(a[0]));
    }
  }

  [[gnu::noinline]] StatusOr<Sequence> EvalFlwor(const Expr& e) {
    struct OrderedResult {
      std::vector<AtomicValue> keys;
      std::vector<bool> key_empty;
      Sequence value;
    };
    std::vector<OrderedResult> ordered;
    Sequence out;

    Status st = ForEachTuple(e, 0, [&]() -> Status {
      if (e.where != nullptr) {
        XRPC_ASSIGN_OR_RETURN(Sequence w, Eval(*e.where));
        XRPC_ASSIGN_OR_RETURN(bool b, xdm::EffectiveBooleanValue(w));
        if (!b) return Status::OK();
      }
      if (e.order_by.empty()) {
        XRPC_ASSIGN_OR_RETURN(Sequence r, Eval(*e.ret));
        out.insert(out.end(), r.begin(), r.end());
        return Status::OK();
      }
      OrderedResult res;
      for (const OrderSpec& spec : e.order_by) {
        XRPC_ASSIGN_OR_RETURN(Sequence k, Eval(*spec.key));
        if (k.empty()) {
          res.keys.push_back(AtomicValue::String(""));
          res.key_empty.push_back(true);
        } else {
          XRPC_ASSIGN_OR_RETURN(AtomicValue a, AtomizeOne(k, "order by"));
          res.keys.push_back(std::move(a));
          res.key_empty.push_back(false);
        }
      }
      XRPC_ASSIGN_OR_RETURN(res.value, Eval(*e.ret));
      ordered.push_back(std::move(res));
      return Status::OK();
    });
    XRPC_RETURN_IF_ERROR(st);

    if (e.order_by.empty()) return out;

    Status sort_error = Status::OK();
    std::stable_sort(
        ordered.begin(), ordered.end(),
        [&](const OrderedResult& a, const OrderedResult& b) {
          for (size_t i = 0; i < e.order_by.size(); ++i) {
            const OrderSpec& spec = e.order_by[i];
            if (a.key_empty[i] || b.key_empty[i]) {
              if (a.key_empty[i] == b.key_empty[i]) continue;
              bool a_first = a.key_empty[i] != spec.empty_greatest;
              return spec.descending ? !a_first : a_first;
            }
            auto cmp = xdm::CompareAtomic(a.keys[i], b.keys[i]);
            if (!cmp.ok()) {
              if (sort_error.ok()) sort_error = cmp.status();
              return false;
            }
            int c = cmp.value();
            if (c != 0) return spec.descending ? c > 0 : c < 0;
          }
          return false;
        });
    XRPC_RETURN_IF_ERROR(sort_error);
    for (OrderedResult& r : ordered) {
      out.insert(out.end(), r.value.begin(), r.value.end());
    }
    return out;
  }

  template <typename Fn>
  Status ForEachTuple(const Expr& e, size_t idx, const Fn& fn) {
    if (idx == e.clauses.size()) return fn();
    const FlworClause& c = e.clauses[idx];
    XRPC_ASSIGN_OR_RETURN(Sequence seq, Eval(*c.expr));
    if (c.kind == FlworClause::Kind::kLet) {
      vars_.emplace_back(c.var.Clark(), std::move(seq));
      Status st = ForEachTuple(e, idx + 1, fn);
      vars_.pop_back();
      return st;
    }
    for (size_t i = 0; i < seq.size(); ++i) {
      vars_.emplace_back(c.var.Clark(), Sequence{seq[i]});
      if (!c.pos_var.empty()) {
        vars_.emplace_back(c.pos_var.Clark(),
                           xdm::SingletonInt(static_cast<int64_t>(i + 1)));
      }
      Status st = ForEachTuple(e, idx + 1, fn);
      if (!c.pos_var.empty()) vars_.pop_back();
      vars_.pop_back();
      XRPC_RETURN_IF_ERROR(st);
    }
    return Status::OK();
  }

  [[gnu::noinline]] StatusOr<Sequence> EvalQuantified(const Expr& e) {
    bool result = e.every;
    Status st = ForEachTuple(e, 0, [&]() -> Status {
      XRPC_ASSIGN_OR_RETURN(Sequence s, Eval(*e.ret));
      XRPC_ASSIGN_OR_RETURN(bool b, xdm::EffectiveBooleanValue(s));
      if (e.every) {
        if (!b) result = false;
      } else {
        if (b) result = true;
      }
      return Status::OK();
    });
    XRPC_RETURN_IF_ERROR(st);
    return xdm::SingletonBool(result);
  }

  // ---------------------------------------------------------------- paths

  [[gnu::noinline]] StatusOr<Sequence> EvalPath(const Expr& e) {
    Sequence input;
    if (e.children[0] != nullptr) {
      XRPC_ASSIGN_OR_RETURN(input, Eval(*e.children[0]));
    } else {
      if (!focus_.item.has_value()) {
        return EvalError("path step with undefined context item");
      }
      if (!focus_.item->IsNode()) {
        return Status::TypeError("context item is not a node");
      }
      if (e.root_path) {
        Node* root = focus_.item->node()->Root();
        input.push_back(Item::NodeInTree(root, focus_.item->anchor()));
      } else {
        input.push_back(*focus_.item);
      }
    }

    // Path index (DESIGN.md §6): a path from a document whose head is
    // indexed is answered from the entry for this document version. Behind
    // a plain step each call reduces to a probe of the entry's join index,
    // so the calls of a bulk request (the semi-join's Q_B3, the wrapper's
    // generated query) and, on a server, successive requests pay the scan
    // once: the amortization the paper observes in Saxon's bulk exec.
    const IndexedHead head = HeadOf(e);
    size_t first_step = 0;
    if (head.end() > 0 && input.size() == 1 && IsIndexSource(input[0])) {
      std::shared_ptr<const PathIndex::Entry> entry =
          path_index_->Lookup(e, head, input[0], counters_);
      const NodePtr& anchor = input[0].anchor();
      if (head.plain != nullptr) {
        XRPC_ASSIGN_OR_RETURN(input,
                              FilterIndexed(*entry, *head.plain, anchor));
      } else {
        input = NodeItems(entry->nodes, anchor);
      }
      first_step = head.end();
    }
    for (size_t i = first_step; i < e.steps.size(); ++i) {
      XRPC_ASSIGN_OR_RETURN(input, EvalStep(input, e.steps[i]));
    }
    return input;
  }

  StatusOr<Sequence> EvalStep(const Sequence& input, const PathStep& step) {
    Sequence result;
    for (const Item& item : input) {
      if (!item.IsNode()) {
        return Status::TypeError("path step applied to an atomic value");
      }
      Sequence step_out;
      CollectAxis(item, step.axis, step.test, &step_out);
      XRPC_ASSIGN_OR_RETURN(step_out,
                            ApplyPredicates(std::move(step_out),
                                            step.predicates));
      result.insert(result.end(), step_out.begin(), step_out.end());
    }
    if (input.size() == 1 && IsForwardAxis(step.axis)) {
      return result;  // already document order, duplicate-free
    }
    XRPC_RETURN_IF_ERROR(xdm::SortByDocumentOrder(&result));
    return result;
  }

  /// Filters an index entry's candidates by the predicates of plain step
  /// `step`, the first one by a probe of the entry's join index when the
  /// entry has one and the probe values allow it.
  StatusOr<Sequence> FilterIndexed(const PathIndex::Entry& entry,
                                   const PathStep& step,
                                   const NodePtr& anchor) {
    std::span<const ExprPtr> preds = step.predicates;
    if (!entry.join.empty()) {
      XRPC_ASSIGN_OR_RETURN(Sequence probe, Eval(*JoinProbe(step)));
      if (auto hits = entry.Probe(probe)) {
        return ApplyPredicates(NodeItems(*hits, anchor), preds.subspan(1));
      }
    }
    return ApplyPredicates(NodeItems(entry.nodes, anchor), preds);
  }

  [[gnu::noinline]] StatusOr<Sequence> ApplyPredicates(Sequence in,
                                     std::span<const ExprPtr> preds) {
    for (const ExprPtr& pred : preds) {
      Sequence filtered;
      Focus saved = focus_;
      int64_t size = static_cast<int64_t>(in.size());
      for (size_t i = 0; i < in.size(); ++i) {
        focus_.item = in[i];
        focus_.position = static_cast<int64_t>(i + 1);
        focus_.size = size;
        auto value = Eval(*pred);
        if (!value.ok()) {
          focus_ = saved;
          return value.status();
        }
        auto keep = PredicateTruth(value.value(), focus_.position);
        if (!keep.ok()) {
          focus_ = saved;
          return keep.status();
        }
        if (keep.value()) filtered.push_back(in[i]);
      }
      focus_ = saved;
      in = std::move(filtered);
    }
    return in;
  }

  // ------------------------------------------------------- function calls

  [[gnu::noinline]] StatusOr<Sequence> EvalFunctionCall(const Expr& e) {
    XRPC_ASSIGN_OR_RETURN(std::vector<Sequence> args, EvalEach(e.children));

    // User-defined functions: current module, then imported modules.
    const LibraryModule* def_module = nullptr;
    const Scope& scope = CurrentScope();
    const FunctionDef* def = scope.prolog->FindFunction(e.name, args.size());
    if (def == nullptr) {
      auto it = scope.imports_by_ns.find(e.name.ns_uri);
      if (it != scope.imports_by_ns.end()) {
        def = it->second->FindFunction(e.name, e.children.size());
        def_module = it->second;
      }
    }
    if (def != nullptr) {
      return CallUserFunction(*def, def_module, std::move(args));
    }

    XRPC_ASSIGN_OR_RETURN(const Builtin* builtin,
                          FindBuiltin(e.name, args.size()));
    FunctionContext ctx;
    ctx.item = focus_.item.has_value() ? &*focus_.item : nullptr;
    ctx.position = focus_.position;
    ctx.size = focus_.size;
    ctx.documents = cfg_.documents;
    ctx.pul = &pul_;
    return (*builtin)(e.name, args, ctx);
  }

  StatusOr<Sequence> CallUserFunction(const FunctionDef& def,
                                      const LibraryModule* module,
                                      std::vector<Sequence> args) {
    if (++call_depth_ > kMaxCallDepth) {
      --call_depth_;
      return RecursionLimitExceeded();
    }
    size_t env_mark = vars_.size();
    size_t scope_mark = scopes_.size();
    Focus saved_focus = focus_;
    focus_ = Focus{};

    Status st = Status::OK();
    Sequence result;
    do {
      if (module != nullptr) {
        auto scope_or = BuildScope(&module->prolog, module->target_ns);
        if (!scope_or.ok()) {
          st = scope_or.status();
          break;
        }
        scopes_.push_back(std::move(scope_or).value());
      }
      for (size_t i = 0; i < args.size(); ++i) {
        auto coerced = CoerceToType(std::move(args[i]), def.params[i].type);
        if (!coerced.ok()) {
          st = coerced.status();
          break;
        }
        vars_.emplace_back(def.params[i].name.Clark(),
                           std::move(coerced).value());
      }
      if (!st.ok()) break;
      auto body = Eval(*def.body);
      if (!body.ok()) {
        st = body.status();
        break;
      }
      result = std::move(body).value();
    } while (false);

    vars_.resize(env_mark);
    scopes_.resize(scope_mark);
    focus_ = saved_focus;
    --call_depth_;
    XRPC_RETURN_IF_ERROR(st);
    return result;
  }

  // ------------------------------------------------------------ XRPC call

  [[gnu::noinline]] StatusOr<Sequence> EvalExecuteAt(const Expr& e) {
    if (cfg_.rpc == nullptr) {
      return EvalError("no RPC handler configured for 'execute at'");
    }
    XRPC_ASSIGN_OR_RETURN(Sequence dest_s, Eval(*e.children[0]));
    XRPC_ASSIGN_OR_RETURN(AtomicValue dest_a, AtomizeOne(dest_s, "execute at"));

    RpcCall call;
    call.dest_uri = dest_a.ToString();
    call.function = e.name;
    call.module_ns = e.name.ns_uri;
    const Scope& scope = CurrentScope();
    auto loc = scope.location_by_ns.find(e.name.ns_uri);
    if (loc != scope.location_by_ns.end()) {
      call.module_location = loc->second;
    }
    // If the module is resolvable locally, detect updating functions so the
    // protocol can route the call through the update path.
    auto imp = scope.imports_by_ns.find(e.name.ns_uri);
    if (imp != scope.imports_by_ns.end()) {
      const FunctionDef* def =
          imp->second->FindFunction(e.name, e.children.size() - 1);
      if (def != nullptr) call.updating = def->updating;
    }
    for (size_t i = 1; i < e.children.size(); ++i) {
      XRPC_ASSIGN_OR_RETURN(Sequence a, Eval(*e.children[i]));
      call.args.push_back(std::move(a));
    }
    return cfg_.rpc->Execute(call);
  }

  // ------------------------------------------ constructors and updates

  template <typename Exprs>
  StatusOr<std::vector<Sequence>> EvalEach(const Exprs& exprs) {
    std::vector<Sequence> out;
    out.reserve(exprs.size());
    for (const auto& x : exprs) {
      XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(*x));
      out.push_back(std::move(v));
    }
    return out;
  }

  [[gnu::noinline]] StatusOr<Sequence> EvalConstructor(const Expr& e) {
    XRPC_ASSIGN_OR_RETURN(std::vector<Sequence> operands,
                          EvalEach(ConstructorOperands(e)));
    return Construct(e, operands);
  }

  [[gnu::noinline]] StatusOr<Sequence> EvalUpdating(const Expr& e) {
    XRPC_ASSIGN_OR_RETURN(std::vector<Sequence> operands,
                          EvalEach(e.children));
    XRPC_RETURN_IF_ERROR(AddUpdatePrimitives(e, operands, &pul_));
    return Sequence{};
  }

  const Interpreter::Config& cfg_;
  std::vector<std::pair<std::string, Sequence>> vars_;
  std::vector<Scope> scopes_;
  Focus focus_;
  /// Used when the configuration supplies no index or no counters.
  PathIndex own_index_;
  PathIndex::Counters own_counters_;
  PathIndex* path_index_ =
      cfg_.path_index != nullptr ? cfg_.path_index : &own_index_;
  PathIndex::Counters* counters_ =
      cfg_.index_counters != nullptr ? cfg_.index_counters : &own_counters_;
  PendingUpdateList pul_;
  int depth_ = 0;
  int call_depth_ = 0;
};

}  // namespace

StatusOr<QueryResult> Interpreter::EvaluateQuery(
    const MainModule& query) const {
  Evaluator ev(config_);
  return ev.RunQuery(query);
}

StatusOr<std::vector<QueryResult>> Interpreter::CallModuleFunction(
    const LibraryModule& module, const FunctionDef& function,
    std::vector<std::vector<xdm::Sequence>> calls) const {
  Evaluator ev(config_);
  return ev.RunFunction(module, function, std::move(calls));
}

}  // namespace xrpc::xquery
