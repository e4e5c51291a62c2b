#include "xquery/interpreter.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>

#include "base/string_util.h"
#include "xml/serializer.h"

namespace xrpc::xquery {

namespace {

using xdm::AtomicType;
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
/// calls of one request; it owns the variable environment, the focus, the
/// pending update list, and the path memo.
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
  /// memo and join indexes persist across calls. Each call gets fresh
  /// parameter bindings and its own pending update list.
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

  StatusOr<const Sequence*> LookupVar(const QName& name) const {
    std::string key = name.Clark();
    for (auto it = vars_.rbegin(); it != vars_.rend(); ++it) {
      if (it->first == key) return &it->second;
    }
    return Status::EvalError("unbound variable $" + name.Lexical());
  }

  /// Atomizes a sequence expected to hold exactly one item; error otherwise.
  StatusOr<AtomicValue> AtomizeOne(const Sequence& seq,
                                   const char* what) const {
    if (seq.size() != 1) {
      return Status::TypeError(std::string(what) +
                               ": expected exactly one item, got " +
                               std::to_string(seq.size()));
    }
    return seq[0].Atomize();
  }

  /// Coerces a value to a declared sequence type (function parameter /
  /// return): occurrence check plus atomic up-casting (the caller-side
  /// casting the XRPC protocol requires).
  StatusOr<Sequence> CoerceToType(Sequence seq, const SequenceType& type) {
    switch (type.occurrence) {
      case Occurrence::kOne:
        if (seq.size() != 1) {
          return Status::TypeError("expected exactly one item for type " +
                                   type.ToString());
        }
        break;
      case Occurrence::kZeroOrOne:
        if (seq.size() > 1) {
          return Status::TypeError("expected at most one item for type " +
                                   type.ToString());
        }
        break;
      case Occurrence::kOneOrMore:
        if (seq.empty()) {
          return Status::TypeError("expected at least one item for type " +
                                   type.ToString());
        }
        break;
      case Occurrence::kZeroOrMore:
        break;
    }
    if (type.kind == SequenceType::ItemKind::kAtomic) {
      for (Item& item : seq) {
        AtomicValue v = item.Atomize();
        if (v.type() != type.atomic) {
          XRPC_ASSIGN_OR_RETURN(v, v.CastTo(type.atomic));
        }
        item = Item(std::move(v));
      }
    } else if (type.kind != SequenceType::ItemKind::kItem &&
               type.kind != SequenceType::ItemKind::kEmpty) {
      for (const Item& item : seq) {
        if (!item.IsNode()) {
          return Status::TypeError("expected a node for type " +
                                   type.ToString());
        }
      }
    }
    return seq;
  }

  bool MatchesSequenceType(const Sequence& seq, const SequenceType& type) {
    switch (type.occurrence) {
      case Occurrence::kOne:
        if (seq.size() != 1) return false;
        break;
      case Occurrence::kZeroOrOne:
        if (seq.size() > 1) return false;
        break;
      case Occurrence::kOneOrMore:
        if (seq.empty()) return false;
        break;
      case Occurrence::kZeroOrMore:
        break;
    }
    for (const Item& item : seq) {
      switch (type.kind) {
        case SequenceType::ItemKind::kItem:
          break;
        case SequenceType::ItemKind::kEmpty:
          return false;
        case SequenceType::ItemKind::kAtomic:
          if (!item.IsAtomic() || item.atomic().type() != type.atomic) {
            return false;
          }
          break;
        case SequenceType::ItemKind::kNode:
          if (!item.IsNode()) return false;
          break;
        case SequenceType::ItemKind::kElement:
          if (!item.IsNode() || item.node()->kind() != NodeKind::kElement) {
            return false;
          }
          break;
        case SequenceType::ItemKind::kAttribute:
          if (!item.IsNode() || item.node()->kind() != NodeKind::kAttribute) {
            return false;
          }
          break;
        case SequenceType::ItemKind::kDocument:
          if (!item.IsNode() || item.node()->kind() != NodeKind::kDocument) {
            return false;
          }
          break;
        case SequenceType::ItemKind::kText:
          if (!item.IsNode() || item.node()->kind() != NodeKind::kText) {
            return false;
          }
          break;
      }
    }
    if (type.kind == SequenceType::ItemKind::kEmpty) return seq.empty();
    return true;
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
    if (++depth_ > cfg_.max_recursion_depth * 16) {
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
      case ExprKind::kSequence: {
        Sequence out;
        for (const ExprPtr& c : e.children) {
          XRPC_ASSIGN_OR_RETURN(Sequence part, Eval(*c));
          out.insert(out.end(), part.begin(), part.end());
        }
        return out;
      }
      case ExprKind::kRange:
        return EvalRange(e);
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
        XRPC_ASSIGN_OR_RETURN(Sequence cond, Eval(*e.children[0]));
        XRPC_ASSIGN_OR_RETURN(bool b, xdm::EffectiveBooleanValue(cond));
        return Eval(b ? *e.children[1] : *e.children[2]);
      }
      case ExprKind::kQuantified:
        return EvalQuantified(e);
      case ExprKind::kOr: {
        XRPC_ASSIGN_OR_RETURN(Sequence l, Eval(*e.children[0]));
        XRPC_ASSIGN_OR_RETURN(bool lb, xdm::EffectiveBooleanValue(l));
        if (lb) return xdm::SingletonBool(true);
        XRPC_ASSIGN_OR_RETURN(Sequence r, Eval(*e.children[1]));
        XRPC_ASSIGN_OR_RETURN(bool rb, xdm::EffectiveBooleanValue(r));
        return xdm::SingletonBool(rb);
      }
      case ExprKind::kAnd: {
        XRPC_ASSIGN_OR_RETURN(Sequence l, Eval(*e.children[0]));
        XRPC_ASSIGN_OR_RETURN(bool lb, xdm::EffectiveBooleanValue(l));
        if (!lb) return xdm::SingletonBool(false);
        XRPC_ASSIGN_OR_RETURN(Sequence r, Eval(*e.children[1]));
        XRPC_ASSIGN_OR_RETURN(bool rb, xdm::EffectiveBooleanValue(r));
        return xdm::SingletonBool(rb);
      }
      case ExprKind::kComparison:
        return EvalComparison(e);
      case ExprKind::kArith:
        return EvalArith(e);
      case ExprKind::kUnaryMinus: {
        XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0]));
        if (v.empty()) return v;
        XRPC_ASSIGN_OR_RETURN(AtomicValue a, AtomizeOne(v, "unary minus"));
        if (a.type() == AtomicType::kInteger) {
          return xdm::SingletonInt(-a.AsInteger());
        }
        XRPC_ASSIGN_OR_RETURN(AtomicValue d, a.CastTo(AtomicType::kDouble));
        return xdm::SingletonDouble(-d.AsDouble());
      }
      case ExprKind::kUnion: {
        XRPC_ASSIGN_OR_RETURN(Sequence l, Eval(*e.children[0]));
        XRPC_ASSIGN_OR_RETURN(Sequence r, Eval(*e.children[1]));
        l.insert(l.end(), r.begin(), r.end());
        XRPC_RETURN_IF_ERROR(xdm::SortByDocumentOrder(&l));
        return l;
      }
      case ExprKind::kPath:
        return EvalPath(e);
      case ExprKind::kFilter: {
        XRPC_ASSIGN_OR_RETURN(Sequence in, Eval(*e.children[0]));
        return ApplyPredicates(std::move(in), e.predicates);
      }
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
      case ExprKind::kCastAs: {
        XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0]));
        if (v.empty()) {
          if (e.seq_type.occurrence == Occurrence::kZeroOrOne) return v;
          return Status::TypeError("cast of empty sequence");
        }
        XRPC_ASSIGN_OR_RETURN(AtomicValue a, AtomizeOne(v, "cast"));
        if (e.seq_type.kind != SequenceType::ItemKind::kAtomic) {
          return Status::TypeError("cast target must be an atomic type");
        }
        XRPC_ASSIGN_OR_RETURN(AtomicValue c, a.CastTo(e.seq_type.atomic));
        return Sequence{Item(std::move(c))};
      }
      case ExprKind::kCastableAs: {
        XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0]));
        if (v.empty()) {
          return xdm::SingletonBool(e.seq_type.occurrence ==
                                    Occurrence::kZeroOrOne);
        }
        if (v.size() > 1 ||
            e.seq_type.kind != SequenceType::ItemKind::kAtomic) {
          return xdm::SingletonBool(false);
        }
        auto c = v[0].Atomize().CastTo(e.seq_type.atomic);
        return xdm::SingletonBool(c.ok());
      }
      case ExprKind::kInstanceOf: {
        XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0]));
        return xdm::SingletonBool(MatchesSequenceType(v, e.seq_type));
      }
      case ExprKind::kTreatAs: {
        XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0]));
        if (!MatchesSequenceType(v, e.seq_type)) {
          return Status::TypeError("treat as " + e.seq_type.ToString() +
                                   " failed");
        }
        return v;
      }
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

  StatusOr<Sequence> EvalRange(const Expr& e) {
    XRPC_ASSIGN_OR_RETURN(Sequence lo_s, Eval(*e.children[0]));
    XRPC_ASSIGN_OR_RETURN(Sequence hi_s, Eval(*e.children[1]));
    if (lo_s.empty() || hi_s.empty()) return Sequence{};
    XRPC_ASSIGN_OR_RETURN(AtomicValue lo_a, AtomizeOne(lo_s, "range"));
    XRPC_ASSIGN_OR_RETURN(AtomicValue hi_a, AtomizeOne(hi_s, "range"));
    XRPC_ASSIGN_OR_RETURN(AtomicValue lo, lo_a.CastTo(AtomicType::kInteger));
    XRPC_ASSIGN_OR_RETURN(AtomicValue hi, hi_a.CastTo(AtomicType::kInteger));
    Sequence out;
    int64_t a = lo.AsInteger(), b = hi.AsInteger();
    if (a > b) return out;
    if (b - a > 100'000'000) return EvalError("range too large");
    out.reserve(static_cast<size_t>(b - a + 1));
    for (int64_t i = a; i <= b; ++i) out.push_back(Item(AtomicValue::Integer(i)));
    return out;
  }

  StatusOr<Sequence> EvalFlwor(const Expr& e) {
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

  StatusOr<Sequence> EvalQuantified(const Expr& e) {
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

  StatusOr<Sequence> EvalComparison(const Expr& e) {
    XRPC_ASSIGN_OR_RETURN(Sequence l, Eval(*e.children[0]));
    XRPC_ASSIGN_OR_RETURN(Sequence r, Eval(*e.children[1]));
    switch (e.comp_op) {
      case CompOp::kNodeIs:
      case CompOp::kNodeBefore:
      case CompOp::kNodeAfter: {
        if (l.empty() || r.empty()) return Sequence{};
        if (l.size() != 1 || r.size() != 1 || !l[0].IsNode() ||
            !r[0].IsNode()) {
          return Status::TypeError("node comparison requires single nodes");
        }
        int c = xml::CompareDocumentOrder(l[0].node(), r[0].node());
        bool v = e.comp_op == CompOp::kNodeIs
                     ? l[0].node() == r[0].node()
                     : (e.comp_op == CompOp::kNodeBefore ? c < 0 : c > 0);
        return xdm::SingletonBool(v);
      }
      default:
        break;
    }

    bool value_comp = e.comp_op == CompOp::kValEq ||
                      e.comp_op == CompOp::kValNe ||
                      e.comp_op == CompOp::kValLt ||
                      e.comp_op == CompOp::kValLe ||
                      e.comp_op == CompOp::kValGt || e.comp_op == CompOp::kValGe;

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

    if (value_comp) {
      if (l.empty() || r.empty()) return Sequence{};
      XRPC_ASSIGN_OR_RETURN(AtomicValue la, AtomizeOne(l, "value comparison"));
      XRPC_ASSIGN_OR_RETURN(AtomicValue ra, AtomizeOne(r, "value comparison"));
      // Value comparison treats untypedAtomic as string.
      if (la.type() == AtomicType::kUntypedAtomic) {
        la = AtomicValue::String(la.ToString());
      }
      if (ra.type() == AtomicType::kUntypedAtomic) {
        ra = AtomicValue::String(ra.ToString());
      }
      XRPC_ASSIGN_OR_RETURN(int c, xdm::CompareAtomic(la, ra));
      return xdm::SingletonBool(satisfied(c));
    }

    // General comparison: existential over atomized operands.
    std::vector<AtomicValue> la = xdm::AtomizeSequence(l);
    std::vector<AtomicValue> ra = xdm::AtomizeSequence(r);
    for (const AtomicValue& a : la) {
      for (const AtomicValue& b : ra) {
        XRPC_ASSIGN_OR_RETURN(int c, xdm::CompareAtomic(a, b));
        if (satisfied(c)) return xdm::SingletonBool(true);
      }
    }
    return xdm::SingletonBool(false);
  }

  StatusOr<Sequence> EvalArith(const Expr& e) {
    XRPC_ASSIGN_OR_RETURN(Sequence l, Eval(*e.children[0]));
    XRPC_ASSIGN_OR_RETURN(Sequence r, Eval(*e.children[1]));
    if (l.empty() || r.empty()) return Sequence{};
    XRPC_ASSIGN_OR_RETURN(AtomicValue la, AtomizeOne(l, "arithmetic"));
    XRPC_ASSIGN_OR_RETURN(AtomicValue ra, AtomizeOne(r, "arithmetic"));
    if (la.type() == AtomicType::kUntypedAtomic) {
      XRPC_ASSIGN_OR_RETURN(la, la.CastTo(AtomicType::kDouble));
    }
    if (ra.type() == AtomicType::kUntypedAtomic) {
      XRPC_ASSIGN_OR_RETURN(ra, ra.CastTo(AtomicType::kDouble));
    }
    if (!la.IsNumeric() || !ra.IsNumeric()) {
      return Status::TypeError("arithmetic on non-numeric operands");
    }
    bool both_int = la.type() == AtomicType::kInteger &&
                    ra.type() == AtomicType::kInteger;
    switch (e.arith_op) {
      case ArithOp::kAdd:
        if (both_int) return xdm::SingletonInt(la.AsInteger() + ra.AsInteger());
        return xdm::SingletonDouble(la.AsDouble() + ra.AsDouble());
      case ArithOp::kSub:
        if (both_int) return xdm::SingletonInt(la.AsInteger() - ra.AsInteger());
        return xdm::SingletonDouble(la.AsDouble() - ra.AsDouble());
      case ArithOp::kMul:
        if (both_int) return xdm::SingletonInt(la.AsInteger() * ra.AsInteger());
        return xdm::SingletonDouble(la.AsDouble() * ra.AsDouble());
      case ArithOp::kDiv: {
        double d = ra.AsDouble();
        if (both_int && d == 0) return EvalError("division by zero (FOAR0001)");
        return xdm::SingletonDouble(la.AsDouble() / d);
      }
      case ArithOp::kIDiv: {
        if (ra.AsDouble() == 0) return EvalError("division by zero (FOAR0001)");
        return xdm::SingletonInt(
            static_cast<int64_t>(std::trunc(la.AsDouble() / ra.AsDouble())));
      }
      case ArithOp::kMod: {
        if (both_int) {
          if (ra.AsInteger() == 0) {
            return EvalError("division by zero (FOAR0001)");
          }
          return xdm::SingletonInt(la.AsInteger() % ra.AsInteger());
        }
        return xdm::SingletonDouble(std::fmod(la.AsDouble(), ra.AsDouble()));
      }
    }
    return Status::Internal("unhandled arithmetic op");
  }

  // ---------------------------------------------------------------- paths

  StatusOr<Sequence> EvalPath(const Expr& e) {
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

    // Path memo: the predicate-free step prefix applied to one source node
    // is deterministic while documents do not change, which holds for a
    // whole request. So bulk calls that re-apply the same path (the
    // semi-join's Q_B3, the wrapper's generated query) pay the scan once;
    // this is the amortization the paper observes in Saxon's bulk exec
    // times. When the step after the prefix filters with plain
    // comparisons, its candidates are memoized as well, and each call
    // reduces to a probe of the entry's join index. Only nodes of
    // document-rooted trees are memoized: calls share those, while
    // constructed trees are per call. An entry whose tree was mutated
    // since (a nested update applied mid-request) is rebuilt.
    size_t prefix = 0;
    while (prefix < e.steps.size() && e.steps[prefix].predicates.empty()) {
      ++prefix;
    }
    size_t first_step = 0;
    Node* root = input.size() == 1 && input[0].IsNode()
                     ? input[0].node()->Root()
                     : nullptr;
    if (prefix > 0 && root != nullptr && root->kind() == NodeKind::kDocument) {
      const bool plain =
          prefix < e.steps.size() && HasPlainPredicates(e.steps[prefix]);
      PathMemoKey key{&e, input[0].node()};
      auto it = path_memo_.find(key);
      if (it == path_memo_.end() ||
          it->second.stamp != root->mutation_stamp()) {
        PathMemoEntry entry;
        entry.anchor = root->shared_from_this();
        entry.stamp = root->mutation_stamp();
        entry.prefix = std::move(input);
        for (size_t i = 0; i < prefix; ++i) {
          XRPC_ASSIGN_OR_RETURN(entry.prefix,
                                EvalStep(entry.prefix, e.steps[i]));
        }
        if (plain) {
          XRPC_ASSIGN_OR_RETURN(
              entry.candidates,
              CollectStepCandidates(entry.prefix, e.steps[prefix]));
        }
        it = path_memo_.insert_or_assign(key, std::move(entry)).first;
      }
      PathMemoEntry& entry = it->second;
      if (plain) {
        XRPC_ASSIGN_OR_RETURN(
            input, FilterMemoizedCandidates(&entry, e.steps[prefix]));
        first_step = prefix + 1;
      } else {
        input = entry.prefix;
        first_step = prefix;
      }
    }
    for (size_t i = first_step; i < e.steps.size(); ++i) {
      XRPC_ASSIGN_OR_RETURN(input, EvalStep(input, e.steps[i]));
    }
    return input;
  }

  /// Forward axes emit results already in document order and free of
  /// duplicates when expanding a single context node; the sort-and-dedup
  /// pass is only needed otherwise.
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

  /// True if the expression (transitively) calls fn:position or fn:last —
  /// such predicates depend on the per-context-node candidate grouping.
  static bool HasPositionalRef(const Expr& e) {
    if (e.kind == ExprKind::kFunctionCall && e.name.ns_uri == kFnNs &&
        (e.name.local == "position" || e.name.local == "last")) {
      return true;
    }
    for (const ExprPtr& c : e.children) {
      if (c && HasPositionalRef(*c)) return true;
    }
    for (const FlworClause& c : e.clauses) {
      if (c.expr && HasPositionalRef(*c.expr)) return true;
    }
    if (e.where && HasPositionalRef(*e.where)) return true;
    if (e.ret && HasPositionalRef(*e.ret)) return true;
    for (const ExprPtr& pr : e.predicates) {
      if (pr && HasPositionalRef(*pr)) return true;
    }
    for (const PathStep& st : e.steps) {
      for (const ExprPtr& pr : st.predicates) {
        if (pr && HasPositionalRef(*pr)) return true;
      }
    }
    return false;
  }

  /// Collects a step's axis/test output for every input node, without
  /// applying predicates; result in document order, duplicate-free.
  StatusOr<Sequence> CollectStepCandidates(const Sequence& input,
                                           const PathStep& step) {
    Sequence result;
    for (const Item& item : input) {
      if (!item.IsNode()) {
        return Status::TypeError("path step applied to an atomic value");
      }
      CollectAxis(item, step.axis, step.test, &result);
    }
    if (input.size() == 1 && IsForwardAxis(step.axis)) return result;
    XRPC_RETURN_IF_ERROR(xdm::SortByDocumentOrder(&result));
    return result;
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

  static bool TestMatches(const Node& n, const NodeTest& test, Axis axis) {
    switch (test.kind) {
      case NodeTest::Kind::kAnyKind:
        return true;
      case NodeTest::Kind::kText:
        return n.kind() == NodeKind::kText;
      case NodeTest::Kind::kComment:
        return n.kind() == NodeKind::kComment;
      case NodeTest::Kind::kPi:
        return n.kind() == NodeKind::kProcessingInstruction;
      case NodeTest::Kind::kElement:
        return n.kind() == NodeKind::kElement;
      case NodeTest::Kind::kAttribute:
        return n.kind() == NodeKind::kAttribute;
      case NodeTest::Kind::kDocument:
        return n.kind() == NodeKind::kDocument;
      case NodeTest::Kind::kName: {
        NodeKind principal = axis == Axis::kAttribute ? NodeKind::kAttribute
                                                      : NodeKind::kElement;
        if (n.kind() != principal) return false;
        if (test.wildcard) return true;
        return n.name() == test.name;
      }
    }
    return false;
  }

  void CollectAxis(const Item& item, Axis axis, const NodeTest& test,
                   Sequence* out) {
    Node* n = item.node();
    const NodePtr& anchor = item.anchor();
    auto emit = [&](Node* m) {
      if (TestMatches(*m, test, axis)) {
        out->push_back(Item::NodeInTree(m, anchor));
      }
    };
    switch (axis) {
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
        CollectDescendants(n, test, axis, anchor, out);
        return;
      case Axis::kDescendantOrSelf:
        emit(n);
        CollectDescendants(n, test, axis, anchor, out);
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
        for (size_t i = n->IndexInParent() + 1; i < parent->children().size();
             ++i) {
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

  void CollectDescendants(Node* n, const NodeTest& test, Axis axis,
                          const NodePtr& anchor, Sequence* out) {
    for (const NodePtr& c : n->children()) {
      if (TestMatches(*c, test, axis)) {
        out->push_back(Item::NodeInTree(c.get(), anchor));
      }
      CollectDescendants(c.get(), test, axis, anchor, out);
    }
  }

  // ---- Join detection (the optimization the paper observes in Saxon):
  // a predicate of the form [path-from-context = $var] applied repeatedly
  // to the same memoized candidate set (as the calls of a bulk request
  // do) is executed through a hash index on the path's string value,
  // turning the per-call selection into a join. The index is built once
  // per memo entry and lives as long as the entry.

  /// True if a step has predicates and all of them are comparisons free
  /// of position()/last(): filtering the step's candidates as one set then
  /// equals filtering them per context node.
  static bool HasPlainPredicates(const PathStep& step) {
    if (step.predicates.empty()) return false;
    for (const ExprPtr& pred : step.predicates) {
      if (pred->kind != ExprKind::kComparison || HasPositionalRef(*pred)) {
        return false;
      }
    }
    return true;
  }

  /// True for a path evaluated from the context item using only downward
  /// axes and no nested predicates (safe to index).
  static bool IsDownwardContextPath(const Expr& e) {
    if (e.kind != ExprKind::kPath) return false;
    if (e.root_path) return false;
    if (e.children[0] != nullptr &&
        e.children[0]->kind != ExprKind::kContextItem) {
      return false;
    }
    for (const PathStep& s : e.steps) {
      if (s.axis != Axis::kChild && s.axis != Axis::kDescendant &&
          s.axis != Axis::kDescendantOrSelf && s.axis != Axis::kAttribute &&
          s.axis != Axis::kSelf) {
        return false;
      }
      if (!s.predicates.empty()) return false;
    }
    return true;
  }

  static bool IsContextIndependent(const Expr& e) {
    return e.kind == ExprKind::kVarRef || e.kind == ExprKind::kLiteral;
  }

  /// Returns the indexable (key-path, probe) orientation of an equality
  /// predicate, or nullptr key path if not indexable.
  static std::pair<const Expr*, const Expr*> IndexableEquality(
      const Expr& pred) {
    if (pred.kind != ExprKind::kComparison ||
        pred.comp_op != CompOp::kGenEq) {
      return {nullptr, nullptr};
    }
    const Expr* l = pred.children[0].get();
    const Expr* r = pred.children[1].get();
    if (IsDownwardContextPath(*l) && IsContextIndependent(*r)) return {l, r};
    if (IsDownwardContextPath(*r) && IsContextIndependent(*l)) return {r, l};
    return {nullptr, nullptr};
  }

  /// Key-path string value -> position in the indexed candidates.
  using JoinIndex = std::unordered_multimap<std::string, size_t>;

  /// A path memo entry: see EvalPath.
  struct PathMemoEntry {
    /// Pins the keyed tree, so no other tree can take the key node's
    /// address while the entry lives.
    NodePtr anchor;
    uint64_t stamp = 0;   ///< the tree's mutation stamp when built
    Sequence prefix;      ///< result of the predicate-free step prefix
    Sequence candidates;  ///< next step's unfiltered output, if plain
    /// Over `candidates`, for that step's first predicate; built on use.
    std::optional<JoinIndex> index;
  };

  StatusOr<JoinIndex> BuildJoinIndex(const Sequence& in,
                                     const Expr& key_path) {
    JoinIndex index;
    Focus saved = focus_;
    for (size_t i = 0; i < in.size(); ++i) {
      focus_.item = in[i];
      focus_.position = static_cast<int64_t>(i + 1);
      focus_.size = static_cast<int64_t>(in.size());
      auto keys = Eval(key_path);
      if (!keys.ok()) {
        focus_ = saved;
        return keys.status();
      }
      for (const Item& k : keys.value()) index.emplace(k.StringValue(), i);
    }
    focus_ = saved;
    return index;
  }

  /// Filters a memo entry's candidates by the predicates of `step`. An
  /// indexable first predicate is answered through the entry's join
  /// index, but only when all probe values are string-comparable
  /// (string/untypedAtomic/anyURI), where string equality coincides with
  /// XQuery general-comparison semantics.
  StatusOr<Sequence> FilterMemoizedCandidates(PathMemoEntry* entry,
                                              const PathStep& step) {
    const Sequence& in = entry->candidates;
    std::span<const ExprPtr> preds = step.predicates;
    auto [key_path, probe] = IndexableEquality(*preds[0]);
    if (key_path == nullptr || in.size() < 16) {
      return ApplyPredicates(in, preds);
    }
    XRPC_ASSIGN_OR_RETURN(Sequence probe_seq, Eval(*probe));
    for (const Item& p : probe_seq) {
      AtomicType t = p.Atomize().type();
      if (t != AtomicType::kString && t != AtomicType::kUntypedAtomic &&
          t != AtomicType::kAnyUri) {
        return ApplyPredicates(in, preds);
      }
    }
    if (!entry->index.has_value()) {
      XRPC_ASSIGN_OR_RETURN(entry->index, BuildJoinIndex(in, *key_path));
    }
    std::set<size_t> hits;
    for (const Item& p : probe_seq) {
      auto [lo, hi] = entry->index->equal_range(p.StringValue());
      for (auto h = lo; h != hi; ++h) hits.insert(h->second);
    }
    Sequence kept;
    for (size_t i : hits) kept.push_back(in[i]);
    return ApplyPredicates(std::move(kept), preds.subspan(1));
  }

  StatusOr<Sequence> ApplyPredicates(Sequence in,
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
        const Sequence& v = value.value();
        bool keep;
        if (v.size() == 1 && v[0].IsAtomic() && v[0].atomic().IsNumeric()) {
          keep = v[0].atomic().AsDouble() ==
                 static_cast<double>(focus_.position);
        } else {
          auto ebv = xdm::EffectiveBooleanValue(v);
          if (!ebv.ok()) {
            focus_ = saved;
            return ebv.status();
          }
          keep = ebv.value();
        }
        if (keep) filtered.push_back(in[i]);
      }
      focus_ = saved;
      in = std::move(filtered);
    }
    return in;
  }

  // ------------------------------------------------------- function calls

  StatusOr<Sequence> EvalFunctionCall(const Expr& e) {
    // xs:TYPE(value) constructor functions.
    if (e.name.ns_uri == xml::kXsNs) {
      if (e.children.size() != 1) {
        return Status::TypeError("constructor function takes one argument");
      }
      XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0]));
      if (v.empty()) return v;
      XRPC_ASSIGN_OR_RETURN(AtomicValue a, AtomizeOne(v, "constructor"));
      XRPC_ASSIGN_OR_RETURN(AtomicType t,
                            xdm::AtomicTypeFromName("xs:" + e.name.local));
      XRPC_ASSIGN_OR_RETURN(AtomicValue c, a.CastTo(t));
      return Sequence{Item(std::move(c))};
    }

    // Focus-dependent built-ins are handled before argument evaluation.
    if (e.name.ns_uri == kFnNs) {
      if (e.name.local == "position" && e.children.empty()) {
        if (focus_.position == 0) return EvalError("fn:position: no context");
        return xdm::SingletonInt(focus_.position);
      }
      if (e.name.local == "last" && e.children.empty()) {
        if (focus_.position == 0) return EvalError("fn:last: no context");
        return xdm::SingletonInt(focus_.size);
      }
    }

    std::vector<Sequence> args;
    args.reserve(e.children.size());
    for (const ExprPtr& c : e.children) {
      XRPC_ASSIGN_OR_RETURN(Sequence a, Eval(*c));
      args.push_back(std::move(a));
    }

    // User-defined functions: current module, then imported modules.
    const FunctionDef* def = nullptr;
    const LibraryModule* def_module = nullptr;
    const Scope& scope = CurrentScope();
    for (const FunctionDef& f : scope.prolog->functions) {
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
      return CallUserFunction(*def, def_module, std::move(args));
    }

    if (e.name.ns_uri == kFnNs || e.name.ns_uri == xml::kXrpcNs) {
      return EvalBuiltin(e.name, std::move(args));
    }
    return Status::NotFound("unknown function " + e.name.Clark() + "#" +
                            std::to_string(e.children.size()));
  }

  StatusOr<Sequence> CallUserFunction(const FunctionDef& def,
                                      const LibraryModule* module,
                                      std::vector<Sequence> args) {
    if (++call_depth_ > cfg_.max_recursion_depth) {
      --call_depth_;
      return EvalError("function recursion limit exceeded");
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

  StatusOr<Sequence> EvalExecuteAt(const Expr& e) {
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

  // ---------------------------------------------------------- constructors

  /// Appends evaluated content items to a parent node per the XQuery
  /// constructor content rules: adjacent atomic values join with a space
  /// into one text node; node items are deep-copied; document nodes
  /// contribute their children.
  Status BuildContent(Node* parent, const Sequence& items) {
    std::string pending_text;
    bool has_pending = false;
    auto flush = [&]() {
      if (has_pending && !pending_text.empty()) {
        parent->AppendChild(Node::NewText(pending_text));
      }
      pending_text.clear();
      has_pending = false;
    };
    for (const Item& item : items) {
      if (item.IsAtomic()) {
        if (has_pending) pending_text += " ";
        pending_text += item.atomic().ToString();
        has_pending = true;
        continue;
      }
      const Node* n = item.node();
      if (n->kind() == NodeKind::kAttribute) {
        flush();
        parent->SetAttribute(n->Clone());
        continue;
      }
      if (n->kind() == NodeKind::kDocument) {
        flush();
        for (const NodePtr& c : n->children()) {
          parent->AppendChild(c->Clone());
        }
        continue;
      }
      flush();
      parent->AppendChild(n->Clone());
    }
    flush();
    return Status::OK();
  }

  StatusOr<std::string> ContentString(const Expr& e) {
    std::string out;
    bool first = true;
    for (const ExprPtr& c : e.children) {
      XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(*c));
      if (c->kind == ExprKind::kLiteral) {
        out += v.empty() ? "" : v[0].StringValue();
        first = false;
        continue;
      }
      for (const Item& item : v) {
        if (!first) {
          // Items from one enclosed expression join with spaces.
        }
        if (!out.empty() && !first) out += " ";
        out += item.StringValue();
        first = false;
      }
    }
    return out;
  }

  StatusOr<xml::QName> ComputedName(const Expr& e) {
    if (e.name_expr == nullptr) return e.name;
    XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.name_expr));
    XRPC_ASSIGN_OR_RETURN(AtomicValue a, AtomizeOne(v, "computed name"));
    std::string lex = a.ToString();
    size_t colon = lex.find(':');
    if (colon == std::string::npos) return xml::QName(lex);
    // A computed prefixed name without static scope information: keep the
    // prefix lexically, no URI (sufficient for rename of same-document
    // names).
    return xml::QName("", lex.substr(colon + 1), lex.substr(0, colon));
  }

  StatusOr<Sequence> EvalConstructor(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kElementCtor: {
        XRPC_ASSIGN_OR_RETURN(xml::QName name, ComputedName(e));
        NodePtr elem = Node::NewElement(std::move(name));
        for (const ExprPtr& attr : e.attributes) {
          XRPC_ASSIGN_OR_RETURN(std::string value, ContentString(*attr));
          elem->SetAttribute(
              Node::NewAttribute(attr->name, std::move(value)));
        }
        for (const ExprPtr& c : e.children) {
          if (c->kind == ExprKind::kTextCtor &&
              c->literal.type() == AtomicType::kString &&
              c->children.empty()) {
            // Literal text from the direct constructor body.
            elem->AppendChild(Node::NewText(c->literal.ToString()));
            continue;
          }
          if (c->kind == ExprKind::kAttributeCtor) {
            XRPC_ASSIGN_OR_RETURN(Sequence av, Eval(*c));
            for (const Item& item : av) {
              if (item.IsNode() &&
                  item.node()->kind() == NodeKind::kAttribute) {
                elem->SetAttribute(item.node()->Clone());
              }
            }
            continue;
          }
          XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(*c));
          XRPC_RETURN_IF_ERROR(BuildContent(elem.get(), v));
        }
        return Sequence{Item::Node(std::move(elem))};
      }
      case ExprKind::kAttributeCtor: {
        XRPC_ASSIGN_OR_RETURN(xml::QName name, ComputedName(e));
        XRPC_ASSIGN_OR_RETURN(std::string value, ContentString(e));
        return Sequence{
            Item::Node(Node::NewAttribute(std::move(name), std::move(value)))};
      }
      case ExprKind::kTextCtor: {
        if (e.children.empty()) {
          // Direct literal text.
          return Sequence{Item::Node(Node::NewText(e.literal.ToString()))};
        }
        XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0]));
        if (v.empty()) return Sequence{};
        std::string text;
        for (size_t i = 0; i < v.size(); ++i) {
          if (i > 0) text += " ";
          text += v[i].StringValue();
        }
        return Sequence{Item::Node(Node::NewText(std::move(text)))};
      }
      case ExprKind::kCommentCtor: {
        std::string text;
        if (!e.children.empty()) {
          if (e.children[0]->kind == ExprKind::kLiteral) {
            text = e.children[0]->literal.ToString();
          } else {
            XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0]));
            for (size_t i = 0; i < v.size(); ++i) {
              if (i > 0) text += " ";
              text += v[i].StringValue();
            }
          }
        }
        return Sequence{Item::Node(Node::NewComment(std::move(text)))};
      }
      case ExprKind::kPiCtor: {
        std::string text;
        if (!e.children.empty() &&
            e.children[0]->kind == ExprKind::kLiteral) {
          text = e.children[0]->literal.ToString();
        }
        return Sequence{Item::Node(
            Node::NewProcessingInstruction(e.name.local, std::move(text)))};
      }
      case ExprKind::kDocumentCtor: {
        NodePtr doc = Node::NewDocument();
        if (!e.children.empty()) {
          XRPC_ASSIGN_OR_RETURN(Sequence v, Eval(*e.children[0]));
          XRPC_RETURN_IF_ERROR(BuildContent(doc.get(), v));
        }
        return Sequence{Item::Node(std::move(doc))};
      }
      default:
        return Status::Internal("not a constructor");
    }
  }

  // -------------------------------------------------------------- updates

  StatusOr<Sequence> EvalUpdating(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kInsert: {
        XRPC_ASSIGN_OR_RETURN(Sequence src, Eval(*e.children[0]));
        XRPC_ASSIGN_OR_RETURN(Sequence tgt, Eval(*e.children[1]));
        if (tgt.size() != 1 || !tgt[0].IsNode()) {
          return Status::TypeError("insert target must be a single node");
        }
        UpdatePrimitive p;
        switch (e.insert_pos) {
          case InsertPos::kInto:
            p.kind = UpdatePrimitive::Kind::kInsertInto;
            break;
          case InsertPos::kAsFirstInto:
            p.kind = UpdatePrimitive::Kind::kInsertFirst;
            break;
          case InsertPos::kAsLastInto:
            p.kind = UpdatePrimitive::Kind::kInsertLast;
            break;
          case InsertPos::kBefore:
            p.kind = UpdatePrimitive::Kind::kInsertBefore;
            break;
          case InsertPos::kAfter:
            p.kind = UpdatePrimitive::Kind::kInsertAfter;
            break;
        }
        p.target = tgt[0];
        for (const Item& item : src) {
          if (item.IsNode()) {
            p.content.push_back(Item::Node(item.node()->Clone()));
          } else {
            p.content.push_back(
                Item::Node(Node::NewText(item.StringValue())));
          }
        }
        pul_.Add(std::move(p));
        return Sequence{};
      }
      case ExprKind::kDelete: {
        XRPC_ASSIGN_OR_RETURN(Sequence tgt, Eval(*e.children[0]));
        for (const Item& item : tgt) {
          if (!item.IsNode()) {
            return Status::TypeError("delete target must be nodes");
          }
          UpdatePrimitive p;
          p.kind = UpdatePrimitive::Kind::kDelete;
          p.target = item;
          pul_.Add(std::move(p));
        }
        return Sequence{};
      }
      case ExprKind::kReplaceNode:
      case ExprKind::kReplaceValue: {
        XRPC_ASSIGN_OR_RETURN(Sequence tgt, Eval(*e.children[0]));
        XRPC_ASSIGN_OR_RETURN(Sequence src, Eval(*e.children[1]));
        if (tgt.size() != 1 || !tgt[0].IsNode()) {
          return Status::TypeError("replace target must be a single node");
        }
        UpdatePrimitive p;
        p.target = tgt[0];
        if (e.kind == ExprKind::kReplaceValue) {
          p.kind = UpdatePrimitive::Kind::kReplaceValue;
          std::string value;
          for (size_t i = 0; i < src.size(); ++i) {
            if (i > 0) value += " ";
            value += src[i].StringValue();
          }
          p.new_value = std::move(value);
        } else {
          p.kind = UpdatePrimitive::Kind::kReplaceNode;
          for (const Item& item : src) {
            if (item.IsNode()) {
              p.content.push_back(Item::Node(item.node()->Clone()));
            } else {
              p.content.push_back(
                  Item::Node(Node::NewText(item.StringValue())));
            }
          }
        }
        pul_.Add(std::move(p));
        return Sequence{};
      }
      case ExprKind::kRename: {
        XRPC_ASSIGN_OR_RETURN(Sequence tgt, Eval(*e.children[0]));
        XRPC_ASSIGN_OR_RETURN(Sequence name_s, Eval(*e.children[1]));
        if (tgt.size() != 1 || !tgt[0].IsNode()) {
          return Status::TypeError("rename target must be a single node");
        }
        XRPC_ASSIGN_OR_RETURN(AtomicValue a, AtomizeOne(name_s, "rename"));
        UpdatePrimitive p;
        p.kind = UpdatePrimitive::Kind::kRename;
        p.target = tgt[0];
        p.new_name = xml::QName(a.ToString());
        pul_.Add(std::move(p));
        return Sequence{};
      }
      default:
        return Status::Internal("not an updating expression");
    }
  }

  // -------------------------------------------------------------- builtins

  StatusOr<Sequence> EvalBuiltin(const QName& name,
                                 std::vector<Sequence> args);

  const Interpreter::Config& cfg_;
  std::vector<std::pair<std::string, Sequence>> vars_;
  std::vector<Scope> scopes_;
  Focus focus_;
  /// Path memo keyed by (path expression, source node); lives as long as
  /// this evaluator, i.e. for one query or for all calls of one request.
  using PathMemoKey = std::pair<const Expr*, const Node*>;
  std::map<PathMemoKey, PathMemoEntry> path_memo_;
  PendingUpdateList pul_;
  int depth_ = 0;
  int call_depth_ = 0;

  friend class BuiltinLibrary;
};

// =================================================================
// Built-in function library (fn: and xrpc: namespaces)
// =================================================================

StatusOr<Sequence> Evaluator::EvalBuiltin(const QName& name,
                                          std::vector<Sequence> args) {
  const std::string& f = name.local;
  size_t n = args.size();

  auto need = [&](size_t lo, size_t hi) -> Status {
    if (n < lo || n > hi) {
      return Status::TypeError("fn:" + f + ": wrong number of arguments");
    }
    return Status::OK();
  };
  auto string_arg = [&](size_t i) -> std::string {
    if (i >= n || args[i].empty()) return "";
    return args[i][0].StringValue();
  };

  if (name.ns_uri == xml::kXrpcNs) {
    // Helper functions of Section 5 (Advanced Pushdown): split xrpc:// URLs
    // into host prefix and path suffix; other URLs map to localhost + self.
    if (f == "host" || f == "path") {
      XRPC_RETURN_IF_ERROR(need(1, 1));
      std::string url = string_arg(0);
      if (StartsWith(url, "xrpc://")) {
        std::string rest = url.substr(7);
        size_t slash = rest.find('/');
        std::string host = slash == std::string::npos
                               ? rest
                               : rest.substr(0, slash);
        std::string path =
            slash == std::string::npos ? "" : rest.substr(slash + 1);
        return xdm::SingletonString(f == "host" ? "xrpc://" + host : path);
      }
      return xdm::SingletonString(f == "host" ? "localhost" : url);
    }
    return Status::NotFound("unknown xrpc function: " + f);
  }

  // ---- documents
  if (f == "doc") {
    XRPC_RETURN_IF_ERROR(need(1, 1));
    if (cfg_.documents == nullptr) {
      return Status::EvalError("fn:doc: no document provider configured");
    }
    if (args[0].empty()) return Sequence{};
    XRPC_ASSIGN_OR_RETURN(NodePtr doc,
                          cfg_.documents->GetDocument(string_arg(0)));
    return Sequence{Item::Node(std::move(doc))};
  }
  if (f == "put") {
    XRPC_RETURN_IF_ERROR(need(2, 2));
    if (args[0].size() != 1 || !args[0][0].IsNode()) {
      return Status::TypeError("fn:put: first argument must be a node");
    }
    UpdatePrimitive p;
    p.kind = UpdatePrimitive::Kind::kPut;
    p.content.push_back(Item::Node(args[0][0].node()->Clone()));
    p.put_uri = string_arg(1);
    pul_.Add(std::move(p));
    return Sequence{};
  }

  // ---- cardinality & logic
  if (f == "count") {
    XRPC_RETURN_IF_ERROR(need(1, 1));
    return xdm::SingletonInt(static_cast<int64_t>(args[0].size()));
  }
  if (f == "empty") {
    XRPC_RETURN_IF_ERROR(need(1, 1));
    return xdm::SingletonBool(args[0].empty());
  }
  if (f == "exists") {
    XRPC_RETURN_IF_ERROR(need(1, 1));
    return xdm::SingletonBool(!args[0].empty());
  }
  if (f == "not") {
    XRPC_RETURN_IF_ERROR(need(1, 1));
    XRPC_ASSIGN_OR_RETURN(bool b, xdm::EffectiveBooleanValue(args[0]));
    return xdm::SingletonBool(!b);
  }
  if (f == "boolean") {
    XRPC_RETURN_IF_ERROR(need(1, 1));
    XRPC_ASSIGN_OR_RETURN(bool b, xdm::EffectiveBooleanValue(args[0]));
    return xdm::SingletonBool(b);
  }
  if (f == "true") {
    XRPC_RETURN_IF_ERROR(need(0, 0));
    return xdm::SingletonBool(true);
  }
  if (f == "false") {
    XRPC_RETURN_IF_ERROR(need(0, 0));
    return xdm::SingletonBool(false);
  }
  if (f == "zero-or-one") {
    XRPC_RETURN_IF_ERROR(need(1, 1));
    if (args[0].size() > 1) {
      return Status::TypeError("fn:zero-or-one: more than one item (FORG0003)");
    }
    return std::move(args[0]);
  }
  if (f == "one-or-more") {
    XRPC_RETURN_IF_ERROR(need(1, 1));
    if (args[0].empty()) {
      return Status::TypeError("fn:one-or-more: empty sequence (FORG0004)");
    }
    return std::move(args[0]);
  }
  if (f == "exactly-one") {
    XRPC_RETURN_IF_ERROR(need(1, 1));
    if (args[0].size() != 1) {
      return Status::TypeError("fn:exactly-one: not a singleton (FORG0005)");
    }
    return std::move(args[0]);
  }

  // ---- strings
  if (f == "string") {
    XRPC_RETURN_IF_ERROR(need(0, 1));
    if (n == 0) {
      if (!focus_.item.has_value()) {
        return Status::EvalError("fn:string: no context item");
      }
      return xdm::SingletonString(focus_.item->StringValue());
    }
    if (args[0].empty()) return xdm::SingletonString("");
    if (args[0].size() > 1) {
      return Status::TypeError("fn:string: more than one item");
    }
    return xdm::SingletonString(args[0][0].StringValue());
  }
  if (f == "data") {
    XRPC_RETURN_IF_ERROR(need(1, 1));
    Sequence out;
    for (const Item& item : args[0]) out.push_back(Item(item.Atomize()));
    return out;
  }
  if (f == "concat") {
    if (n < 2) return Status::TypeError("fn:concat needs >= 2 arguments");
    std::string out;
    for (size_t i = 0; i < n; ++i) {
      if (args[i].size() > 1) {
        return Status::TypeError("fn:concat: argument is not a singleton");
      }
      out += string_arg(i);
    }
    return xdm::SingletonString(std::move(out));
  }
  if (f == "string-join") {
    XRPC_RETURN_IF_ERROR(need(1, 2));
    std::string sep = n == 2 ? string_arg(1) : "";
    std::string out;
    for (size_t i = 0; i < args[0].size(); ++i) {
      if (i > 0) out += sep;
      out += args[0][i].StringValue();
    }
    return xdm::SingletonString(std::move(out));
  }
  if (f == "string-length") {
    XRPC_RETURN_IF_ERROR(need(0, 1));
    std::string s = n == 1 ? string_arg(0)
                           : (focus_.item.has_value()
                                  ? focus_.item->StringValue()
                                  : std::string());
    return xdm::SingletonInt(static_cast<int64_t>(s.size()));
  }
  if (f == "substring") {
    XRPC_RETURN_IF_ERROR(need(2, 3));
    std::string s = string_arg(0);
    if (args[1].empty()) return xdm::SingletonString("");
    double start = args[1][0].Atomize().AsDouble();
    double len = n == 3 && !args[2].empty()
                     ? args[2][0].Atomize().AsDouble()
                     : std::numeric_limits<double>::infinity();
    // XPath substring uses 1-based rounded positions.
    double from = std::round(start);
    double to = from + std::round(len);
    std::string out;
    for (size_t i = 0; i < s.size(); ++i) {
      double p = static_cast<double>(i + 1);
      if (p >= from && p < to) out.push_back(s[i]);
    }
    return xdm::SingletonString(std::move(out));
  }
  if (f == "contains") {
    XRPC_RETURN_IF_ERROR(need(2, 2));
    return xdm::SingletonBool(string_arg(0).find(string_arg(1)) !=
                              std::string::npos);
  }
  if (f == "starts-with") {
    XRPC_RETURN_IF_ERROR(need(2, 2));
    return xdm::SingletonBool(StartsWith(string_arg(0), string_arg(1)));
  }
  if (f == "ends-with") {
    XRPC_RETURN_IF_ERROR(need(2, 2));
    return xdm::SingletonBool(EndsWith(string_arg(0), string_arg(1)));
  }
  if (f == "substring-before") {
    XRPC_RETURN_IF_ERROR(need(2, 2));
    std::string s = string_arg(0), t = string_arg(1);
    size_t p = s.find(t);
    return xdm::SingletonString(p == std::string::npos ? "" : s.substr(0, p));
  }
  if (f == "substring-after") {
    XRPC_RETURN_IF_ERROR(need(2, 2));
    std::string s = string_arg(0), t = string_arg(1);
    size_t p = s.find(t);
    return xdm::SingletonString(
        p == std::string::npos ? "" : s.substr(p + t.size()));
  }
  if (f == "upper-case") {
    XRPC_RETURN_IF_ERROR(need(1, 1));
    std::string s = string_arg(0);
    for (char& c : s) c = static_cast<char>(std::toupper(c));
    return xdm::SingletonString(std::move(s));
  }
  if (f == "lower-case") {
    XRPC_RETURN_IF_ERROR(need(1, 1));
    std::string s = string_arg(0);
    for (char& c : s) c = static_cast<char>(std::tolower(c));
    return xdm::SingletonString(std::move(s));
  }
  if (f == "normalize-space") {
    XRPC_RETURN_IF_ERROR(need(0, 1));
    std::string s = n == 1 ? string_arg(0)
                           : (focus_.item.has_value()
                                  ? focus_.item->StringValue()
                                  : std::string());
    return xdm::SingletonString(CollapseWhitespace(s));
  }

  // ---- numbers & aggregates
  if (f == "number") {
    XRPC_RETURN_IF_ERROR(need(0, 1));
    AtomicValue v;
    if (n == 1) {
      if (args[0].empty()) {
        return xdm::SingletonDouble(std::numeric_limits<double>::quiet_NaN());
      }
      v = args[0][0].Atomize();
    } else if (focus_.item.has_value()) {
      v = focus_.item->Atomize();
    } else {
      return Status::EvalError("fn:number: no context item");
    }
    return xdm::SingletonDouble(v.AsDouble());
  }
  if (f == "abs" || f == "floor" || f == "ceiling" || f == "round") {
    XRPC_RETURN_IF_ERROR(need(1, 1));
    if (args[0].empty()) return Sequence{};
    AtomicValue v = args[0][0].Atomize();
    if (v.type() == AtomicType::kInteger && (f == "abs")) {
      return xdm::SingletonInt(std::abs(v.AsInteger()));
    }
    if (v.type() == AtomicType::kInteger) {
      return xdm::SingletonInt(v.AsInteger());
    }
    double d = v.AsDouble();
    double r = f == "abs"     ? std::fabs(d)
               : f == "floor" ? std::floor(d)
               : f == "ceiling" ? std::ceil(d)
                                : std::floor(d + 0.5);
    return xdm::SingletonDouble(r);
  }
  if (f == "sum" || f == "avg" || f == "min" || f == "max") {
    XRPC_RETURN_IF_ERROR(need(1, 2));
    if (args[0].empty()) {
      if (f == "sum") return xdm::SingletonInt(0);
      return Sequence{};
    }
    bool all_int = true;
    double acc = f == "min" ? std::numeric_limits<double>::infinity()
                 : f == "max" ? -std::numeric_limits<double>::infinity()
                              : 0;
    int64_t iacc = 0;
    bool first = true;
    for (const Item& item : args[0]) {
      AtomicValue v = item.Atomize();
      if (v.type() != AtomicType::kInteger) all_int = false;
      double d = v.AsDouble();
      if (f == "sum" || f == "avg") {
        acc += d;
        iacc += v.AsInteger();
      } else if (f == "min") {
        acc = first ? d : std::min(acc, d);
      } else {
        acc = first ? d : std::max(acc, d);
      }
      first = false;
    }
    if (f == "avg") {
      return xdm::SingletonDouble(acc /
                                  static_cast<double>(args[0].size()));
    }
    if (all_int) {
      if (f == "sum") return xdm::SingletonInt(iacc);
      return xdm::SingletonInt(static_cast<int64_t>(acc));
    }
    return xdm::SingletonDouble(acc);
  }

  // ---- sequences
  if (f == "distinct-values") {
    XRPC_RETURN_IF_ERROR(need(1, 2));
    Sequence out;
    std::vector<AtomicValue> seen;
    for (const Item& item : args[0]) {
      AtomicValue v = item.Atomize();
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
        out.push_back(Item(std::move(v)));
      }
    }
    return out;
  }
  if (f == "reverse") {
    XRPC_RETURN_IF_ERROR(need(1, 1));
    std::reverse(args[0].begin(), args[0].end());
    return std::move(args[0]);
  }
  if (f == "subsequence") {
    XRPC_RETURN_IF_ERROR(need(2, 3));
    if (args[1].empty()) return Sequence{};
    double start = std::round(args[1][0].Atomize().AsDouble());
    double len = n == 3 && !args[2].empty()
                     ? std::round(args[2][0].Atomize().AsDouble())
                     : std::numeric_limits<double>::infinity();
    Sequence out;
    for (size_t i = 0; i < args[0].size(); ++i) {
      double p = static_cast<double>(i + 1);
      if (p >= start && p < start + len) out.push_back(args[0][i]);
    }
    return out;
  }
  if (f == "index-of") {
    XRPC_RETURN_IF_ERROR(need(2, 2));
    if (args[1].empty()) return Sequence{};
    AtomicValue target = args[1][0].Atomize();
    Sequence out;
    for (size_t i = 0; i < args[0].size(); ++i) {
      auto cmp = xdm::CompareAtomic(args[0][i].Atomize(), target);
      if (cmp.ok() && cmp.value() == 0) {
        out.push_back(Item(AtomicValue::Integer(static_cast<int64_t>(i + 1))));
      }
    }
    return out;
  }
  if (f == "insert-before") {
    XRPC_RETURN_IF_ERROR(need(3, 3));
    if (args[1].empty()) return Status::TypeError("fn:insert-before: position");
    int64_t pos = args[1][0].Atomize().AsInteger();
    if (pos < 1) pos = 1;
    Sequence out;
    size_t p = static_cast<size_t>(pos - 1);
    for (size_t i = 0; i < args[0].size(); ++i) {
      if (i == p) out.insert(out.end(), args[2].begin(), args[2].end());
      out.push_back(args[0][i]);
    }
    if (p >= args[0].size()) {
      out.insert(out.end(), args[2].begin(), args[2].end());
    }
    return out;
  }
  if (f == "remove") {
    XRPC_RETURN_IF_ERROR(need(2, 2));
    if (args[1].empty()) return std::move(args[0]);
    int64_t pos = args[1][0].Atomize().AsInteger();
    Sequence out;
    for (size_t i = 0; i < args[0].size(); ++i) {
      if (static_cast<int64_t>(i + 1) != pos) out.push_back(args[0][i]);
    }
    return out;
  }
  if (f == "deep-equal") {
    XRPC_RETURN_IF_ERROR(need(2, 2));
    if (args[0].size() != args[1].size()) return xdm::SingletonBool(false);
    for (size_t i = 0; i < args[0].size(); ++i) {
      const Item& a = args[0][i];
      const Item& b = args[1][i];
      if (a.IsNode() != b.IsNode()) return xdm::SingletonBool(false);
      if (a.IsNode()) {
        if (xml::SerializeNode(*a.node()) != xml::SerializeNode(*b.node())) {
          return xdm::SingletonBool(false);
        }
      } else {
        auto cmp = xdm::CompareAtomic(a.atomic(), b.atomic());
        if (!cmp.ok() || cmp.value() != 0) return xdm::SingletonBool(false);
      }
    }
    return xdm::SingletonBool(true);
  }

  // ---- nodes
  if (f == "name" || f == "local-name" || f == "namespace-uri") {
    XRPC_RETURN_IF_ERROR(need(0, 1));
    const Item* item = nullptr;
    if (n == 1) {
      if (args[0].empty()) return xdm::SingletonString("");
      item = &args[0][0];
    } else if (focus_.item.has_value()) {
      item = &*focus_.item;
    } else {
      return Status::EvalError("fn:" + f + ": no context item");
    }
    if (!item->IsNode()) {
      return Status::TypeError("fn:" + f + ": argument is not a node");
    }
    const Node* node = item->node();
    if (f == "name") return xdm::SingletonString(node->name().Lexical());
    if (f == "local-name") return xdm::SingletonString(node->name().local);
    return xdm::SingletonString(node->name().ns_uri);
  }
  if (f == "root") {
    XRPC_RETURN_IF_ERROR(need(0, 1));
    const Item* item = nullptr;
    if (n == 1) {
      if (args[0].empty()) return Sequence{};
      item = &args[0][0];
    } else if (focus_.item.has_value()) {
      item = &*focus_.item;
    } else {
      return Status::EvalError("fn:root: no context item");
    }
    if (!item->IsNode()) return Status::TypeError("fn:root: not a node");
    return Sequence{Item::NodeInTree(item->node()->Root(), item->anchor())};
  }

  if (f == "error") {
    XRPC_RETURN_IF_ERROR(need(0, 3));
    std::string msg = n >= 2 ? string_arg(1)
                             : (n == 1 ? string_arg(0) : "fn:error called");
    return Status::EvalError(msg);
  }
  if (f == "trace") {
    XRPC_RETURN_IF_ERROR(need(2, 2));
    return std::move(args[0]);
  }

  return Status::NotFound("unknown built-in function fn:" + f + "#" +
                          std::to_string(n));
}

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
