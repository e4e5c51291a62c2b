#ifndef XRPC_XQUERY_AST_H_
#define XRPC_XQUERY_AST_H_

#include <memory>
#include <string>
#include <vector>

#include "xdm/atomic.h"
#include "xml/qname.h"

namespace xrpc::xquery {

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

/// XPath axes supported by the engine.
enum class Axis {
  kChild,
  kDescendant,
  kDescendantOrSelf,
  kSelf,
  kAttribute,
  kParent,
  kAncestor,
  kAncestorOrSelf,
  kFollowingSibling,
  kPrecedingSibling,
};

const char* AxisToString(Axis axis);

/// Node test of an axis step.
struct NodeTest {
  enum class Kind {
    kName,      ///< QName or wildcard name test.
    kAnyKind,   ///< node()
    kText,      ///< text()
    kComment,   ///< comment()
    kPi,        ///< processing-instruction()
    kElement,   ///< element()
    kAttribute, ///< attribute()
    kDocument,  ///< document-node()
  };
  Kind kind = Kind::kName;
  xml::QName name;          ///< valid when kind == kName
  bool wildcard = false;    ///< "*" name test
};

/// Occurrence indicator of a sequence type.
enum class Occurrence { kOne, kZeroOrOne, kZeroOrMore, kOneOrMore };

/// A (simplified) XQuery SequenceType: item kind plus occurrence.
struct SequenceType {
  enum class ItemKind {
    kItem,       ///< item()
    kAtomic,     ///< a named atomic type (atomic field)
    kNode,       ///< node()
    kElement,
    kAttribute,
    kDocument,
    kText,
    kEmpty,      ///< empty-sequence()
  };
  ItemKind kind = ItemKind::kItem;
  xdm::AtomicType atomic = xdm::AtomicType::kString;
  Occurrence occurrence = Occurrence::kZeroOrMore;

  std::string ToString() const;
};

/// One clause of a FLWOR (for or let).
struct FlworClause {
  enum class Kind { kFor, kLet };
  Kind kind = Kind::kFor;
  xml::QName var;
  xml::QName pos_var;  ///< "at $p" positional variable; empty if absent
  ExprPtr expr;
};

/// One order-by specification.
struct OrderSpec {
  ExprPtr key;
  bool descending = false;
  bool empty_greatest = false;
};

/// Kinds of expression nodes.
enum class ExprKind {
  kLiteral,        ///< atomic constant (literal_)
  kSequence,       ///< comma expression; children are the operands
  kRange,          ///< a to b
  kVarRef,         ///< $name
  kContextItem,    ///< .
  kFlwor,          ///< for/let/where/order by/return
  kIf,             ///< if (c) then t else e; children: c, t, e
  kQuantified,     ///< some/every $v in e satisfies p
  kOr,
  kAnd,
  kComparison,     ///< general/value/node comparison (op_)
  kArith,          ///< + - * div idiv mod (op_)
  kUnaryMinus,
  kUnion,          ///< union / |
  kPath,           ///< root expr (children[0], may be null for "/") + steps
  kFilter,         ///< primary expr with predicates
  kFunctionCall,   ///< built-in or user function (name_)
  kExecuteAt,      ///< execute at {children[0]} { call(children[1..]) }
  kElementCtor,    ///< direct/computed element constructor
  kAttributeCtor,  ///< attribute constructor (inside element ctor)
  kTextCtor,       ///< text { expr } or literal text (literal_)
  kCommentCtor,
  kPiCtor,
  kDocumentCtor,   ///< document { expr }
  kCastAs,         ///< e cast as T
  kCastableAs,     ///< e castable as T
  kInstanceOf,     ///< e instance of T
  kTreatAs,        ///< e treat as T
  // XQUF updating expressions:
  kInsert,         ///< insert nodes src into/before/after/as first/as last tgt
  kDelete,         ///< delete nodes tgt
  kReplaceNode,    ///< replace node tgt with src
  kReplaceValue,   ///< replace value of node tgt with src
  kRename,         ///< rename node tgt as name-expr
};

/// Position of an insert target (XQUF).
enum class InsertPos { kInto, kAsFirstInto, kAsLastInto, kBefore, kAfter };

/// Comparison operators: general =,!=,<,<=,>,>=; value eq..ge; node is,<<,>>.
enum class CompOp {
  kGenEq, kGenNe, kGenLt, kGenLe, kGenGt, kGenGe,
  kValEq, kValNe, kValLt, kValLe, kValGt, kValGe,
  kNodeIs, kNodeBefore, kNodeAfter,
};

enum class ArithOp { kAdd, kSub, kMul, kDiv, kIDiv, kMod };

/// One step of a path expression.
struct PathStep {
  Axis axis = Axis::kChild;
  NodeTest test;
  std::vector<ExprPtr> predicates;
};

/// An XQuery expression tree node (tagged union style).
///
/// The single-struct representation keeps the two consumers — the
/// tree-walking interpreter and the loop-lifting relational compiler — free
/// of a visitor hierarchy; they switch on `kind`.
struct Expr {
  explicit Expr(ExprKind k) : kind(k) {}

  ExprKind kind;

  // Generic children; meaning depends on kind (documented per kind above).
  std::vector<ExprPtr> children;

  // kLiteral / kTextCtor literal content.
  xdm::AtomicValue literal;

  // kVarRef, kFunctionCall, kElementCtor/kAttributeCtor/kPiCtor name.
  xml::QName name;

  // kFlwor.
  std::vector<FlworClause> clauses;
  ExprPtr where;
  std::vector<OrderSpec> order_by;
  bool order_stable = false;
  ExprPtr ret;

  // kQuantified: every_ distinguishes some/every; clauses hold bindings,
  // ret holds the satisfies expression.
  bool every = false;

  // kComparison / kArith.
  CompOp comp_op = CompOp::kGenEq;
  ArithOp arith_op = ArithOp::kAdd;

  // kPath: steps applied to children[0] (nullptr child0 = document root of
  // context item).
  std::vector<PathStep> steps;
  bool root_path = false;  ///< leading "/" or "//"

  // kFilter: children[0] primary, predicates.
  std::vector<ExprPtr> predicates;

  // kElementCtor: attribute constructors (each kAttributeCtor with content
  // children) and content children in `children`.
  std::vector<ExprPtr> attributes;
  // Computed constructors may compute their name.
  ExprPtr name_expr;

  // kCastAs / kCastableAs / kInstanceOf / kTreatAs.
  SequenceType seq_type;

  // kInsert.
  InsertPos insert_pos = InsertPos::kInto;

  // kExecuteAt: children[0] = destination URI expr; name = function QName;
  // children[1..] = arguments.
};

/// Creates an expression node.
inline ExprPtr MakeExpr(ExprKind kind) { return std::make_unique<Expr>(kind); }

/// Calls `fn(Expr&)` on every direct subexpression of `e`, whatever slot
/// of the node holds it.
template <typename Fn>
void ForEachSubexpr(const Expr& e, Fn&& fn) {
  auto visit = [&](const ExprPtr& p) {
    if (p != nullptr) fn(*p);
  };
  for (const ExprPtr& c : e.children) visit(c);
  for (const FlworClause& c : e.clauses) visit(c.expr);
  visit(e.where);
  for (const OrderSpec& s : e.order_by) visit(s.key);
  visit(e.ret);
  for (const ExprPtr& p : e.predicates) visit(p);
  for (const ExprPtr& a : e.attributes) visit(a);
  visit(e.name_expr);
  for (const PathStep& s : e.steps) {
    for (const ExprPtr& p : s.predicates) visit(p);
  }
}

/// True if the expression (transitively) contains an XQUF expression or a
/// call of fn:put. Calls of functions declared updating are not seen: they
/// are resolved at evaluation time.
bool ContainsUpdatingSyntax(const Expr& e);

}  // namespace xrpc::xquery

#endif  // XRPC_XQUERY_AST_H_
