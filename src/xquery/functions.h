#ifndef XRPC_XQUERY_FUNCTIONS_H_
#define XRPC_XQUERY_FUNCTIONS_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "base/statusor.h"
#include "xdm/item.h"
#include "xquery/ast.h"
#include "xquery/context.h"
#include "xquery/update.h"

namespace xrpc::xquery {

// The XQuery function-and-operator library, shared by both engines: the
// built-in functions, the comparison and arithmetic operators, the type
// rules and the DOM axis walk, each defined once over evaluated sequences. The interpreter calls
// it per expression; the loop-lifted engine calls it once per iteration
// through one adapter (DESIGN.md §6). Where the spec and a past engine
// disagreed, these follow the XQuery 1.0 Functions and Operators spec.

/// What a function may read besides its arguments.
struct FunctionContext {
  const xdm::Item* item = nullptr;  ///< context item; null = undefined
  int64_t position = 0;             ///< context position; 0 = no focus
  int64_t size = 0;                 ///< context size
  DocumentProvider* documents = nullptr;
  /// Receives fn:put; null on a read-only engine, where fn:put reports
  /// kUnsupported.
  PendingUpdateList* pul = nullptr;
};

/// One built-in function of the fn:, xrpc: or xs: namespace.
struct Builtin {
  struct Call {
    const xml::QName& name;
    std::vector<xdm::Sequence>& args;  ///< may be consumed
    const FunctionContext& ctx;
  };
  using Fn = StatusOr<xdm::Sequence> (*)(const Call& call);

  std::string_view local;
  size_t min_arity;
  size_t max_arity;
  Fn fn;
  /// Called without arguments, the function reads the focus (string(),
  /// position(), name(), ...).
  bool focus = false;

  StatusOr<xdm::Sequence> operator()(const xml::QName& name,
                                     std::vector<xdm::Sequence>& args,
                                     const FunctionContext& ctx) const {
    return fn(Call{name, args, ctx});
  }
};

/// Resolves a built-in by expanded name and arity: kNotFound for an
/// unknown name, kTypeError for a known one called with the wrong arity.
/// xs:TYPE names resolve to the constructor function (a cast).
StatusOr<const Builtin*> FindBuiltin(const xml::QName& name, size_t arity);

/// True if calling `name` with `arity` arguments reads the focus.
bool ReadsFocus(const xml::QName& name, size_t arity);

/// Atomizes a sequence that must hold exactly one item; XPTY0004 names
/// `what` otherwise.
StatusOr<xdm::AtomicValue> AtomizeOne(const xdm::Sequence& seq,
                                      const char* what);

// ----------------------------------------------------------- operators

/// General (=, !=, <, ...), value (eq, ne, ...) and node (is, <<, >>)
/// comparisons.
StatusOr<xdm::Sequence> Compare(CompOp op, const xdm::Sequence& l,
                                const xdm::Sequence& r);

/// + - * div idiv mod. Integer division by zero raises FOAR0001.
StatusOr<xdm::Sequence> Arithmetic(ArithOp op, const xdm::Sequence& l,
                                   const xdm::Sequence& r);

/// Unary minus.
StatusOr<xdm::Sequence> Negate(const xdm::Sequence& v);

/// The range expression `lo to hi`.
StatusOr<xdm::Sequence> Range(const xdm::Sequence& lo,
                              const xdm::Sequence& hi);

/// A predicate's truth for the item at `position`: a single numeric value
/// selects by position, anything else by its effective boolean value.
StatusOr<bool> PredicateTruth(const xdm::Sequence& v, int64_t position);

// ---------------------------------------------------------- type rules

/// Coerces a value to a declared parameter type: the occurrence check
/// plus atomic casting (the caller-side casting XRPC requires).
StatusOr<xdm::Sequence> CoerceToType(xdm::Sequence seq,
                                     const SequenceType& type);

/// True if `seq` matches `type` (instance of).
bool MatchesSequenceType(const xdm::Sequence& seq, const SequenceType& type);

/// `cast as`, `castable as`, `instance of` and `treat as` applied to an
/// evaluated operand; `kind` names which.
StatusOr<xdm::Sequence> ApplyTypeExpr(ExprKind kind, const SequenceType& type,
                                      xdm::Sequence v);

// ----------------------------------------------------------- axis steps

/// Forward axes emit results already in document order and free of
/// duplicates when expanding a single context node; the sort-and-dedup
/// pass is only needed otherwise.
bool IsForwardAxis(Axis axis);

/// Appends the nodes `axis` reaches from `item` that pass `test`, in axis
/// order, by walking the DOM. (The relational engine answers descendant
/// element steps from its shredded columns first.)
void CollectAxis(const xdm::Item& item, Axis axis, const NodeTest& test,
                 xdm::Sequence* out);

}  // namespace xrpc::xquery

#endif  // XRPC_XQUERY_FUNCTIONS_H_
