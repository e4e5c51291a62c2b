#ifndef XRPC_XQUERY_NORMALIZE_H_
#define XRPC_XQUERY_NORMALIZE_H_

#include "xquery/module.h"

namespace xrpc::xquery {

// Path normalization: the one rewrite both engines see. Library code runs
// it after parsing and before any engine evaluates the tree (PeerNetwork's
// Execute, module registration and re-parse, the wrapper's generated
// query); the parser itself keeps the raw `//` expansion.
//
// `descendant-or-self::node()/child::T[p]` becomes `descendant::T[p]`, so
// `//closed_auction[./buyer/@person=$p]` walks the tree once, in document
// order, with no sort. The two are equal only when no predicate can see
// the candidate grouping (`//a[1]` is the first `a` of every parent,
// `/descendant::a[1]` the first of the document), so a step is fused only
// when every predicate is non-positional.

/// True if every predicate of `step` keeps or drops each candidate on its
/// own: it calls neither fn:position nor fn:last, and it is a comparison,
/// `and`/`or`, a quantifier or a path, so its value is never a number that
/// would select by position. (True for a step without predicates.)
bool HasNonPositionalPredicates(const PathStep& step);

/// Fuses descendant steps in every expression of the module: the body,
/// the prolog's variable initializers and function bodies.
void NormalizePaths(MainModule* module);
void NormalizePaths(LibraryModule* module);

}  // namespace xrpc::xquery

#endif  // XRPC_XQUERY_NORMALIZE_H_
