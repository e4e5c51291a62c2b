#ifndef XRPC_XQUERY_PARSER_H_
#define XRPC_XQUERY_PARSER_H_

#include <string_view>

#include "base/statusor.h"
#include "xquery/module.h"

namespace xrpc::xquery {

/// The deepest nesting of expressions (each parenthesized or enclosed
/// expression, predicate, clause and operand opens one level) and of
/// direct element constructors a query may have. A level costs a chain of
/// recursive-descent frames, so deeper input is a ParseError rather than a
/// stack overflow, sanitizer builds included.
inline constexpr int kMaxExprDepth = 128;

/// Parses a main module (prolog + query body) including the `execute at`
/// XRPC extension and the XQUF updating expressions.
StatusOr<MainModule> ParseMainModule(std::string_view text);

/// Parses a library module (`module namespace p = "uri"; ...`).
StatusOr<LibraryModule> ParseLibraryModule(std::string_view text);

}  // namespace xrpc::xquery

#endif  // XRPC_XQUERY_PARSER_H_
