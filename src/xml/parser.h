#ifndef XRPC_XML_PARSER_H_
#define XRPC_XML_PARSER_H_

#include <string>
#include <string_view>

#include "base/statusor.h"
#include "xml/node.h"

namespace xrpc::xml {

/// Options controlling document parsing.
struct ParseOptions {
  /// Drop text nodes that consist only of whitespace and sit between
  /// element children ("ignorable whitespace"). The SOAP codec enables this
  /// for protocol framing elements; data content is never stripped because
  /// mixed content (text next to elements) is preserved.
  bool strip_ignorable_whitespace = false;
};

/// The deepest element nesting the parser accepts; deeper input is a
/// ParseError rather than a recursion that outgrows the stack. It admits
/// any tree a query can build and ship: a recursion of
/// xquery::kMaxCallDepth (512) levels inside a SOAP envelope's framing.
inline constexpr int kMaxElementDepth = 1024;

/// Non-validating, namespace-aware XML 1.0 parser.
///
/// Supported: prolog, comments, PIs, CDATA, character and predefined entity
/// references, namespace declarations (default and prefixed), DOCTYPE is
/// skipped without being processed. Line ends are normalized (XML 1.0
/// §2.11: CR LF and a lone CR become LF) and so is literal whitespace in
/// attribute values (§3.3.3: TAB, LF, CR and CR LF become one space); a
/// character reference always yields its character. Returns the document
/// node.
StatusOr<NodePtr> ParseXml(std::string_view input,
                           const ParseOptions& options = {});

/// Parses a string that may contain several sibling elements/text (an XML
/// fragment); returns a synthetic document node containing them.
StatusOr<NodePtr> ParseXmlFragment(std::string_view input,
                                   const ParseOptions& options = {});

}  // namespace xrpc::xml

#endif  // XRPC_XML_PARSER_H_
