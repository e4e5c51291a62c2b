#include "xquery/ast.h"

#include "xquery/module.h"

namespace xrpc::xquery {

const char* AxisToString(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "child";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kDescendantOrSelf:
      return "descendant-or-self";
    case Axis::kSelf:
      return "self";
    case Axis::kAttribute:
      return "attribute";
    case Axis::kParent:
      return "parent";
    case Axis::kAncestor:
      return "ancestor";
    case Axis::kAncestorOrSelf:
      return "ancestor-or-self";
    case Axis::kFollowingSibling:
      return "following-sibling";
    case Axis::kPrecedingSibling:
      return "preceding-sibling";
  }
  return "unknown";
}

std::string SequenceType::ToString() const {
  std::string base;
  switch (kind) {
    case ItemKind::kItem:
      base = "item()";
      break;
    case ItemKind::kAtomic:
      base = xdm::AtomicTypeName(atomic);
      break;
    case ItemKind::kNode:
      base = "node()";
      break;
    case ItemKind::kElement:
      base = "element()";
      break;
    case ItemKind::kAttribute:
      base = "attribute()";
      break;
    case ItemKind::kDocument:
      base = "document-node()";
      break;
    case ItemKind::kText:
      base = "text()";
      break;
    case ItemKind::kEmpty:
      return "empty-sequence()";
  }
  switch (occurrence) {
    case Occurrence::kOne:
      return base;
    case Occurrence::kZeroOrOne:
      return base + "?";
    case Occurrence::kZeroOrMore:
      return base + "*";
    case Occurrence::kOneOrMore:
      return base + "+";
  }
  return base;
}

bool ContainsUpdatingSyntax(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kInsert:
    case ExprKind::kDelete:
    case ExprKind::kReplaceNode:
    case ExprKind::kReplaceValue:
    case ExprKind::kRename:
      return true;
    case ExprKind::kFunctionCall:
      if (e.name.ns_uri == kFnNs && e.name.local == "put") return true;
      break;
    default:
      break;
  }
  bool found = false;
  ForEachSubexpr(e, [&found](const Expr& c) {
    found = found || ContainsUpdatingSyntax(c);
  });
  return found;
}

}  // namespace xrpc::xquery
