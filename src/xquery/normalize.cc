#include "xquery/normalize.h"

#include <algorithm>

namespace xrpc::xquery {

namespace {

bool CallsPositionOrLast(const Expr& e) {
  if (e.kind == ExprKind::kFunctionCall && e.name.ns_uri == kFnNs &&
      (e.name.local == "position" || e.name.local == "last")) {
    return true;
  }
  bool found = false;
  ForEachSubexpr(e, [&](const Expr& c) {
    found = found || CallsPositionOrLast(c);
  });
  return found;
}

bool IsNonPositional(const Expr& pred) {
  switch (pred.kind) {
    case ExprKind::kComparison:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kQuantified:
    case ExprKind::kPath:
      return !CallsPositionOrLast(pred);
    default:
      return false;
  }
}

bool IsAnyDescendantOrSelf(const PathStep& step) {
  return step.axis == Axis::kDescendantOrSelf &&
         step.test.kind == NodeTest::Kind::kAnyKind &&
         step.predicates.empty();
}

void Normalize(Expr& e) {
  ForEachSubexpr(e, [](Expr& c) { Normalize(c); });
  if (e.kind != ExprKind::kPath) return;
  std::vector<PathStep>& steps = e.steps;
  for (size_t i = 0; i + 1 < steps.size(); ++i) {
    PathStep& next = steps[i + 1];
    if (IsAnyDescendantOrSelf(steps[i]) && next.axis == Axis::kChild &&
        HasNonPositionalPredicates(next)) {
      next.axis = Axis::kDescendant;
      steps.erase(steps.begin() + static_cast<ptrdiff_t>(i));
    }
  }
}

void NormalizePaths(Prolog* prolog) {
  for (auto& [name, init] : prolog->variables) Normalize(*init);
  for (FunctionDef& f : prolog->functions) Normalize(*f.body);
}

}  // namespace

bool HasNonPositionalPredicates(const PathStep& step) {
  return std::all_of(step.predicates.begin(), step.predicates.end(),
                     [](const ExprPtr& p) { return IsNonPositional(*p); });
}

void NormalizePaths(MainModule* module) {
  NormalizePaths(&module->prolog);
  Normalize(*module->body);
}

void NormalizePaths(LibraryModule* module) {
  NormalizePaths(&module->prolog);
}

}  // namespace xrpc::xquery
