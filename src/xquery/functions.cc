#include "xquery/functions.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <string>
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
using xml::NodeKind;
using Call = Builtin::Call;

Status ArgError(const Call& c, const std::string& what) {
  return Status::TypeError("fn:" + c.name.local + ": " + what);
}

/// Argument `i` declared `item()?`: null when absent or empty; XPTY0004
/// for more than one item.
StatusOr<const Item*> OptionalArg(const Call& c, size_t i) {
  if (i >= c.args.size() || c.args[i].empty()) return nullptr;
  if (c.args[i].size() > 1) {
    return ArgError(c, "more than one item in argument " +
                           std::to_string(i + 1) + " (XPTY0004)");
  }
  return &c.args[i][0];
}

/// Argument `i` declared `xs:string?`: its string value, "" when empty.
StatusOr<std::string> StringArg(const Call& c, size_t i) {
  XRPC_ASSIGN_OR_RETURN(const Item* item, OptionalArg(c, i));
  return item == nullptr ? std::string() : item->StringValue();
}

/// Argument `i` declared numeric: its double value; `dflt` when empty.
StatusOr<double> NumberArg(const Call& c, size_t i, double dflt) {
  XRPC_ASSIGN_OR_RETURN(const Item* item, OptionalArg(c, i));
  return item == nullptr ? dflt : item->Atomize().AsDouble();
}

/// The single item a focus-dependent function works on: its argument when
/// given (null when empty), else the context item (XPDY0002 if undefined).
StatusOr<const Item*> ArgOrContextItem(const Call& c) {
  if (!c.args.empty()) return OptionalArg(c, 0);
  if (c.ctx.item == nullptr) {
    return Status::EvalError("fn:" + c.name.local +
                             ": context item is undefined (XPDY0002)");
  }
  return c.ctx.item;
}

StatusOr<std::string> ArgOrContextString(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(const Item* item, ArgOrContextItem(c));
  return item == nullptr ? std::string() : item->StringValue();
}

StatusOr<Sequence> XrpcHostOrPath(const Call& c) {
  // Helper functions of Section 5 (Advanced Pushdown): split xrpc:// URLs
  // into host prefix and path suffix; other URLs map to localhost + self.
  XRPC_ASSIGN_OR_RETURN(std::string url, StringArg(c, 0));
  const bool host = c.name.local == "host";
  if (StartsWith(url, "xrpc://")) {
    std::string rest = url.substr(7);
    size_t slash = rest.find('/');
    if (host) {
      return xdm::SingletonString(
          "xrpc://" + (slash == std::string::npos ? rest
                                                  : rest.substr(0, slash)));
    }
    return xdm::SingletonString(
        slash == std::string::npos ? "" : rest.substr(slash + 1));
  }
  return xdm::SingletonString(host ? "localhost" : url);
}

// ------------------------------------------------------------ documents

StatusOr<Sequence> FnDoc(const Call& c) {
  if (c.ctx.documents == nullptr) {
    return Status::EvalError("fn:doc: no document provider configured");
  }
  XRPC_ASSIGN_OR_RETURN(const Item* uri, OptionalArg(c, 0));
  if (uri == nullptr) return Sequence{};
  XRPC_ASSIGN_OR_RETURN(xml::NodePtr doc,
                        c.ctx.documents->GetDocument(uri->StringValue()));
  return Sequence{Item::Node(std::move(doc))};
}

StatusOr<Sequence> FnPut(const Call& c) {
  if (c.ctx.pul == nullptr) {
    return Status::Unsupported("fn:put on a read-only engine");
  }
  if (c.args[0].size() != 1 || !c.args[0][0].IsNode()) {
    return ArgError(c, "first argument must be a node");
  }
  UpdatePrimitive p;
  p.kind = UpdatePrimitive::Kind::kPut;
  p.content.push_back(Item::Node(c.args[0][0].node()->Clone()));
  XRPC_ASSIGN_OR_RETURN(p.put_uri, StringArg(c, 1));
  c.ctx.pul->Add(std::move(p));
  return Sequence{};
}

// -------------------------------------------------- cardinality & logic

StatusOr<Sequence> FnCount(const Call& c) {
  return xdm::SingletonInt(static_cast<int64_t>(c.args[0].size()));
}

StatusOr<Sequence> FnEmptyOrExists(const Call& c) {
  return xdm::SingletonBool(c.args[0].empty() == (c.name.local == "empty"));
}

StatusOr<Sequence> FnNotOrBoolean(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(bool b, xdm::EffectiveBooleanValue(c.args[0]));
  return xdm::SingletonBool(b != (c.name.local == "not"));
}

StatusOr<Sequence> FnTrueOrFalse(const Call& c) {
  return xdm::SingletonBool(c.name.local == "true");
}

StatusOr<Sequence> FnZeroOrOne(const Call& c) {
  if (c.args[0].size() > 1) return ArgError(c, "more than one item (FORG0003)");
  return std::move(c.args[0]);
}

StatusOr<Sequence> FnOneOrMore(const Call& c) {
  if (c.args[0].empty()) return ArgError(c, "empty sequence (FORG0004)");
  return std::move(c.args[0]);
}

StatusOr<Sequence> FnExactlyOne(const Call& c) {
  if (c.args[0].size() != 1) return ArgError(c, "not a singleton (FORG0005)");
  return std::move(c.args[0]);
}

// -------------------------------------------------------------- strings

StatusOr<Sequence> FnString(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(std::string s, ArgOrContextString(c));
  return xdm::SingletonString(std::move(s));
}

StatusOr<Sequence> FnData(const Call& c) {
  Sequence out;
  out.reserve(c.args[0].size());
  for (const Item& item : c.args[0]) out.push_back(Item(item.Atomize()));
  return out;
}

StatusOr<Sequence> FnConcat(const Call& c) {
  std::string out;
  for (size_t i = 0; i < c.args.size(); ++i) {
    XRPC_ASSIGN_OR_RETURN(std::string s, StringArg(c, i));
    out += s;
  }
  return xdm::SingletonString(std::move(out));
}

StatusOr<Sequence> FnStringJoin(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(std::string sep, StringArg(c, 1));
  std::string out;
  for (size_t i = 0; i < c.args[0].size(); ++i) {
    if (i > 0) out += sep;
    out += c.args[0][i].StringValue();
  }
  return xdm::SingletonString(std::move(out));
}

StatusOr<Sequence> FnStringLength(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(std::string s, ArgOrContextString(c));
  return xdm::SingletonInt(static_cast<int64_t>(s.size()));
}

StatusOr<Sequence> FnNormalizeSpace(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(std::string s, ArgOrContextString(c));
  return xdm::SingletonString(CollapseWhitespace(s));
}

StatusOr<Sequence> FnSubstring(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(std::string s, StringArg(c, 0));
  XRPC_ASSIGN_OR_RETURN(const Item* start_item, OptionalArg(c, 1));
  if (start_item == nullptr) return xdm::SingletonString("");
  XRPC_ASSIGN_OR_RETURN(
      double len, NumberArg(c, 2, std::numeric_limits<double>::infinity()));
  // XPath substring uses 1-based rounded positions.
  double from = std::round(start_item->Atomize().AsDouble());
  double to = from + std::round(len);
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    double p = static_cast<double>(i + 1);
    if (p >= from && p < to) out.push_back(s[i]);
  }
  return xdm::SingletonString(std::move(out));
}

StatusOr<Sequence> FnStringMatch(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(std::string s, StringArg(c, 0));
  XRPC_ASSIGN_OR_RETURN(std::string t, StringArg(c, 1));
  const std::string& f = c.name.local;
  if (f == "contains") return xdm::SingletonBool(s.find(t) != std::string::npos);
  if (f == "starts-with") return xdm::SingletonBool(StartsWith(s, t));
  if (f == "ends-with") return xdm::SingletonBool(EndsWith(s, t));
  size_t p = s.find(t);
  if (p == std::string::npos) return xdm::SingletonString("");
  return xdm::SingletonString(f == "substring-before" ? s.substr(0, p)
                                                      : s.substr(p + t.size()));
}

StatusOr<Sequence> FnCase(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(std::string s, StringArg(c, 0));
  const bool upper = c.name.local == "upper-case";
  for (char& ch : s) {
    ch = static_cast<char>(upper ? std::toupper(static_cast<unsigned char>(ch))
                                 : std::tolower(static_cast<unsigned char>(ch)));
  }
  return xdm::SingletonString(std::move(s));
}

// ------------------------------------------------- numbers & aggregates

StatusOr<Sequence> FnNumber(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(const Item* item, ArgOrContextItem(c));
  return xdm::SingletonDouble(item == nullptr
                                  ? std::numeric_limits<double>::quiet_NaN()
                                  : item->Atomize().AsDouble());
}

StatusOr<Sequence> FnRounding(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(const Item* item, OptionalArg(c, 0));
  if (item == nullptr) return Sequence{};
  const std::string& f = c.name.local;
  AtomicValue v = item->Atomize();
  if (v.type() == AtomicType::kInteger) {
    return xdm::SingletonInt(f == "abs" ? std::abs(v.AsInteger())
                                        : v.AsInteger());
  }
  double d = v.AsDouble();
  double r = f == "abs"       ? std::fabs(d)
             : f == "floor"   ? std::floor(d)
             : f == "ceiling" ? std::ceil(d)
                              : std::floor(d + 0.5);
  return xdm::SingletonDouble(r);
}

StatusOr<Sequence> FnAggregate(const Call& c) {
  const std::string& f = c.name.local;
  const Sequence& in = c.args[0];
  if (in.empty()) {
    if (f == "sum") return xdm::SingletonInt(0);
    return Sequence{};
  }
  bool all_int = true;
  double acc = 0;
  int64_t iacc = 0;
  bool first = true;
  for (const Item& item : in) {
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
    return xdm::SingletonDouble(acc / static_cast<double>(in.size()));
  }
  if (all_int) {
    return xdm::SingletonInt(f == "sum" ? iacc : static_cast<int64_t>(acc));
  }
  return xdm::SingletonDouble(acc);
}

// ------------------------------------------------------------ sequences

StatusOr<Sequence> FnDistinctValues(const Call& c) {
  Sequence out;
  std::vector<AtomicValue> seen;
  for (const Item& item : c.args[0]) {
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

StatusOr<Sequence> FnReverse(const Call& c) {
  std::reverse(c.args[0].begin(), c.args[0].end());
  return std::move(c.args[0]);
}

StatusOr<Sequence> FnSubsequence(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(const Item* start_item, OptionalArg(c, 1));
  if (start_item == nullptr) return Sequence{};
  XRPC_ASSIGN_OR_RETURN(
      double len, NumberArg(c, 2, std::numeric_limits<double>::infinity()));
  double start = std::round(start_item->Atomize().AsDouble());
  len = std::round(len);
  Sequence out;
  for (size_t i = 0; i < c.args[0].size(); ++i) {
    double p = static_cast<double>(i + 1);
    if (p >= start && p < start + len) out.push_back(c.args[0][i]);
  }
  return out;
}

StatusOr<Sequence> FnIndexOf(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(const Item* target_item, OptionalArg(c, 1));
  if (target_item == nullptr) return Sequence{};
  AtomicValue target = target_item->Atomize();
  Sequence out;
  for (size_t i = 0; i < c.args[0].size(); ++i) {
    auto cmp = xdm::CompareAtomic(c.args[0][i].Atomize(), target);
    if (cmp.ok() && cmp.value() == 0) {
      out.push_back(Item(AtomicValue::Integer(static_cast<int64_t>(i + 1))));
    }
  }
  return out;
}

StatusOr<Sequence> FnInsertBefore(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(const Item* pos_item, OptionalArg(c, 1));
  if (pos_item == nullptr) return ArgError(c, "empty position");
  int64_t pos = std::max<int64_t>(pos_item->Atomize().AsInteger(), 1);
  const Sequence& in = c.args[0];
  const Sequence& ins = c.args[2];
  size_t p = static_cast<size_t>(pos - 1);
  Sequence out;
  for (size_t i = 0; i < in.size(); ++i) {
    if (i == p) out.insert(out.end(), ins.begin(), ins.end());
    out.push_back(in[i]);
  }
  if (p >= in.size()) out.insert(out.end(), ins.begin(), ins.end());
  return out;
}

StatusOr<Sequence> FnRemove(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(const Item* pos_item, OptionalArg(c, 1));
  if (pos_item == nullptr) return std::move(c.args[0]);
  int64_t pos = pos_item->Atomize().AsInteger();
  Sequence out;
  for (size_t i = 0; i < c.args[0].size(); ++i) {
    if (static_cast<int64_t>(i + 1) != pos) out.push_back(c.args[0][i]);
  }
  return out;
}

StatusOr<Sequence> FnDeepEqual(const Call& c) {
  const Sequence& a = c.args[0];
  const Sequence& b = c.args[1];
  if (a.size() != b.size()) return xdm::SingletonBool(false);
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].IsNode() != b[i].IsNode()) return xdm::SingletonBool(false);
    if (a[i].IsNode()) {
      if (xml::SerializeNode(*a[i].node()) != xml::SerializeNode(*b[i].node())) {
        return xdm::SingletonBool(false);
      }
    } else {
      auto cmp = xdm::CompareAtomic(a[i].atomic(), b[i].atomic());
      if (!cmp.ok() || cmp.value() != 0) return xdm::SingletonBool(false);
    }
  }
  return xdm::SingletonBool(true);
}

// ---------------------------------------------------------------- nodes

StatusOr<Sequence> FnNodeName(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(const Item* item, ArgOrContextItem(c));
  if (item == nullptr) return xdm::SingletonString("");
  if (!item->IsNode()) return ArgError(c, "argument is not a node");
  const xml::QName& name = item->node()->name();
  const std::string& f = c.name.local;
  return xdm::SingletonString(f == "name"         ? name.Lexical()
                              : f == "local-name" ? name.local
                                                  : name.ns_uri);
}

StatusOr<Sequence> FnRoot(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(const Item* item, ArgOrContextItem(c));
  if (item == nullptr) return Sequence{};
  if (!item->IsNode()) return ArgError(c, "not a node");
  return Sequence{Item::NodeInTree(item->node()->Root(), item->anchor())};
}

// ---------------------------------------------------------------- focus

StatusOr<Sequence> FnPositionOrLast(const Call& c) {
  if (c.ctx.position == 0) {
    return Status::EvalError("fn:" + c.name.local + ": no context (XPDY0002)");
  }
  return xdm::SingletonInt(c.name.local == "position" ? c.ctx.position
                                                      : c.ctx.size);
}

// ---------------------------------------------------------- diagnostics

StatusOr<Sequence> FnError(const Call& c) {
  // fn:error($code, $description, $object): the description is the
  // message; a lone code stands in for it.
  const size_t n = c.args.size();
  if (n == 0) return Status::EvalError("fn:error called");
  XRPC_ASSIGN_OR_RETURN(std::string msg, StringArg(c, n >= 2 ? 1 : 0));
  return Status::EvalError(msg);
}

StatusOr<Sequence> FnTrace(const Call& c) { return std::move(c.args[0]); }

// ---------------------------------------------------------------- xs:T()

StatusOr<Sequence> XsConstructor(const Call& c) {
  XRPC_ASSIGN_OR_RETURN(AtomicType t,
                        xdm::AtomicTypeFromName("xs:" + c.name.local));
  SequenceType type;
  type.kind = SequenceType::ItemKind::kAtomic;
  type.atomic = t;
  type.occurrence = Occurrence::kZeroOrOne;
  return ApplyTypeExpr(ExprKind::kCastAs, type, std::move(c.args[0]));
}

constexpr size_t kVariadic = std::numeric_limits<size_t>::max();

// The fn: library. Rows: local name, min and max arity, body, and whether
// the zero-argument form reads the focus.
constexpr Builtin kFnBuiltins[] = {
    {"doc", 1, 1, FnDoc},
    {"put", 2, 2, FnPut},
    {"count", 1, 1, FnCount},
    {"empty", 1, 1, FnEmptyOrExists},
    {"exists", 1, 1, FnEmptyOrExists},
    {"not", 1, 1, FnNotOrBoolean},
    {"boolean", 1, 1, FnNotOrBoolean},
    {"true", 0, 0, FnTrueOrFalse},
    {"false", 0, 0, FnTrueOrFalse},
    {"zero-or-one", 1, 1, FnZeroOrOne},
    {"one-or-more", 1, 1, FnOneOrMore},
    {"exactly-one", 1, 1, FnExactlyOne},
    {"string", 0, 1, FnString, true},
    {"data", 1, 1, FnData},
    {"concat", 2, kVariadic, FnConcat},
    {"string-join", 1, 2, FnStringJoin},
    {"string-length", 0, 1, FnStringLength, true},
    {"normalize-space", 0, 1, FnNormalizeSpace, true},
    {"substring", 2, 3, FnSubstring},
    {"contains", 2, 2, FnStringMatch},
    {"starts-with", 2, 2, FnStringMatch},
    {"ends-with", 2, 2, FnStringMatch},
    {"substring-before", 2, 2, FnStringMatch},
    {"substring-after", 2, 2, FnStringMatch},
    {"upper-case", 1, 1, FnCase},
    {"lower-case", 1, 1, FnCase},
    {"number", 0, 1, FnNumber, true},
    {"abs", 1, 1, FnRounding},
    {"floor", 1, 1, FnRounding},
    {"ceiling", 1, 1, FnRounding},
    {"round", 1, 1, FnRounding},
    {"sum", 1, 2, FnAggregate},
    {"avg", 1, 2, FnAggregate},
    {"min", 1, 2, FnAggregate},
    {"max", 1, 2, FnAggregate},
    {"distinct-values", 1, 2, FnDistinctValues},
    {"reverse", 1, 1, FnReverse},
    {"subsequence", 2, 3, FnSubsequence},
    {"index-of", 2, 2, FnIndexOf},
    {"insert-before", 3, 3, FnInsertBefore},
    {"remove", 2, 2, FnRemove},
    {"deep-equal", 2, 2, FnDeepEqual},
    {"name", 0, 1, FnNodeName, true},
    {"local-name", 0, 1, FnNodeName, true},
    {"namespace-uri", 0, 1, FnNodeName, true},
    {"root", 0, 1, FnRoot, true},
    {"position", 0, 0, FnPositionOrLast, true},
    {"last", 0, 0, FnPositionOrLast, true},
    {"error", 0, 3, FnError},
    {"trace", 2, 2, FnTrace},
};

constexpr Builtin kXrpcBuiltins[] = {
    {"host", 1, 1, XrpcHostOrPath},
    {"path", 1, 1, XrpcHostOrPath},
};

constexpr Builtin kXsConstructor = {"", 1, 1, XsConstructor};

const Builtin* FindByLocal(std::string_view ns, const std::string& local) {
  using Index = std::unordered_map<std::string_view, const Builtin*>;
  static const Index* const fn_index = [] {
    auto* index = new Index();
    for (const Builtin& b : kFnBuiltins) (*index)[b.local] = &b;
    return index;
  }();
  if (ns == kFnNs) {
    auto it = fn_index->find(local);
    return it == fn_index->end() ? nullptr : it->second;
  }
  if (ns == xml::kXrpcNs) {
    for (const Builtin& b : kXrpcBuiltins) {
      if (b.local == local) return &b;
    }
    return nullptr;
  }
  if (ns == xml::kXsNs && xdm::AtomicTypeFromName(local).ok()) {
    return &kXsConstructor;
  }
  return nullptr;
}

bool Satisfies(CompOp op, int c) {
  switch (op) {
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
}

bool TestMatches(const xml::Node& n, const NodeTest& test, Axis axis) {
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
      NodeKind principal =
          axis == Axis::kAttribute ? NodeKind::kAttribute : NodeKind::kElement;
      if (n.kind() != principal) return false;
      return test.wildcard || n.name() == test.name;
    }
  }
  return false;
}

void CollectDescendants(xml::Node* n, const NodeTest& test, Axis axis,
                        const xml::NodePtr& anchor, Sequence* out) {
  for (const xml::NodePtr& c : n->children()) {
    if (TestMatches(*c, test, axis)) {
      out->push_back(Item::NodeInTree(c.get(), anchor));
    }
    CollectDescendants(c.get(), test, axis, anchor, out);
  }
}

bool MatchesOccurrence(size_t n, Occurrence occurrence) {
  switch (occurrence) {
    case Occurrence::kOne:
      return n == 1;
    case Occurrence::kZeroOrOne:
      return n <= 1;
    case Occurrence::kOneOrMore:
      return n >= 1;
    case Occurrence::kZeroOrMore:
      return true;
  }
  return false;
}

}  // namespace

StatusOr<const Builtin*> FindBuiltin(const xml::QName& name, size_t arity) {
  const Builtin* b = FindByLocal(name.ns_uri, name.local);
  if (b == nullptr) {
    return Status::NotFound("unknown function " + name.Clark() + "#" +
                            std::to_string(arity));
  }
  if (arity < b->min_arity || arity > b->max_arity) {
    return Status::TypeError(name.Lexical() + ": wrong number of arguments (" +
                             std::to_string(arity) + ")");
  }
  return b;
}

bool ReadsFocus(const xml::QName& name, size_t arity) {
  if (arity != 0) return false;
  const Builtin* b = FindByLocal(name.ns_uri, name.local);
  return b != nullptr && b->focus;
}

StatusOr<AtomicValue> AtomizeOne(const Sequence& seq, const char* what) {
  if (seq.size() != 1) {
    return Status::TypeError(std::string(what) +
                             ": expected exactly one item, got " +
                             std::to_string(seq.size()) + " (XPTY0004)");
  }
  return seq[0].Atomize();
}

// ------------------------------------------------------------ operators

StatusOr<Sequence> Compare(CompOp op, const Sequence& l, const Sequence& r) {
  switch (op) {
    case CompOp::kNodeIs:
    case CompOp::kNodeBefore:
    case CompOp::kNodeAfter: {
      if (l.empty() || r.empty()) return Sequence{};
      if (l.size() != 1 || r.size() != 1 || !l[0].IsNode() ||
          !r[0].IsNode()) {
        return Status::TypeError(
            "node comparison requires single nodes (XPTY0004)");
      }
      int c = xml::CompareDocumentOrder(l[0].node(), r[0].node());
      return xdm::SingletonBool(op == CompOp::kNodeIs
                                    ? l[0].node() == r[0].node()
                                    : (op == CompOp::kNodeBefore ? c < 0
                                                                 : c > 0));
    }
    case CompOp::kValEq:
    case CompOp::kValNe:
    case CompOp::kValLt:
    case CompOp::kValLe:
    case CompOp::kValGt:
    case CompOp::kValGe: {
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
      return xdm::SingletonBool(Satisfies(op, c));
    }
    default:
      break;
  }
  // General comparison: existential over the atomized operands.
  std::vector<AtomicValue> la = xdm::AtomizeSequence(l);
  std::vector<AtomicValue> ra = xdm::AtomizeSequence(r);
  for (const AtomicValue& a : la) {
    for (const AtomicValue& b : ra) {
      XRPC_ASSIGN_OR_RETURN(int c, xdm::CompareAtomic(a, b));
      if (Satisfies(op, c)) return xdm::SingletonBool(true);
    }
  }
  return xdm::SingletonBool(false);
}

StatusOr<Sequence> Arithmetic(ArithOp op, const Sequence& l,
                              const Sequence& r) {
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
    return Status::TypeError("arithmetic on non-numeric operands (XPTY0004)");
  }
  const bool both_int =
      la.type() == AtomicType::kInteger && ra.type() == AtomicType::kInteger;
  auto div_by_zero = [] {
    return Status::EvalError("division by zero (FOAR0001)");
  };
  switch (op) {
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
      // Integer operands divide as xs:decimal, which has no infinity.
      double d = ra.AsDouble();
      if (both_int && d == 0) return div_by_zero();
      return xdm::SingletonDouble(la.AsDouble() / d);
    }
    case ArithOp::kIDiv:
      if (ra.AsDouble() == 0) return div_by_zero();
      return xdm::SingletonInt(
          static_cast<int64_t>(std::trunc(la.AsDouble() / ra.AsDouble())));
    case ArithOp::kMod:
      if (both_int) {
        if (ra.AsInteger() == 0) return div_by_zero();
        return xdm::SingletonInt(la.AsInteger() % ra.AsInteger());
      }
      return xdm::SingletonDouble(std::fmod(la.AsDouble(), ra.AsDouble()));
  }
  return Status::Internal("unhandled arithmetic op");
}

StatusOr<Sequence> Negate(const Sequence& v) {
  if (v.empty()) return v;
  XRPC_ASSIGN_OR_RETURN(AtomicValue a, AtomizeOne(v, "unary minus"));
  if (a.type() == AtomicType::kInteger) return xdm::SingletonInt(-a.AsInteger());
  XRPC_ASSIGN_OR_RETURN(AtomicValue d, a.CastTo(AtomicType::kDouble));
  return xdm::SingletonDouble(-d.AsDouble());
}

StatusOr<Sequence> Range(const Sequence& lo_s, const Sequence& hi_s) {
  if (lo_s.empty() || hi_s.empty()) return Sequence{};
  XRPC_ASSIGN_OR_RETURN(AtomicValue lo_a, AtomizeOne(lo_s, "range"));
  XRPC_ASSIGN_OR_RETURN(AtomicValue hi_a, AtomizeOne(hi_s, "range"));
  XRPC_ASSIGN_OR_RETURN(AtomicValue lo, lo_a.CastTo(AtomicType::kInteger));
  XRPC_ASSIGN_OR_RETURN(AtomicValue hi, hi_a.CastTo(AtomicType::kInteger));
  Sequence out;
  int64_t a = lo.AsInteger(), b = hi.AsInteger();
  if (a > b) return out;
  if (b - a > 100'000'000) return Status::EvalError("range too large");
  out.reserve(static_cast<size_t>(b - a + 1));
  for (int64_t i = a; i <= b; ++i) out.push_back(Item(AtomicValue::Integer(i)));
  return out;
}

StatusOr<bool> PredicateTruth(const Sequence& v, int64_t position) {
  if (v.size() == 1 && v[0].IsAtomic() && v[0].atomic().IsNumeric()) {
    return v[0].atomic().AsDouble() == static_cast<double>(position);
  }
  return xdm::EffectiveBooleanValue(v);
}

// ----------------------------------------------------------- type rules

StatusOr<Sequence> CoerceToType(Sequence seq, const SequenceType& type) {
  if (!MatchesOccurrence(seq.size(), type.occurrence)) {
    return Status::TypeError(std::to_string(seq.size()) +
                             " items do not match type " + type.ToString() +
                             " (XPTY0004)");
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
                                 type.ToString() + " (XPTY0004)");
      }
    }
  }
  return seq;
}

bool MatchesSequenceType(const Sequence& seq, const SequenceType& type) {
  if (!MatchesOccurrence(seq.size(), type.occurrence)) return false;
  if (type.kind == SequenceType::ItemKind::kEmpty) return seq.empty();
  for (const Item& item : seq) {
    switch (type.kind) {
      case SequenceType::ItemKind::kItem:
      case SequenceType::ItemKind::kEmpty:
        break;
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
  return true;
}

StatusOr<Sequence> ApplyTypeExpr(ExprKind kind, const SequenceType& type,
                                 Sequence v) {
  switch (kind) {
    case ExprKind::kCastAs: {
      if (v.empty()) {
        if (type.occurrence == Occurrence::kZeroOrOne) return v;
        return Status::TypeError("cast of empty sequence (XPTY0004)");
      }
      XRPC_ASSIGN_OR_RETURN(AtomicValue a, AtomizeOne(v, "cast"));
      if (type.kind != SequenceType::ItemKind::kAtomic) {
        return Status::TypeError("cast target must be an atomic type");
      }
      XRPC_ASSIGN_OR_RETURN(AtomicValue c, a.CastTo(type.atomic));
      return Sequence{Item(std::move(c))};
    }
    case ExprKind::kCastableAs:
      if (v.empty()) {
        return xdm::SingletonBool(type.occurrence == Occurrence::kZeroOrOne);
      }
      if (v.size() > 1 || type.kind != SequenceType::ItemKind::kAtomic) {
        return xdm::SingletonBool(false);
      }
      return xdm::SingletonBool(v[0].Atomize().CastTo(type.atomic).ok());
    case ExprKind::kInstanceOf:
      return xdm::SingletonBool(MatchesSequenceType(v, type));
    case ExprKind::kTreatAs:
      if (!MatchesSequenceType(v, type)) {
        return Status::TypeError("treat as " + type.ToString() +
                                 " failed (XPDY0050)");
      }
      return v;
    default:
      return Status::Internal("not a type expression");
  }
}

// ----------------------------------------------------------- axis steps

bool IsForwardAxis(Axis axis) {
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

void CollectAxis(const Item& item, Axis axis, const NodeTest& test,
                 Sequence* out) {
  xml::Node* n = item.node();
  const xml::NodePtr& anchor = item.anchor();
  auto emit = [&](xml::Node* m) {
    if (TestMatches(*m, test, axis)) {
      out->push_back(Item::NodeInTree(m, anchor));
    }
  };
  switch (axis) {
    case Axis::kChild:
      for (const xml::NodePtr& c : n->children()) emit(c.get());
      return;
    case Axis::kAttribute:
      for (const xml::NodePtr& a : n->attributes()) emit(a.get());
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
      for (xml::Node* p = n->parent(); p != nullptr; p = p->parent()) emit(p);
      return;
    case Axis::kAncestorOrSelf:
      for (xml::Node* p = n; p != nullptr; p = p->parent()) emit(p);
      return;
    case Axis::kFollowingSibling:
    case Axis::kPrecedingSibling: {
      xml::Node* parent = n->parent();
      if (parent == nullptr || n->kind() == NodeKind::kAttribute) return;
      const size_t self = n->IndexInParent();
      const auto& siblings = parent->children();
      if (axis == Axis::kFollowingSibling) {
        for (size_t i = self + 1; i < siblings.size(); ++i) {
          emit(siblings[i].get());
        }
      } else {
        for (size_t i = 0; i < self; ++i) emit(siblings[i].get());
      }
      return;
    }
  }
}

}  // namespace xrpc::xquery
