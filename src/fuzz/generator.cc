#include "fuzz/generator.h"

#include <iterator>
#include <utility>

namespace xrpc::fuzz {

namespace {

/// The XMark-derived document vocabulary the generator draws from. Each
/// source names a document URI (as visible from the originating peer p0 of
/// the differential fixture) and the element/attribute names that occur
/// under it, so generated paths usually select something.
struct DocSchema {
  const char* uri;
  /// Child-step chains that reach populated element sets.
  std::vector<std::vector<const char*>> spines;
  /// Leaf elements with numeric content (usable in arithmetic).
  std::vector<const char*> numeric_leaves;
  /// Leaf elements with string content.
  std::vector<const char*> string_leaves;
  /// Attribute names (on the spine tail element).
  std::vector<const char*> attributes;
};

const DocSchema& PersonsSchema() {
  static const DocSchema s{
      "persons.xml",
      {{"site", "people", "person"}, {"site", "people"}},
      {},
      {"name"},
      {"id"},
  };
  return s;
}

const DocSchema& AuctionsSchema() {
  static const DocSchema s{
      "xrpc://B/auctions.xml",
      {{"site", "closed_auctions", "closed_auction"},
       {"site", "open_auctions", "open_auction"},
       {"site", "items", "item"}},
      {"price"},
      {"itemref"},
      {"person", "item", "id"},
  };
  return s;
}

const DocSchema& FilmsSchema() {
  static const DocSchema s{
      "films.xml",
      {{"films", "film"}},
      {},
      {"name", "actor"},
      {},
  };
  return s;
}

const DocSchema& SchemaByIndex(uint64_t i) {
  switch (i % 3) {
    case 0: return PersonsSchema();
    case 1: return AuctionsSchema();
    default: return FilmsSchema();
  }
}

/// Descendant-step element names that exist in the fixture documents.
const char* const kDescendantNames[] = {
    "person", "name", "closed_auction", "open_auction", "buyer",
    "price",  "item", "annotation",     "film",         "actor",
};

/// String literals that overlap the fixture data (ids, names, fragments)
/// so comparisons are sometimes true.
const char* const kStringPool[] = {
    "person0", "person1", "person3", "item2", "a",
    "e",       "an",      "xyzzy",   "The",   "",
};

std::unique_ptr<GenNode> LitNode(std::string text, std::string reduced = "") {
  auto n = std::make_unique<GenNode>();
  n->Lit(std::move(text));
  n->reduced = std::move(reduced);
  return n;
}

}  // namespace

// ---------------------------------------------------------------- GenNode

std::string GenNode::Render() const {
  if (collapsed) return reduced;
  std::string out;
  for (const Piece& p : pieces) {
    if (p.child >= 0) {
      out += children[static_cast<size_t>(p.child)]->Render();
    } else {
      out += p.text;
    }
  }
  return out;
}

void GenNode::Lit(std::string text) {
  pieces.push_back(Piece{std::move(text), -1});
}

GenNode* GenNode::Add(std::unique_ptr<GenNode> child) {
  GenNode* raw = child.get();
  pieces.push_back(Piece{"", static_cast<int>(children.size())});
  children.push_back(std::move(child));
  return raw;
}

void GenNode::Walk(const std::function<void(GenNode*)>& fn) {
  fn(this);
  if (collapsed) return;
  for (auto& c : children) c->Walk(fn);
}

// ---------------------------------------------------------- QueryGenerator

/// Variables in scope while generating, tagged by what they are bound to so
/// follow-up uses type-check often enough to be interesting.
struct QueryGenerator::Scope {
  enum class Kind { kNodes, kAtomic };
  struct Var {
    std::string name;
    Kind kind;
    const DocSchema* schema;  ///< set for node vars bound to a known spine
    std::string elem;         ///< spine tail element name (may be empty)
  };
  std::vector<Var> vars;
  bool rpc_allowed = false;

  const Var* PickNodeVar(DeterministicPrng* prng) const {
    std::vector<const Var*> nodes;
    for (const Var& v : vars) {
      if (v.kind == Kind::kNodes) nodes.push_back(&v);
    }
    if (nodes.empty()) return nullptr;
    return nodes[prng->NextUint64() % nodes.size()];
  }
};

QueryGenerator::QueryGenerator(const GeneratorConfig& config)
    : config_(config), prng_(config.seed) {}

std::string QueryGenerator::FixturePrologue() {
  return "import module namespace b=\"functions_b\" at \"b.xq\";\n"
         "import module namespace tst=\"test\" at \"test.xq\";\n";
}

GeneratedQuery QueryGenerator::Next() {
  GeneratedQuery q;
  q.seed = config_.seed;
  q.index = next_index_++;
  var_counter_ = 0;
  q.updating = Chance(config_.update_ratio);
  bool with_rpc = config_.allow_rpc && !q.updating && Chance(config_.rpc_ratio);
  q.root = GenQueryBody(q.updating, with_rpc);
  return q;
}

std::unique_ptr<GenNode> QueryGenerator::GenQueryBody(bool updating,
                                                      bool with_rpc) {
  auto root = std::make_unique<GenNode>();
  if (with_rpc) root->Lit(FixturePrologue());
  Scope scope;
  scope.rpc_allowed = with_rpc;
  if (updating) {
    root->Add(GenUpdate(&scope));
  } else {
    root->Add(GenExpr(config_.max_depth, &scope));
  }
  return root;
}

std::unique_ptr<GenNode> QueryGenerator::GenExpr(int depth, Scope* scope) {
  if (depth <= 0) return GenAtomic(scope);
  switch (Below(12)) {
    case 0:
    case 1:
      return GenFlwor(depth, scope);
    case 2:
      return GenPath(depth, scope);
    case 3:
      return GenComparison(depth, scope);
    case 4:
      return GenArith(depth, scope);
    case 5:
      return GenStringExpr(depth, scope);
    case 6:
      return GenAggregate(depth, scope);
    case 7:
      return GenIf(depth, scope);
    case 8:
      return GenConstructor(depth, scope);
    case 9:
      if (scope->rpc_allowed) return GenExecuteAt(depth, scope);
      return GenQuantified(depth, scope);
    case 10: {
      // Parenthesized sequence (e1, e2).
      auto n = std::make_unique<GenNode>();
      n->reduced = "()";
      n->Lit("(");
      n->Add(GenExpr(depth - 1, scope));
      n->Lit(", ");
      n->Add(GenExpr(depth - 1, scope));
      n->Lit(")");
      return n;
    }
    default:
      return GenAtomic(scope);
  }
}

std::unique_ptr<GenNode> QueryGenerator::GenFlwor(int depth, Scope* scope) {
  auto n = std::make_unique<GenNode>();
  n->reduced = "()";
  Scope inner = *scope;

  int clauses = 1 + static_cast<int>(Below(2));
  for (int c = 0; c < clauses; ++c) {
    std::string var = "$v" + std::to_string(var_counter_++);
    bool let = c > 0 && Chance(0.3);
    if (let) {
      n->Lit((c == 0 ? "let " : "\nlet ") + var + " := ");
      n->Add(GenExpr(depth - 1, &inner));
      inner.vars.push_back({var, Scope::Kind::kAtomic, nullptr, ""});
    } else {
      n->Lit((c == 0 ? "for " : "\nfor ") + var + " in ");
      if (Chance(0.65)) {
        // Bind to a document spine so the body has data to look at.
        const DocSchema& schema = SchemaByIndex(Below(3));
        const auto& spine = schema.spines[Below(schema.spines.size())];
        std::string path = "doc(\"" + std::string(schema.uri) + "\")";
        for (const char* step : spine) path += std::string("/") + step;
        auto src = std::make_unique<GenNode>();
        src->reduced = "()";
        src->Lit(path);
        n->Add(std::move(src));
        inner.vars.push_back({var, Scope::Kind::kNodes, &schema,
                              spine.back()});
      } else if (Chance(0.5)) {
        auto src = std::make_unique<GenNode>();
        src->reduced = "1";
        src->Lit("1 to " + std::to_string(1 + Below(6)));
        n->Add(std::move(src));
        inner.vars.push_back({var, Scope::Kind::kAtomic, nullptr, ""});
      } else {
        n->Add(GenExpr(depth - 1, &inner));
        inner.vars.push_back({var, Scope::Kind::kAtomic, nullptr, ""});
      }
    }
  }
  if (Chance(0.45)) {
    n->Lit("\nwhere ");
    n->Add(GenComparison(depth - 1, &inner));
  }
  if (Chance(0.3)) {
    n->Lit("\norder by ");
    auto key = std::make_unique<GenNode>();
    const Scope::Var* v = inner.PickNodeVar(&prng_);
    if (v != nullptr && v->schema != nullptr &&
        !v->schema->string_leaves.empty() && Chance(0.7)) {
      key->Lit("string(" + v->name + "/" +
               v->schema->string_leaves[Below(
                   v->schema->string_leaves.size())] +
               ")");
    } else {
      key = GenStringExpr(depth - 1, &inner);
    }
    n->Add(std::move(key));
    if (Chance(0.3)) n->Lit(" descending");
  }
  n->Lit("\nreturn ");
  n->Add(GenExpr(depth - 1, &inner));
  return n;
}

std::unique_ptr<GenNode> QueryGenerator::GenQuantified(int depth,
                                                       Scope* scope) {
  auto n = std::make_unique<GenNode>();
  n->reduced = "true()";
  std::string var = "$q" + std::to_string(var_counter_++);
  n->Lit(std::string(Chance(0.5) ? "some " : "every ") + var + " in ");
  Scope inner = *scope;
  if (Chance(0.5)) {
    auto src = std::make_unique<GenNode>();
    src->reduced = "1";
    src->Lit("1 to " + std::to_string(1 + Below(5)));
    n->Add(std::move(src));
  } else {
    n->Add(GenExpr(depth - 1, &inner));
  }
  inner.vars.push_back({var, Scope::Kind::kAtomic, nullptr, ""});
  n->Lit(" satisfies ");
  n->Add(GenComparison(depth - 1, &inner));
  return n;
}

std::unique_ptr<GenNode> QueryGenerator::GenIf(int depth, Scope* scope) {
  auto n = std::make_unique<GenNode>();
  n->reduced = "()";
  n->Lit("if (");
  n->Add(GenComparison(depth - 1, scope));
  n->Lit(") then ");
  n->Add(GenExpr(depth - 1, scope));
  n->Lit(" else ");
  n->Add(GenExpr(depth - 1, scope));
  return n;
}

std::unique_ptr<GenNode> QueryGenerator::GenPath(int depth, Scope* scope) {
  auto n = std::make_unique<GenNode>();
  n->reduced = "()";
  const Scope::Var* v = scope->PickNodeVar(&prng_);
  const DocSchema* schema;
  std::string elem;
  if (v != nullptr && Chance(0.6)) {
    n->Lit(v->name);
    schema = v->schema;
    elem = v->elem;
    // Step down from the bound element.
    if (schema != nullptr) {
      if (!schema->attributes.empty() && Chance(0.35)) {
        n->Lit("/@" + std::string(schema->attributes[Below(
                          schema->attributes.size())]));
        return n;
      }
      if (!schema->string_leaves.empty() && Chance(0.5)) {
        elem = schema->string_leaves[Below(schema->string_leaves.size())];
        n->Lit("/" + elem);
      } else if (!schema->numeric_leaves.empty()) {
        elem = schema->numeric_leaves[Below(schema->numeric_leaves.size())];
        n->Lit("/" + elem);
      } else {
        n->Lit("/*");
        elem.clear();
      }
    } else {
      n->Lit("/*");
      elem.clear();
    }
  } else {
    schema = &SchemaByIndex(Below(3));
    n->Lit("doc(\"" + std::string(schema->uri) + "\")");
    if (Chance(0.5)) {
      elem = kDescendantNames[Below(std::size(kDescendantNames))];
      n->Lit("//" + elem);
    } else {
      const auto& spine = schema->spines[Below(schema->spines.size())];
      for (const char* step : spine) n->Lit(std::string("/") + step);
      elem = spine.back();
    }
  }
  if (Chance(0.45)) n->Add(GenPredicate(depth - 1, scope, elem));
  if (Chance(0.2)) n->Lit("/text()");
  return n;
}

std::unique_ptr<GenNode> QueryGenerator::GenPredicate(
    int depth, Scope* scope, const std::string& elem) {
  auto n = std::make_unique<GenNode>();
  n->droppable = true;  // a predicate may be removed wholesale
  n->Lit("[");
  switch (Below(4)) {
    case 0:
      // Positional.
      n->Lit(std::to_string(1 + Below(4)));
      break;
    case 1:
      if (elem == "closed_auction" || elem == "open_auction") {
        n->Lit("price > " + std::to_string(100 + Below(800)));
      } else {
        n->Lit("position() <= " + std::to_string(1 + Below(3)));
      }
      break;
    case 2: {
      // Existence / name comparison on a child.
      const char* name = kDescendantNames[Below(std::size(kDescendantNames))];
      n->Lit(std::string(name));
      break;
    }
    default: {
      auto inner = GenComparison(depth, scope);
      n->Add(std::move(inner));
      break;
    }
  }
  n->Lit("]");
  return n;
}

std::unique_ptr<GenNode> QueryGenerator::GenComparison(int depth,
                                                       Scope* scope) {
  auto n = std::make_unique<GenNode>();
  n->reduced = "true()";
  static const char* kOps[] = {"=", "!=", "<", "<=", ">", ">="};
  const Scope::Var* v = scope->PickNodeVar(&prng_);
  if (v != nullptr && v->schema != nullptr && Chance(0.5)) {
    const DocSchema* s = v->schema;
    if (!s->attributes.empty() && Chance(0.5)) {
      n->Lit(v->name + "/@" +
             std::string(s->attributes[Below(s->attributes.size())]) + " " +
             kOps[Below(2)] + " ");
      n->Add(LitNode("\"" + std::string(kStringPool[Below(
                              std::size(kStringPool))]) +
                         "\"",
                     "\"x\""));
    } else if (!s->numeric_leaves.empty()) {
      n->Lit(v->name + "/" +
             std::string(s->numeric_leaves[Below(s->numeric_leaves.size())]) +
             " " + std::string(kOps[Below(std::size(kOps))]) + " ");
      n->Add(GenArith(depth - 1, scope));
    } else {
      n->Lit("count(" + v->name + ") " +
             std::string(kOps[Below(std::size(kOps))]) + " ");
      n->Add(LitNode(std::to_string(Below(4)), "0"));
    }
    return n;
  }
  if (depth > 1 && Chance(0.25)) {
    // Boolean connective of two simpler comparisons.
    n->Lit("(");
    n->Add(GenComparison(depth - 1, scope));
    n->Lit(Chance(0.5) ? " and " : " or ");
    n->Add(GenComparison(depth - 1, scope));
    n->Lit(")");
    return n;
  }
  n->Add(GenArith(depth - 1, scope));
  n->Lit(" " + std::string(kOps[Below(std::size(kOps))]) + " ");
  n->Add(GenArith(depth - 1, scope));
  return n;
}

std::unique_ptr<GenNode> QueryGenerator::GenArith(int depth, Scope* scope) {
  if (depth <= 0 || Chance(0.4)) {
    return LitNode(std::to_string(Below(20)), "1");
  }
  auto n = std::make_unique<GenNode>();
  n->reduced = "1";
  static const char* kOps[] = {" + ", " - ", " * ", " div ", " idiv ",
                               " mod "};
  switch (Below(6)) {
    case 0: {
      const Scope::Var* v = scope->PickNodeVar(&prng_);
      if (v != nullptr && v->schema != nullptr &&
          !v->schema->numeric_leaves.empty()) {
        n->Lit("number(" + v->name + "/" +
               v->schema->numeric_leaves[Below(
                   v->schema->numeric_leaves.size())] +
               ")");
        return n;
      }
      n->Lit("count(");
      n->Add(GenPath(depth - 1, scope));
      n->Lit(")");
      return n;
    }
    case 1:
      n->Lit("count(");
      n->Add(GenPath(depth - 1, scope));
      n->Lit(")");
      return n;
    case 2: {
      // Numeric builtins of the shared function library.
      static const char* kFns[] = {"round(", "abs(", "floor(", "ceiling("};
      if (Chance(0.3)) {
        n->Lit("string-length(");
        n->Add(GenStringExpr(depth - 1, scope));
      } else {
        n->Lit(kFns[Below(std::size(kFns))]);
        n->Add(GenArith(depth - 1, scope));
      }
      n->Lit(")");
      return n;
    }
    default: {
      n->Add(GenArith(depth - 1, scope));
      // idiv/mod by a constant to keep divide-by-zero rare; div by any
      // operand, so integer division by zero (FOAR0001) and double
      // infinities both occur.
      std::string op = kOps[Below(std::size(kOps))];
      n->Lit(op);
      if (op == " idiv " || op == " mod ") {
        n->Add(LitNode(std::to_string(1 + Below(7)), "1"));
      } else {
        n->Add(GenArith(depth - 1, scope));
      }
      return n;
    }
  }
}

std::unique_ptr<GenNode> QueryGenerator::GenStringExpr(int depth,
                                                       Scope* scope) {
  auto n = std::make_unique<GenNode>();
  n->reduced = "\"x\"";
  switch (Below(6)) {
    case 0: {
      n->Lit("concat(");
      n->Add(GenStringExpr(depth - 1, scope));
      n->Lit(", ");
      n->Add(GenStringExpr(depth - 1, scope));
      n->Lit(")");
      return n;
    }
    case 1: {
      n->Lit("string-join(");
      n->Add(depth > 0 ? GenPath(depth - 1, scope)
                       : LitNode("(\"a\",\"b\")", "()"));
      n->Lit(", \"|\")");
      return n;
    }
    case 2: {
      n->Lit("string(");
      n->Add(depth > 0 ? GenExpr(depth - 1, scope) : GenAtomic(scope));
      n->Lit(")");
      return n;
    }
    case 3: {
      const char* f = Chance(0.5) ? "contains"
                                  : (Chance(0.5) ? "starts-with" : "ends-with");
      n->Lit(std::string(f) + "(");
      n->Add(GenStringExpr(depth - 1, scope));
      n->Lit(", \"" +
             std::string(kStringPool[Below(std::size(kStringPool))]) + "\")");
      return n;
    }
    case 4: {
      // String builtins of the shared function library.
      auto arg = [&] {
        return depth > 0 ? GenStringExpr(depth - 1, scope)
                         : LitNode("\" a b \"", "\"x\"");
      };
      switch (Below(3)) {
        case 0:
          n->Lit(Chance(0.5) ? "upper-case(" : "lower-case(");
          n->Add(arg());
          n->Lit(")");
          break;
        case 1:
          n->Lit("substring(");
          n->Add(arg());
          n->Lit(", " + std::to_string(Below(4)) + ", " +
                 std::to_string(Below(5)) + ")");
          break;
        default:
          n->Lit("normalize-space(");
          n->Add(arg());
          n->Lit(")");
          break;
      }
      return n;
    }
    default: {
      const Scope::Var* v = scope->PickNodeVar(&prng_);
      if (v != nullptr && v->schema != nullptr &&
          !v->schema->string_leaves.empty()) {
        n->Lit("string(" + v->name + "/" +
               v->schema->string_leaves[Below(
                   v->schema->string_leaves.size())] +
               ")");
        return n;
      }
      n->Lit("\"" + std::string(kStringPool[Below(std::size(kStringPool))]) +
             "\"");
      return n;
    }
  }
}

std::unique_ptr<GenNode> QueryGenerator::GenAggregate(int depth,
                                                      Scope* scope) {
  auto n = std::make_unique<GenNode>();
  n->reduced = "0";
  static const char* kAggs[] = {"count",  "sum",    "avg",
                                "min",    "max",    "empty",
                                "exists", "distinct-values", "reverse"};
  const char* agg = kAggs[Below(std::size(kAggs))];
  n->Lit(std::string(agg) + "(");
  bool numeric = std::string(agg) != "count" && std::string(agg) != "empty" &&
                 std::string(agg) != "exists" &&
                 std::string(agg) != "distinct-values" &&
                 std::string(agg) != "reverse";
  if (numeric) {
    // Aggregate over a numeric sequence: a range or numeric leaf path.
    if (Chance(0.5)) {
      n->Add(LitNode("1 to " + std::to_string(1 + Below(8)), "1"));
    } else {
      auto inner = std::make_unique<GenNode>();
      inner->reduced = "1";
      inner->Lit("for $a" + std::to_string(var_counter_) + " in ");
      std::string var = "$a" + std::to_string(var_counter_++);
      inner->Lit(
          "doc(\"xrpc://B/auctions.xml\")/site/closed_auctions/"
          "closed_auction");
      inner->Lit(" return number(" + var + "/price)");
      n->Add(std::move(inner));
    }
  } else {
    n->Add(GenPath(depth - 1, scope));
  }
  n->Lit(")");
  return n;
}

std::unique_ptr<GenNode> QueryGenerator::GenConstructor(int depth,
                                                        Scope* scope) {
  auto n = std::make_unique<GenNode>();
  n->reduced = "<r/>";
  static const char* kNames[] = {"r", "out", "row", "wrap"};
  std::string name = kNames[Below(std::size(kNames))];
  n->Lit("<" + name);
  if (Chance(0.3)) {
    n->Lit(" k=\"{");
    n->Add(GenArith(depth - 1, scope));
    n->Lit("}\"");
  }
  n->Lit(">{");
  n->Add(GenExpr(depth - 1, scope));
  n->Lit("}</" + name + ">");
  return n;
}

std::unique_ptr<GenNode> QueryGenerator::GenExecuteAt(int depth,
                                                      Scope* scope) {
  auto n = std::make_unique<GenNode>();
  n->reduced = "()";
  n->Lit("execute at {\"xrpc://B\"} {");
  switch (Below(4)) {
    case 0:
      n->Lit("b:Q_B1()");
      break;
    case 1: {
      n->Lit("b:Q_B3(");
      n->Add(GenStringExpr(depth - 1, scope));
      n->Lit(")");
      break;
    }
    case 2: {
      n->Lit("tst:echo(");
      n->Add(GenExpr(depth > 1 ? 1 : 0, scope));
      n->Lit(")");
      break;
    }
    default: {
      n->Lit("tst:makePayload(");
      n->Add(LitNode(std::to_string(1 + Below(5)), "1"));
      n->Lit(")");
      break;
    }
  }
  n->Lit("}");
  return n;
}

std::unique_ptr<GenNode> QueryGenerator::GenUpdate(Scope* scope) {
  auto n = std::make_unique<GenNode>();
  // Updates have no generic reduced form (the minimizer works on their
  // argument subtrees instead).
  switch (Below(4)) {
    case 0: {
      n->Lit("insert nodes <person id=\"pX" + std::to_string(Below(100)) +
             "\"><name>");
      n->Add(GenStringExpr(1, scope));
      n->Lit("</name></person> into doc(\"persons.xml\")/site/people");
      return n;
    }
    case 1: {
      n->Lit("delete nodes doc(\"persons.xml\")/site/people/person[");
      n->Lit(std::to_string(1 + Below(6)));
      n->Lit("]");
      return n;
    }
    case 2: {
      n->Lit(
          "replace value of node "
          "doc(\"persons.xml\")/site/people/person[" +
          std::to_string(1 + Below(4)) + "]/name with ");
      n->Add(GenStringExpr(1, scope));
      return n;
    }
    default: {
      n->Lit("rename node doc(\"films.xml\")/films/film[" +
             std::to_string(1 + Below(3)) + "] as \"movie\"");
      return n;
    }
  }
}

std::unique_ptr<GenNode> QueryGenerator::GenAtomic(Scope* scope) {
  switch (Below(4)) {
    case 0:
      return LitNode(std::to_string(Below(50)), "1");
    case 1:
      return LitNode(
          "\"" + std::string(kStringPool[Below(std::size(kStringPool))]) +
              "\"",
          "\"x\"");
    case 2: {
      if (!scope->vars.empty()) {
        const auto& v = scope->vars[Below(scope->vars.size())];
        return LitNode(v.name);
      }
      return LitNode(std::to_string(1 + Below(9)), "1");
    }
    default:
      return LitNode(Chance(0.5) ? "true()" : "false()", "true()");
  }
}

}  // namespace xrpc::fuzz
