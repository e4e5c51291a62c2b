#include "xquery/path_index.h"

#include <algorithm>

#include "xquery/ast.h"
#include "xquery/functions.h"
#include "xquery/normalize.h"

namespace xrpc::xquery {

namespace {

using xdm::AtomicType;
using xdm::Item;
using xdm::Sequence;

/// A join index is built only over this many candidates or more: below
/// it, filtering the candidates costs about what building the index does.
constexpr size_t kMinJoinCandidates = 16;

/// True for a path evaluated from the context item using only downward
/// axes and no nested predicates: a pure walk from each candidate.
bool IsDownwardContextPath(const Expr& e) {
  if (e.kind != ExprKind::kPath || e.root_path) return false;
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

bool IsContextIndependent(const Expr& e) {
  return e.kind == ExprKind::kVarRef || e.kind == ExprKind::kLiteral;
}

/// The (key path, probe) orientation of an indexable equality predicate,
/// or {null, null}.
std::pair<const Expr*, const Expr*> IndexableEquality(const Expr& pred) {
  if (pred.kind != ExprKind::kComparison || pred.comp_op != CompOp::kGenEq) {
    return {nullptr, nullptr};
  }
  const Expr* l = pred.children[0].get();
  const Expr* r = pred.children[1].get();
  if (IsDownwardContextPath(*l) && IsContextIndependent(*r)) return {l, r};
  if (IsDownwardContextPath(*r) && IsContextIndependent(*l)) return {r, l};
  return {nullptr, nullptr};
}

/// `step`'s axis output from every node of `input`, predicates not
/// applied; in document order and duplicate-free.
Sequence Walk(const Sequence& input, const PathStep& step) {
  Sequence out;
  for (const Item& item : input) {
    CollectAxis(item, step.axis, step.test, &out);
  }
  if (input.size() > 1 || !IsForwardAxis(step.axis)) {
    (void)xdm::SortByDocumentOrder(&out);  // axis steps yield nodes only
  }
  return out;
}

/// The string value of every node `key_path` reaches from candidate i,
/// mapped to i.
PathIndex::JoinIndex BuildJoinIndex(const Sequence& candidates,
                                    const Expr& key_path) {
  PathIndex::JoinIndex index;
  index.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    Sequence keys{candidates[i]};
    for (const PathStep& step : key_path.steps) keys = Walk(keys, step);
    for (const Item& k : keys) index.emplace(k.StringValue(), i);
  }
  return index;
}

std::shared_ptr<const PathIndex::Entry> BuildEntry(const Expr& path,
                                                   const IndexedHead& head,
                                                   const Item& doc) {
  auto entry = std::make_shared<PathIndex::Entry>();
  entry->doc = doc.node()->weak_from_this();
  entry->stamp = doc.node()->mutation_stamp();
  Sequence nodes{doc};
  for (size_t i = 0; i < head.end(); ++i) nodes = Walk(nodes, path.steps[i]);
  if (head.plain != nullptr) {
    const Expr* key_path = IndexableEquality(*head.plain->predicates[0]).first;
    if (key_path != nullptr && nodes.size() >= kMinJoinCandidates) {
      entry->join = BuildJoinIndex(nodes, *key_path);
    }
  }
  entry->nodes.reserve(nodes.size());
  for (const Item& item : nodes) entry->nodes.push_back(item.node());
  return entry;
}

}  // namespace

IndexedHead HeadOf(const Expr& path) {
  IndexedHead head;
  const std::vector<PathStep>& steps = path.steps;
  while (head.prefix < steps.size() && steps[head.prefix].predicates.empty()) {
    ++head.prefix;
  }
  if (head.prefix < steps.size() &&
      HasNonPositionalPredicates(steps[head.prefix])) {
    head.plain = &steps[head.prefix];
  }
  return head;
}

bool IsIndexSource(const Item& item) {
  return item.IsNode() && item.node()->kind() == xml::NodeKind::kDocument &&
         item.node()->parent() == nullptr;
}

Sequence NodeItems(std::span<xml::Node* const> nodes,
                   const xml::NodePtr& anchor) {
  Sequence out;
  out.reserve(nodes.size());
  for (xml::Node* n : nodes) out.push_back(Item::NodeInTree(n, anchor));
  return out;
}

const Expr* JoinProbe(const PathStep& step) {
  return step.predicates.empty()
             ? nullptr
             : IndexableEquality(*step.predicates[0]).second;
}

std::optional<std::vector<xml::Node*>> PathIndex::Entry::Probe(
    const Sequence& probe) const {
  if (join.empty()) return std::nullopt;
  for (const Item& p : probe) {
    const AtomicType t = p.Atomize().type();
    if (t != AtomicType::kString && t != AtomicType::kUntypedAtomic &&
        t != AtomicType::kAnyUri) {
      return std::nullopt;
    }
  }
  std::vector<size_t> hits;
  for (const Item& p : probe) {
    auto [lo, hi] = join.equal_range(p.StringValue());
    for (auto h = lo; h != hi; ++h) hits.push_back(h->second);
  }
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  std::vector<xml::Node*> out;
  out.reserve(hits.size());
  for (size_t i : hits) out.push_back(nodes[i]);
  return out;
}

std::shared_ptr<const PathIndex::Entry> PathIndex::Lookup(
    const Expr& path, const IndexedHead& head, const Item& doc,
    Counters* counters) {
  const xml::Node& node = *doc.node();
  const Key key{&path, &node};
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second->stamp == node.mutation_stamp() &&
        !it->second->doc.expired()) {
      ++counters->hits;
      return it->second;
    }
  }
  std::shared_ptr<const Entry> entry = BuildEntry(path, head, doc);
  ++counters->builds;
  std::lock_guard<std::mutex> lock(mu_);
  entries_.insert_or_assign(key, entry);
  if (entries_.size() >= sweep_at_) {
    const size_t before = entries_.size();
    std::erase_if(entries_,
                  [](const auto& kv) { return kv.second->doc.expired(); });
    sweep_at_ = std::max(kMinSweep, 2 * entries_.size());
    counters->swept += static_cast<int64_t>(before - entries_.size());
  }
  return entry;
}

}  // namespace xrpc::xquery
