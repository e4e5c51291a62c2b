#include "xml/node.h"

#include <algorithm>
#include <atomic>
#include <cassert>

namespace xrpc::xml {

namespace {

uint64_t NextOrdinal() {
  static std::atomic<uint64_t> counter{1};
  return counter.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

const char* NodeKindToString(NodeKind kind) {
  switch (kind) {
    case NodeKind::kDocument:
      return "document";
    case NodeKind::kElement:
      return "element";
    case NodeKind::kAttribute:
      return "attribute";
    case NodeKind::kText:
      return "text";
    case NodeKind::kComment:
      return "comment";
    case NodeKind::kProcessingInstruction:
      return "processing-instruction";
  }
  return "unknown";
}

const QName Node::kNoName;

Node::Node(ConstructionTag, NodeKind kind)
    : kind_(kind), ordinal_(NextOrdinal()) {}

NodePtr Node::Make(NodeKind kind) {
  return std::make_shared<Node>(ConstructionTag(), kind);
}

NodePtr Node::NewDocument() { return Make(NodeKind::kDocument); }

NodePtr Node::NewElement(QName name) {
  return NewElement(std::make_shared<const QName>(std::move(name)));
}

NodePtr Node::NewAttribute(QName name, std::string value) {
  return NewAttribute(std::make_shared<const QName>(std::move(name)),
                      std::move(value));
}

NodePtr Node::NewElement(std::shared_ptr<const QName> name) {
  NodePtr n = Make(NodeKind::kElement);
  n->name_ = std::move(name);
  return n;
}

NodePtr Node::NewAttribute(std::shared_ptr<const QName> name,
                           std::string value) {
  NodePtr n = Make(NodeKind::kAttribute);
  n->name_ = std::move(name);
  n->value_ = std::move(value);
  return n;
}

NodePtr Node::NewText(std::string value) {
  NodePtr n = Make(NodeKind::kText);
  n->value_ = std::move(value);
  return n;
}

NodePtr Node::NewComment(std::string value) {
  NodePtr n = Make(NodeKind::kComment);
  n->value_ = std::move(value);
  return n;
}

NodePtr Node::NewProcessingInstruction(std::string target, std::string value) {
  NodePtr n = Make(NodeKind::kProcessingInstruction);
  n->name_ = std::make_shared<const QName>(std::move(target));
  n->value_ = std::move(value);
  return n;
}

void Node::AppendChild(NodePtr child) {
  assert(child != nullptr);
  assert(child->kind_ != NodeKind::kAttribute);
  BumpMutationStamp();
  child->parent_ = this;
  child->index_in_parent_ = children_.size();
  children_.push_back(std::move(child));
}

void Node::InsertBefore(NodePtr child, const Node* before) {
  assert(child != nullptr);
  BumpMutationStamp();
  child->parent_ = this;
  size_t pos = children_.size();
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].get() == before) {
      pos = i;
      break;
    }
  }
  children_.insert(children_.begin() + static_cast<ptrdiff_t>(pos),
                   std::move(child));
  for (size_t i = pos; i < children_.size(); ++i) {
    children_[i]->index_in_parent_ = i;
  }
}

void Node::SetAttribute(NodePtr attr) {
  assert(attr != nullptr && attr->kind_ == NodeKind::kAttribute);
  BumpMutationStamp();
  attr->parent_ = this;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i]->name() == attr->name()) {
      attr->index_in_parent_ = i;
      attributes_[i] = std::move(attr);
      return;
    }
  }
  attr->index_in_parent_ = attributes_.size();
  attributes_.push_back(std::move(attr));
}

void Node::RemoveChild(const Node* child) {
  BumpMutationStamp();
  for (size_t i = 0; i < children_.size(); ++i) {
    if (children_[i].get() == child) {
      children_.erase(children_.begin() + static_cast<ptrdiff_t>(i));
      for (size_t j = i; j < children_.size(); ++j) {
        children_[j]->index_in_parent_ = j;
      }
      return;
    }
  }
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].get() == child) {
      attributes_.erase(attributes_.begin() + static_cast<ptrdiff_t>(i));
      for (size_t j = i; j < attributes_.size(); ++j) {
        attributes_[j]->index_in_parent_ = j;
      }
      return;
    }
  }
}

const Node* Node::FindAttribute(const QName& name) const {
  for (const NodePtr& a : attributes_) {
    if (a->name() == name) return a.get();
  }
  return nullptr;
}

void Node::AppendStringValue(std::string* out) const {
  switch (kind_) {
    case NodeKind::kText:
    case NodeKind::kAttribute:
    case NodeKind::kComment:
    case NodeKind::kProcessingInstruction:
      out->append(value_);
      return;
    case NodeKind::kDocument:
    case NodeKind::kElement:
      for (const NodePtr& c : children_) {
        if (c->kind_ == NodeKind::kText || c->kind_ == NodeKind::kElement ||
            c->kind_ == NodeKind::kDocument) {
          c->AppendStringValue(out);
        }
      }
      return;
  }
}

std::string Node::StringValue() const {
  std::string out;
  AppendStringValue(&out);
  return out;
}

Node* Node::Root() {
  Node* n = this;
  while (n->parent_ != nullptr) n = n->parent_;
  return n;
}

const Node* Node::Root() const {
  const Node* n = this;
  while (n->parent_ != nullptr) n = n->parent_;
  return n;
}

NodePtr Node::Clone() const {
  NodePtr copy = Make(kind_);
  copy->name_ = name_;
  copy->value_ = value_;
  for (const NodePtr& a : attributes_) {
    copy->SetAttribute(a->Clone());
  }
  for (const NodePtr& c : children_) {
    copy->AppendChild(c->Clone());
  }
  return copy;
}

NodePtr Node::Detach() {
  NodePtr self = shared_from_this();
  if (parent_ != nullptr) parent_->RemoveChild(this);
  parent_ = nullptr;
  index_in_parent_ = 0;
  ordinal_ = NextOrdinal();
  return self;
}

namespace {

// Builds the root-to-node ancestor chain (inclusive).
void AncestorChain(const Node* node, std::vector<const Node*>* chain) {
  chain->clear();
  for (const Node* n = node; n != nullptr; n = n->parent()) {
    chain->push_back(n);
  }
  std::reverse(chain->begin(), chain->end());
}

// Position key of `node` among the children of its parent: attributes sort
// before children (XDM: attributes follow the element but precede its
// children; we encode attribute-ness in the key).
struct SiblingKey {
  bool is_attribute;
  size_t index;
};

SiblingKey KeyOf(const Node* n) {
  return {n->kind() == NodeKind::kAttribute, n->IndexInParent()};
}

int CompareKeys(SiblingKey a, SiblingKey b) {
  if (a.is_attribute != b.is_attribute) return a.is_attribute ? -1 : 1;
  if (a.index != b.index) return a.index < b.index ? -1 : 1;
  return 0;
}

}  // namespace

int CompareDocumentOrder(const Node* a, const Node* b) {
  if (a == b) return 0;
  const Node* ra = a->Root();
  const Node* rb = b->Root();
  if (ra != rb) {
    return ra->ordinal() < rb->ordinal() ? -1 : 1;
  }
  std::vector<const Node*> ca, cb;
  AncestorChain(a, &ca);
  AncestorChain(b, &cb);
  size_t common = std::min(ca.size(), cb.size());
  size_t i = 0;
  while (i < common && ca[i] == cb[i]) ++i;
  if (i == ca.size()) return -1;  // a is an ancestor of b
  if (i == cb.size()) return 1;   // b is an ancestor of a
  return CompareKeys(KeyOf(ca[i]), KeyOf(cb[i]));
}

bool IsAncestorOf(const Node* ancestor, const Node* node) {
  for (const Node* n = node->parent(); n != nullptr; n = n->parent()) {
    if (n == ancestor) return true;
  }
  return false;
}

}  // namespace xrpc::xml
