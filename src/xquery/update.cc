#include "xquery/update.h"

#include <algorithm>

#include "base/string_util.h"
#include "xml/node.h"
#include "xquery/ast.h"
#include "xquery/functions.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xrpc::xquery {

void PendingUpdateList::Merge(PendingUpdateList other) {
  // Merged entries order strictly after every existing entry: later XRPC
  // calls get later call indices (the deterministic-order extension).
  int base = next_call_index_ + 1;
  for (Entry& e : other.entries_) {
    e.call_index += base;
    entries_.push_back(std::move(e));
  }
  next_call_index_ = base + other.next_call_index_ + 1;
}

namespace {

using xml::Node;
using xml::NodeKind;
using xml::NodePtr;

/// XQUF content: copies of the source nodes, atomic values as text nodes.
std::vector<xdm::Item> CopyContent(const xdm::Sequence& source) {
  std::vector<xdm::Item> out;
  out.reserve(source.size());
  for (const xdm::Item& item : source) {
    out.push_back(xdm::Item::Node(item.IsNode()
                                      ? item.node()->Clone()
                                      : Node::NewText(item.StringValue())));
  }
  return out;
}

StatusOr<xdm::Item> SingleTarget(const xdm::Sequence& target,
                                 const char* what) {
  if (target.size() != 1 || !target[0].IsNode()) {
    return Status::TypeError(std::string(what) +
                             " target must be a single node");
  }
  return target[0];
}

UpdatePrimitive::Kind InsertKind(InsertPos pos) {
  switch (pos) {
    case InsertPos::kInto:
      return UpdatePrimitive::Kind::kInsertInto;
    case InsertPos::kAsFirstInto:
      return UpdatePrimitive::Kind::kInsertFirst;
    case InsertPos::kAsLastInto:
      return UpdatePrimitive::Kind::kInsertLast;
    case InsertPos::kBefore:
      return UpdatePrimitive::Kind::kInsertBefore;
    case InsertPos::kAfter:
      break;
  }
  return UpdatePrimitive::Kind::kInsertAfter;
}

}  // namespace

Status AddUpdatePrimitives(const Expr& e,
                           const std::vector<xdm::Sequence>& operands,
                           PendingUpdateList* pul) {
  UpdatePrimitive p;
  if (e.kind == ExprKind::kDelete) {
    for (const xdm::Item& item : operands[0]) {
      if (!item.IsNode()) {
        return Status::TypeError("delete target must be nodes");
      }
    }
    p.kind = UpdatePrimitive::Kind::kDelete;
    for (const xdm::Item& item : operands[0]) {
      p.target = item;
      pul->Add(p);
    }
    return Status::OK();
  }
  if (e.kind == ExprKind::kInsert) {
    XRPC_ASSIGN_OR_RETURN(p.target, SingleTarget(operands[1], "insert"));
    p.kind = InsertKind(e.insert_pos);
    p.content = CopyContent(operands[0]);
  } else if (e.kind == ExprKind::kReplaceNode) {
    XRPC_ASSIGN_OR_RETURN(p.target, SingleTarget(operands[0], "replace"));
    p.kind = UpdatePrimitive::Kind::kReplaceNode;
    p.content = CopyContent(operands[1]);
  } else if (e.kind == ExprKind::kReplaceValue) {
    XRPC_ASSIGN_OR_RETURN(p.target, SingleTarget(operands[0], "replace"));
    p.kind = UpdatePrimitive::Kind::kReplaceValue;
    for (size_t i = 0; i < operands[1].size(); ++i) {
      if (i > 0) p.new_value += ' ';
      p.new_value += operands[1][i].StringValue();
    }
  } else if (e.kind == ExprKind::kRename) {
    XRPC_ASSIGN_OR_RETURN(p.target, SingleTarget(operands[0], "rename"));
    XRPC_ASSIGN_OR_RETURN(xdm::AtomicValue name,
                          AtomizeOne(operands[1], "rename"));
    p.kind = UpdatePrimitive::Kind::kRename;
    p.new_name = xml::QName(name.ToString());
  } else {
    return Status::Internal("not an updating expression");
  }
  pul->Add(std::move(p));
  return Status::OK();
}

namespace {

// Inserts copied content nodes relative to the target.
Status ApplyInsert(const UpdatePrimitive& p) {
  Node* target = p.target.node();
  switch (p.kind) {
    case UpdatePrimitive::Kind::kInsertInto:
    case UpdatePrimitive::Kind::kInsertLast:
      for (const xdm::Item& item : p.content) {
        NodePtr n = item.node()->shared_from_this();
        if (n->kind() == NodeKind::kAttribute) {
          target->SetAttribute(n);
        } else {
          target->AppendChild(n);
        }
      }
      return Status::OK();
    case UpdatePrimitive::Kind::kInsertFirst: {
      const Node* first = target->children().empty()
                              ? nullptr
                              : target->children().front().get();
      for (const xdm::Item& item : p.content) {
        NodePtr n = item.node()->shared_from_this();
        if (n->kind() == NodeKind::kAttribute) {
          target->SetAttribute(n);
        } else if (first == nullptr) {
          target->AppendChild(n);
        } else {
          target->InsertBefore(n, first);
        }
      }
      return Status::OK();
    }
    case UpdatePrimitive::Kind::kInsertBefore: {
      Node* parent = target->parent();
      if (parent == nullptr) {
        return Status::EvalError("insert before: target has no parent");
      }
      for (const xdm::Item& item : p.content) {
        parent->InsertBefore(item.node()->shared_from_this(), target);
      }
      return Status::OK();
    }
    case UpdatePrimitive::Kind::kInsertAfter: {
      Node* parent = target->parent();
      if (parent == nullptr) {
        return Status::EvalError("insert after: target has no parent");
      }
      // Insert after target == before target's next sibling.
      const Node* next = nullptr;
      size_t idx = target->IndexInParent();
      if (idx + 1 < parent->children().size()) {
        next = parent->children()[idx + 1].get();
      }
      for (const xdm::Item& item : p.content) {
        NodePtr n = item.node()->shared_from_this();
        if (next == nullptr) {
          parent->AppendChild(n);
        } else {
          parent->InsertBefore(n, next);
        }
      }
      return Status::OK();
    }
    default:
      return Status::Internal("not an insert primitive");
  }
}

}  // namespace

namespace {

using xml::QName;

/// Namespace of the serialized-PUL vocabulary written to the prepare log.
constexpr char kPulNs[] = "urn:xrpc:txn-pul";

const char* KindName(UpdatePrimitive::Kind k) {
  switch (k) {
    case UpdatePrimitive::Kind::kInsertInto:
      return "insert-into";
    case UpdatePrimitive::Kind::kInsertFirst:
      return "insert-first";
    case UpdatePrimitive::Kind::kInsertLast:
      return "insert-last";
    case UpdatePrimitive::Kind::kInsertBefore:
      return "insert-before";
    case UpdatePrimitive::Kind::kInsertAfter:
      return "insert-after";
    case UpdatePrimitive::Kind::kDelete:
      return "delete";
    case UpdatePrimitive::Kind::kReplaceNode:
      return "replace-node";
    case UpdatePrimitive::Kind::kReplaceValue:
      return "replace-value";
    case UpdatePrimitive::Kind::kRename:
      return "rename";
    case UpdatePrimitive::Kind::kPut:
      return "put";
  }
  return "?";
}

StatusOr<UpdatePrimitive::Kind> KindFromName(std::string_view s) {
  static const std::pair<const char*, UpdatePrimitive::Kind> kMap[] = {
      {"insert-into", UpdatePrimitive::Kind::kInsertInto},
      {"insert-first", UpdatePrimitive::Kind::kInsertFirst},
      {"insert-last", UpdatePrimitive::Kind::kInsertLast},
      {"insert-before", UpdatePrimitive::Kind::kInsertBefore},
      {"insert-after", UpdatePrimitive::Kind::kInsertAfter},
      {"delete", UpdatePrimitive::Kind::kDelete},
      {"replace-node", UpdatePrimitive::Kind::kReplaceNode},
      {"replace-value", UpdatePrimitive::Kind::kReplaceValue},
      {"rename", UpdatePrimitive::Kind::kRename},
      {"put", UpdatePrimitive::Kind::kPut},
  };
  for (const auto& [name, kind] : kMap) {
    if (s == name) return kind;
  }
  return Status::ParseError("unknown update primitive kind: " +
                            std::string(s));
}

/// Child-index route from the tree root to `node`; an attribute target is
/// the final "@i" step (index among the owner's attributes).
StatusOr<std::string> PathFromRoot(const Node* node) {
  std::vector<std::string> steps;
  for (const Node* cur = node; cur->parent() != nullptr;
       cur = cur->parent()) {
    if (cur->kind() == NodeKind::kAttribute) {
      steps.push_back("@" + std::to_string(cur->IndexInParent()));
    } else {
      steps.push_back(std::to_string(cur->IndexInParent()));
    }
  }
  std::reverse(steps.begin(), steps.end());
  return JoinStrings(steps, "/");
}

StatusOr<Node*> ResolvePath(const NodePtr& root, std::string_view path) {
  Node* cur = root.get();
  if (path.empty()) return cur;
  for (const std::string& step : SplitString(path, '/')) {
    bool attr = !step.empty() && step[0] == '@';
    XRPC_ASSIGN_OR_RETURN(int64_t idx,
                          ParseInt64(attr ? step.substr(1) : step));
    const auto& pool = attr ? cur->attributes() : cur->children();
    if (idx < 0 || static_cast<size_t>(idx) >= pool.size()) {
      return Status::IsolationError(
          "PUL target path no longer resolves (step " + step + ")");
    }
    cur = pool[static_cast<size_t>(idx)].get();
  }
  return cur;
}

void SetAttr(Node* elem, const char* name, const std::string& value) {
  elem->SetAttribute(Node::NewAttribute(QName(name), value));
}

std::string GetAttr(const Node* elem, const char* name) {
  const Node* a = elem->FindAttribute(QName(name));
  return a == nullptr ? std::string() : a->value();
}

/// Encodes one content item as a <c> child of `u`. Attributes and document
/// nodes need explicit tagging; everything else rides as the single child.
void AppendContent(Node* u, const xdm::Item& item) {
  NodePtr c = Node::NewElement(QName(kPulNs, "c", "pul"));
  const Node* n = item.node();
  switch (n->kind()) {
    case NodeKind::kAttribute:
      SetAttr(c.get(), "k", "attribute");
      SetAttr(c.get(), "ns", n->name().ns_uri);
      SetAttr(c.get(), "local", n->name().local);
      SetAttr(c.get(), "prefix", n->name().prefix);
      SetAttr(c.get(), "value", n->value());
      break;
    case NodeKind::kDocument:
      SetAttr(c.get(), "k", "document");
      for (const NodePtr& child : n->children()) {
        c->AppendChild(child->Clone());
      }
      break;
    default:
      c->AppendChild(n->Clone());
      break;
  }
  u->AppendChild(std::move(c));
}

StatusOr<xdm::Item> DecodeContent(const Node* c) {
  std::string k = GetAttr(c, "k");
  if (k == "attribute") {
    return xdm::Item::Node(Node::NewAttribute(
        QName(GetAttr(c, "ns"), GetAttr(c, "local"), GetAttr(c, "prefix")),
        GetAttr(c, "value")));
  }
  if (k == "document") {
    NodePtr doc = Node::NewDocument();
    for (const NodePtr& child : c->children()) {
      doc->AppendChild(child->Clone());
    }
    return xdm::Item::Node(std::move(doc));
  }
  if (c->children().size() != 1) {
    return Status::ParseError("serialized PUL content must hold one node");
  }
  return xdm::Item::Node(c->children()[0]->Clone());
}

}  // namespace

StatusOr<std::string> PendingUpdateList::Serialize(
    const DocNamer& doc_of_root) const {
  NodePtr pul = Node::NewElement(QName(kPulNs, "pul", "pul"));
  for (const Entry& entry : entries_) {
    const UpdatePrimitive& p = entry.primitive;
    NodePtr u = Node::NewElement(QName(kPulNs, "u", "pul"));
    SetAttr(u.get(), "call", std::to_string(entry.call_index));
    SetAttr(u.get(), "kind", KindName(p.kind));
    if (p.kind == UpdatePrimitive::Kind::kPut) {
      SetAttr(u.get(), "uri", p.put_uri);
    } else {
      const Node* target = p.target.node();
      if (target == nullptr) {
        return Status::TransactionError(
            "cannot serialize PUL: primitive has no target node");
      }
      XRPC_ASSIGN_OR_RETURN(std::string doc_name,
                            doc_of_root(target->Root()));
      XRPC_ASSIGN_OR_RETURN(std::string path, PathFromRoot(target));
      SetAttr(u.get(), "doc", doc_name);
      SetAttr(u.get(), "path", path);
    }
    if (p.kind == UpdatePrimitive::Kind::kRename) {
      SetAttr(u.get(), "rn-ns", p.new_name.ns_uri);
      SetAttr(u.get(), "rn-local", p.new_name.local);
      SetAttr(u.get(), "rn-prefix", p.new_name.prefix);
    }
    if (p.kind == UpdatePrimitive::Kind::kReplaceValue) {
      SetAttr(u.get(), "value", p.new_value);
    }
    for (const xdm::Item& item : p.content) {
      if (item.node() == nullptr) {
        return Status::TransactionError(
            "cannot serialize PUL: atomic content item");
      }
      AppendContent(u.get(), item);
    }
    pul->AppendChild(std::move(u));
  }
  return xml::SerializeNode(*pul);
}

StatusOr<PendingUpdateList> PendingUpdateList::Deserialize(
    std::string_view text, const DocResolver& doc_of_name) {
  XRPC_ASSIGN_OR_RETURN(NodePtr doc, xml::ParseXml(text));
  const Node* pul_elem = nullptr;
  for (const NodePtr& c : doc->children()) {
    if (c->kind() == NodeKind::kElement) pul_elem = c.get();
  }
  if (pul_elem == nullptr || pul_elem->name().ns_uri != kPulNs ||
      pul_elem->name().local != "pul") {
    return Status::ParseError("not a serialized PUL");
  }
  PendingUpdateList out;
  for (const NodePtr& child : pul_elem->children()) {
    if (child->kind() != NodeKind::kElement || child->name().local != "u") {
      continue;
    }
    const Node* u = child.get();
    Entry entry;
    XRPC_ASSIGN_OR_RETURN(int64_t call, ParseInt64(GetAttr(u, "call")));
    entry.call_index = static_cast<int>(call);
    XRPC_ASSIGN_OR_RETURN(entry.primitive.kind,
                          KindFromName(GetAttr(u, "kind")));
    UpdatePrimitive& p = entry.primitive;
    if (p.kind == UpdatePrimitive::Kind::kPut) {
      p.put_uri = GetAttr(u, "uri");
    } else {
      XRPC_ASSIGN_OR_RETURN(NodePtr root, doc_of_name(GetAttr(u, "doc")));
      XRPC_ASSIGN_OR_RETURN(Node* target,
                            ResolvePath(root, GetAttr(u, "path")));
      p.target = xdm::Item::NodeInTree(target, std::move(root));
    }
    if (p.kind == UpdatePrimitive::Kind::kRename) {
      p.new_name = QName(GetAttr(u, "rn-ns"), GetAttr(u, "rn-local"),
                         GetAttr(u, "rn-prefix"));
    }
    if (p.kind == UpdatePrimitive::Kind::kReplaceValue) {
      p.new_value = GetAttr(u, "value");
    }
    for (const NodePtr& c : u->children()) {
      if (c->kind() != NodeKind::kElement || c->name().local != "c") {
        continue;
      }
      XRPC_ASSIGN_OR_RETURN(xdm::Item item, DecodeContent(c.get()));
      p.content.push_back(std::move(item));
    }
    out.next_call_index_ = std::max(out.next_call_index_, entry.call_index);
    out.entries_.push_back(std::move(entry));
  }
  return out;
}

Status ApplyUpdates(PendingUpdateList* pul, PutSink* put_sink) {
  // XQUF 3.2.2 order: renames & replace-values, then replace-nodes, then
  // inserts, then deletes, then puts. Within a phase, entry order (tagged by
  // call index) is preserved for determinism.
  auto phase_of = [](UpdatePrimitive::Kind k) {
    switch (k) {
      case UpdatePrimitive::Kind::kRename:
      case UpdatePrimitive::Kind::kReplaceValue:
        return 0;
      case UpdatePrimitive::Kind::kReplaceNode:
        return 1;
      case UpdatePrimitive::Kind::kInsertInto:
      case UpdatePrimitive::Kind::kInsertFirst:
      case UpdatePrimitive::Kind::kInsertLast:
      case UpdatePrimitive::Kind::kInsertBefore:
      case UpdatePrimitive::Kind::kInsertAfter:
        return 2;
      case UpdatePrimitive::Kind::kDelete:
        return 3;
      case UpdatePrimitive::Kind::kPut:
        return 4;
    }
    return 5;
  };

  std::stable_sort(pul->mutable_entries().begin(),
                   pul->mutable_entries().end(),
                   [&](const PendingUpdateList::Entry& a,
                       const PendingUpdateList::Entry& b) {
                     return phase_of(a.primitive.kind) <
                            phase_of(b.primitive.kind);
                   });

  for (const PendingUpdateList::Entry& entry : pul->entries()) {
    const UpdatePrimitive& p = entry.primitive;
    switch (p.kind) {
      case UpdatePrimitive::Kind::kRename:
        p.target.node()->set_name(p.new_name);
        break;
      case UpdatePrimitive::Kind::kReplaceValue: {
        Node* t = p.target.node();
        if (t->kind() == NodeKind::kElement) {
          // Replace all children with a single text node.
          while (!t->children().empty()) {
            t->RemoveChild(t->children().back().get());
          }
          if (!p.new_value.empty()) {
            t->AppendChild(Node::NewText(p.new_value));
          }
        } else {
          t->set_value(p.new_value);
        }
        break;
      }
      case UpdatePrimitive::Kind::kReplaceNode: {
        Node* t = p.target.node();
        Node* parent = t->parent();
        if (parent == nullptr) {
          return Status::EvalError("replace node: target has no parent");
        }
        for (const xdm::Item& item : p.content) {
          NodePtr n = item.node()->shared_from_this();
          if (n->kind() == NodeKind::kAttribute) {
            parent->SetAttribute(n);
          } else {
            parent->InsertBefore(n, t);
          }
        }
        parent->RemoveChild(t);
        break;
      }
      case UpdatePrimitive::Kind::kInsertInto:
      case UpdatePrimitive::Kind::kInsertFirst:
      case UpdatePrimitive::Kind::kInsertLast:
      case UpdatePrimitive::Kind::kInsertBefore:
      case UpdatePrimitive::Kind::kInsertAfter:
        XRPC_RETURN_IF_ERROR(ApplyInsert(p));
        break;
      case UpdatePrimitive::Kind::kDelete: {
        Node* t = p.target.node();
        Node* parent = t->parent();
        if (parent != nullptr) parent->RemoveChild(t);
        break;
      }
      case UpdatePrimitive::Kind::kPut: {
        if (put_sink == nullptr) {
          return Status::EvalError("fn:put is not available in this context");
        }
        NodePtr doc = p.content.empty()
                          ? nullptr
                          : p.content[0].node()->shared_from_this();
        if (doc == nullptr) {
          return Status::EvalError("fn:put: empty content");
        }
        XRPC_RETURN_IF_ERROR(put_sink->Put(p.put_uri, doc));
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace xrpc::xquery
