#ifndef XRPC_XML_NODE_H_
#define XRPC_XML_NODE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "xml/qname.h"

namespace xrpc::xml {

class Node;
using NodePtr = std::shared_ptr<Node>;

/// The seven XDM node kinds (namespace nodes are represented as ordinary
/// attributes in the xmlns namespace, as the paper's protocol does).
enum class NodeKind {
  kDocument,
  kElement,
  kAttribute,
  kText,
  kComment,
  kProcessingInstruction,
};

const char* NodeKindToString(NodeKind kind);

/// A node of an in-memory XML tree.
///
/// Ownership: a parent owns its children and attributes via shared_ptr;
/// `parent()` is a non-owning back pointer. Anything that retains a node
/// long-term must also retain an owner of its tree root (see
/// `xdm::Item::anchor`), which the XDM layer does automatically.
///
/// Node identity is pointer identity. Every node receives a globally unique,
/// monotonically increasing creation ordinal; roots' ordinals define a stable
/// order between distinct trees (the "implementation-defined consistent
/// document order" XDM requires).
class Node : public std::enable_shared_from_this<Node> {
  struct ConstructionTag;

 public:
  /// Factory functions; nodes are always heap-allocated and shared.
  static NodePtr NewDocument();
  static NodePtr NewElement(QName name);
  static NodePtr NewAttribute(QName name, std::string value);
  /// Share `name` with other nodes instead of copying it: the parser hands
  /// every node of one parse the same object per distinct name.
  static NodePtr NewElement(std::shared_ptr<const QName> name);
  static NodePtr NewAttribute(std::shared_ptr<const QName> name,
                              std::string value);
  static NodePtr NewText(std::string value);
  static NodePtr NewComment(std::string value);
  static NodePtr NewProcessingInstruction(std::string target,
                                          std::string value);

  /// Public for std::make_shared only: the tag type is private, so nodes
  /// are still built through the factories above.
  Node(ConstructionTag, NodeKind kind);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeKind kind() const { return kind_; }
  const QName& name() const { return name_ != nullptr ? *name_ : kNoName; }
  const std::string& value() const { return value_; }
  void set_value(std::string v) {
    value_ = std::move(v);
    BumpMutationStamp();
  }
  void set_name(QName name) {
    name_ = std::make_shared<const QName>(std::move(name));
    BumpMutationStamp();
  }

  Node* parent() const { return parent_; }
  const std::vector<NodePtr>& children() const { return children_; }
  const std::vector<NodePtr>& attributes() const { return attributes_; }
  uint64_t ordinal() const { return ordinal_; }

  /// Counter incremented on the tree root by every mutation anywhere in
  /// the tree; caches over shredded/derived representations compare it to
  /// detect staleness.
  uint64_t mutation_stamp() const { return mutation_stamp_; }

  /// Appends `child` (element/text/comment/PI or, for documents, element)
  /// as the last child. Adjacent text children are NOT merged here; the
  /// parser and constructors merge where required.
  void AppendChild(NodePtr child);

  /// Inserts `child` before the existing child `before` (which must be a
  /// child of this node).
  void InsertBefore(NodePtr child, const Node* before);

  /// Adds an attribute node. Replaces an existing attribute of equal name.
  void SetAttribute(NodePtr attr);

  /// Removes `child` from children or attributes; no-op if absent.
  void RemoveChild(const Node* child);

  /// Attribute lookup by expanded name; nullptr if absent.
  const Node* FindAttribute(const QName& name) const;

  /// Typed-value string: concatenation of descendant text for
  /// document/element, the value for attribute/text/comment/PI.
  std::string StringValue() const;

  /// Root of the containing tree (self if detached).
  Node* Root();
  const Node* Root() const;
  NodePtr RootPtr() { return Root()->shared_from_this(); }

  /// Deep copy producing a detached tree with fresh node identities.
  NodePtr Clone() const;

  /// Removes this node from its parent and makes it the root of its own
  /// tree, with a fresh creation ordinal as Clone() would give it but
  /// without copying: the subtree's nodes keep their identities. Returns
  /// the owning pointer.
  NodePtr Detach();

  /// Zero-based position among the parent's children (attributes among the
  /// parent's attributes). Undefined for detached nodes.
  size_t IndexInParent() const { return index_in_parent_; }

 private:
  struct ConstructionTag {
    explicit ConstructionTag() = default;
  };
  /// Allocates the node and its reference count in one block.
  static NodePtr Make(NodeKind kind);

  void AppendStringValue(std::string* out) const;
  void BumpMutationStamp() { ++Root()->mutation_stamp_; }

  /// name() of the kinds that have none.
  static const QName kNoName;

  NodeKind kind_;
  /// Immutable and shared: Clone() and the parser's nodes of one name point
  /// to one object. Null for the kinds without a name.
  std::shared_ptr<const QName> name_;
  std::string value_;
  Node* parent_ = nullptr;
  size_t index_in_parent_ = 0;
  std::vector<NodePtr> children_;
  std::vector<NodePtr> attributes_;
  uint64_t ordinal_;
  uint64_t mutation_stamp_ = 0;
};

/// Total order over nodes consistent with document order: within one tree,
/// document order (attributes follow their owner element, before its
/// children); across trees, by root creation ordinal. Returns <0, 0, >0.
int CompareDocumentOrder(const Node* a, const Node* b);

/// True if `ancestor` is an ancestor of `node` (not self).
bool IsAncestorOf(const Node* ancestor, const Node* node);

}  // namespace xrpc::xml

#endif  // XRPC_XML_NODE_H_
