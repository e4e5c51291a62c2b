#include "soap/marshal.h"

#include <string>

#include "xdm/atomic.h"

namespace xrpc::soap {

namespace {

using xdm::AtomicType;
using xdm::AtomicValue;
using xdm::Item;
using xdm::Sequence;
using xml::Node;
using xml::NodeKind;
using xml::NodePtr;
using xml::QName;

QName XrpcName(const char* local) { return QName(xml::kXrpcNs, local, "xrpc"); }

// The <xrpc:...> wrapper of a node item.
const QName& WrapperName(NodeKind kind) {
  static const QName kDocument = XrpcName("document");
  static const QName kElement = XrpcName("element");
  static const QName kAttribute = XrpcName("attribute");
  static const QName kText = XrpcName("text");
  static const QName kComment = XrpcName("comment");
  static const QName kPi = XrpcName("pi");
  switch (kind) {
    case NodeKind::kDocument:
      return kDocument;
    case NodeKind::kElement:
      return kElement;
    case NodeKind::kAttribute:
      return kAttribute;
    case NodeKind::kText:
      return kText;
    case NodeKind::kComment:
      return kComment;
    case NodeKind::kProcessingInstruction:
      return kPi;
  }
  return kElement;
}

}  // namespace

void WriteSequence(const Sequence& sequence, xml::XmlWriter* out) {
  static const QName kSequence = XrpcName("sequence");
  static const QName kAtomicValue = XrpcName("atomic-value");
  static const QName kXsiType(xml::kXsiNs, "type", "xsi");
  static const QName kTarget("target");
  out->StartElement(kSequence);
  for (const Item& item : sequence) {
    if (item.IsAtomic()) {
      const AtomicValue& v = item.atomic();
      out->StartElement(kAtomicValue);
      out->Attribute(kXsiType, AtomicTypeName(v.type()));
      std::string lexical = v.ToString();
      if (!lexical.empty()) out->Text(lexical);
      out->EndElement();
      continue;
    }
    const Node& n = *item.node();
    out->StartElement(WrapperName(n.kind()));
    switch (n.kind()) {
      case NodeKind::kElement:
      case NodeKind::kDocument:
      case NodeKind::kAttribute:
        out->WriteNode(n);
        break;
      case NodeKind::kProcessingInstruction:
        out->Attribute(kTarget, n.name().local);
        [[fallthrough]];
      case NodeKind::kText:
      case NodeKind::kComment:
        if (!n.value().empty()) out->Text(n.value());
        break;
    }
    out->EndElement();
  }
  out->EndElement();
}

StatusOr<Sequence> TakeSequence(Node* sequence_element) {
  if (sequence_element->kind() != NodeKind::kElement ||
      sequence_element->name() != XrpcName("sequence")) {
    return Status::InvalidArgument("n2s: not an xrpc:sequence element");
  }
  Sequence out;
  for (const NodePtr& child : sequence_element->children()) {
    if (child->kind() != NodeKind::kElement) continue;  // ignorable text
    if (child->name().ns_uri != xml::kXrpcNs) {
      return Status::InvalidArgument("n2s: unexpected element " +
                                     child->name().Clark());
    }
    const std::string& kind = child->name().local;
    if (kind == "atomic-value") {
      const Node* type_attr =
          child->FindAttribute(QName(xml::kXsiNs, "type"));
      AtomicType type = AtomicType::kUntypedAtomic;
      if (type_attr != nullptr) {
        XRPC_ASSIGN_OR_RETURN(type, xdm::AtomicTypeFromName(type_attr->value()));
      }
      XRPC_ASSIGN_OR_RETURN(
          AtomicValue v,
          AtomicValue::Untyped(child->StringValue()).CastTo(type));
      out.push_back(Item(std::move(v)));
    } else if (kind == "element") {
      Node* elem = nullptr;
      for (const NodePtr& c : child->children()) {
        if (c->kind() == NodeKind::kElement) {
          elem = c.get();
          break;
        }
      }
      if (elem == nullptr) {
        return Status::InvalidArgument("n2s: empty xrpc:element");
      }
      out.push_back(Item::Node(elem->Detach()));
    } else if (kind == "document") {
      NodePtr doc = Node::NewDocument();
      while (!child->children().empty()) {
        doc->AppendChild(child->children().front()->Detach());
      }
      out.push_back(Item::Node(std::move(doc)));
    } else if (kind == "attribute") {
      if (child->attributes().empty()) {
        return Status::InvalidArgument("n2s: empty xrpc:attribute");
      }
      out.push_back(Item::Node(child->attributes()[0]->Detach()));
    } else if (kind == "text") {
      out.push_back(Item::Node(Node::NewText(child->StringValue())));
    } else if (kind == "comment") {
      out.push_back(Item::Node(Node::NewComment(child->StringValue())));
    } else if (kind == "pi") {
      const Node* target = child->FindAttribute(QName("target"));
      out.push_back(Item::Node(Node::NewProcessingInstruction(
          target != nullptr ? target->value() : "pi", child->StringValue())));
    } else {
      return Status::InvalidArgument("n2s: unknown value kind xrpc:" + kind);
    }
  }
  return out;
}

}  // namespace xrpc::soap
