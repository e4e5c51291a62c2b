#ifndef XRPC_SOAP_MARSHAL_H_
#define XRPC_SOAP_MARSHAL_H_

#include "base/statusor.h"
#include "xdm/item.h"
#include "xml/node.h"
#include "xml/serializer.h"

namespace xrpc::soap {

/// s2n(): writes an XDM sequence in its SOAP XRPC representation, an
/// <xrpc:sequence> element, at the writer's position (Section 2.2 of the
/// paper). Node items are serialized in place from the live nodes; nothing
/// is copied.
///
/// Encodings (per XRPC.xsd):
///  - atomic values:  <xrpc:atomic-value xsi:type="xs:T">lexical</...>
///  - elements:       <xrpc:element>the element</xrpc:element>
///  - documents:      <xrpc:document>serialized root content</xrpc:document>
///  - attributes:     <xrpc:attribute name="value"/>
///  - text:           <xrpc:text>value</xrpc:text>
///  - comments:       <xrpc:comment>value</xrpc:comment>
///  - proc. instr.:   <xrpc:pi target="t">value</xrpc:pi>
void WriteSequence(const xdm::Sequence& sequence, xml::XmlWriter* out);

/// n2s(): unmarshals a parsed <xrpc:sequence> element into an XDM sequence
/// by taking its value subtrees out of the envelope: elements, document
/// content and attributes are detached, not copied, so the caller must own
/// the parsed envelope and expect it to be consumed.
///
/// Node-typed values are returned as *separate XML fragments* (call by
/// value): each is the root of its own tree, with a fresh creation ordinal
/// taken in sequence order, so the values sort after every node created
/// before the decode. Navigating upward or sideways from them yields empty
/// results and never exposes the SOAP envelope, as the paper requires of
/// n2s().
StatusOr<xdm::Sequence> TakeSequence(xml::Node* sequence_element);

}  // namespace xrpc::soap

#endif  // XRPC_SOAP_MARSHAL_H_
