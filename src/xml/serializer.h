#ifndef XRPC_XML_SERIALIZER_H_
#define XRPC_XML_SERIALIZER_H_

#include <string>
#include <string_view>
#include <vector>

#include "xml/node.h"

namespace xrpc::xml {

/// Options controlling serialization.
struct SerializeOptions {
  /// Emit the <?xml version="1.0" encoding="utf-8"?> declaration before a
  /// document node.
  bool xml_declaration = false;
};

/// Streaming XML writer: builds one document into a string, from framing
/// calls (StartElement / Attribute / Text / EndElement) mixed with existing
/// nodes serialized in place (WriteNode), so a message can embed live nodes
/// without copying them into a DOM first.
///
/// One namespace scope and one generated-prefix counter cover the whole
/// output. Namespace declarations are synthesized where a QName's URI is not
/// bound in the enclosing scope; prefixes stored on the QName are reused when
/// possible and fresh `nsN` prefixes are generated otherwise. The output is
/// therefore the same as SerializeNode on the equivalent DOM.
class XmlWriter {
 public:
  XmlWriter();

  /// Appends <?xml version="1.0" encoding="utf-8"?>.
  void XmlDeclaration();

  /// Opens an element. Its start tag stays open for Attribute() until the
  /// first content or its EndElement(); an element without content is
  /// written as an empty-element tag.
  void StartElement(const QName& name);
  /// Adds an attribute to the open start tag.
  void Attribute(const QName& name, std::string_view value);
  /// Appends character data (escaped). Empty text still counts as content.
  void Text(std::string_view value);
  /// Closes the innermost open element.
  void EndElement();

  /// Serializes `node` and its subtree at the current position. An
  /// attribute node goes onto the open start tag; outside any start tag it
  /// is written as name="value".
  void WriteNode(const Node& node);

  /// Returns the output; the writer is spent afterwards.
  std::string Finish() { return std::move(out_); }

 private:
  struct Binding {
    std::string prefix;
    std::string uri;
  };
  struct OpenElement {
    size_t tag_pos;     ///< offset of the qualified name in out_
    size_t tag_len;
    size_t scope_mark;  ///< scope_ size before this element's declarations
  };

  const std::string* LookupPrefix(std::string_view prefix) const;
  const std::string* LookupUri(const std::string& uri,
                               bool allow_default) const;
  void AppendQualifiedName(const QName& name, bool is_attribute,
                           std::string* dst);
  /// Completes the open start tag, if any: its namespace declarations, its
  /// attributes, then `terminator` (">" or "/>").
  void CloseStartTag(const char* terminator = ">");

  std::string out_;
  std::string attrs_;  ///< attributes of the open start tag
  std::vector<Binding> scope_;
  std::vector<OpenElement> open_;
  bool start_tag_open_ = false;
  int gen_ = 1;
};

/// Serializes a node (and its subtree) to XML text.
std::string SerializeNode(const Node& node, const SerializeOptions& options = {});

}  // namespace xrpc::xml

#endif  // XRPC_XML_SERIALIZER_H_
