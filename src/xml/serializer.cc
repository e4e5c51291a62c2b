#include "xml/serializer.h"

#include <cassert>

namespace xrpc::xml {

namespace {

// Appends `s` to `out`, replacing every character for which `escape`
// returns a replacement; runs without one are appended whole.
template <typename Escape>
void AppendEscaped(std::string_view s, Escape escape, std::string* out) {
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char* replacement = escape(s[i]);
    if (replacement == nullptr) continue;
    out->append(s.data() + run, i - run);
    out->append(replacement);
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

const char* TextEscape(char c) {
  switch (c) {
    case '&':
      return "&amp;";
    case '<':
      return "&lt;";
    // '>' is escaped unconditionally, which also covers the "]]>" sequence
    // in character data (XML 1.0 §2.4 forbids a literal "]]>" outside
    // CDATA): it serializes as "]]&gt;".
    case '>':
      return "&gt;";
    // A literal CR in character data would be normalized away to LF by any
    // conforming parser on re-parse (XML 1.0 §2.11), silently corrupting
    // the value; only the character reference survives a round trip.
    case '\r':
      return "&#13;";
    default:
      return nullptr;
  }
}

// Attribute values also escape the literal whitespace that attribute-value
// normalization (XML 1.0 §3.3.3) would turn into spaces on re-parse.
const char* AttributeEscape(char c) {
  switch (c) {
    case '&':
      return "&amp;";
    case '<':
      return "&lt;";
    case '"':
      return "&quot;";
    case '\n':
      return "&#10;";
    case '\t':
      return "&#9;";
    case '\r':
      return "&#13;";
    default:
      return nullptr;
  }
}

void AppendAttribute(std::string_view value, std::string* out) {
  out->append("=\"");
  AppendEscaped(value, AttributeEscape, out);
  out->push_back('"');
}

}  // namespace

XmlWriter::XmlWriter() {
  scope_.push_back({"xml", "http://www.w3.org/XML/1998/namespace"});
}

void XmlWriter::XmlDeclaration() {
  out_ += "<?xml version=\"1.0\" encoding=\"utf-8\"?>";
}

const std::string* XmlWriter::LookupPrefix(std::string_view prefix) const {
  for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
    if (it->prefix == prefix) return &it->uri;
  }
  return nullptr;
}

// Returns a prefix currently bound to `uri`, or nullptr. For attributes the
// empty (default) prefix is not usable.
const std::string* XmlWriter::LookupUri(const std::string& uri,
                                        bool allow_default) const {
  for (auto it = scope_.rbegin(); it != scope_.rend(); ++it) {
    if (it->uri == uri && (allow_default || !it->prefix.empty())) {
      // The binding must not be shadowed by a later one for same prefix.
      if (LookupPrefix(it->prefix) == &it->uri) return &it->prefix;
    }
  }
  return nullptr;
}

// Appends `name` as written in the current scope to `dst`, first adding to
// scope_ the declaration it needs, if any; the open start tag writes the
// declarations added since its element opened.
void XmlWriter::AppendQualifiedName(const QName& name, bool is_attribute,
                                    std::string* dst) {
  if (name.ns_uri.empty()) {
    // No-namespace names must not pick up a default namespace binding.
    if (!is_attribute) {
      const std::string* bound = LookupPrefix("");
      if (bound != nullptr && !bound->empty()) scope_.push_back({"", ""});
    }
    dst->append(name.local);
    return;
  }
  const std::string* prefix = LookupUri(name.ns_uri, !is_attribute);
  if (prefix == nullptr) {
    // Try the stored prefix; fall back to generated ones.
    std::string fresh = name.prefix;
    if (fresh.empty() && is_attribute) fresh = "ns" + std::to_string(gen_++);
    while (true) {
      const std::string* bound = LookupPrefix(fresh);
      if (bound == nullptr || *bound == name.ns_uri) break;
      fresh = "ns" + std::to_string(gen_++);
    }
    scope_.push_back({std::move(fresh), name.ns_uri});
    prefix = &scope_.back().prefix;
  }
  if (!prefix->empty()) {
    dst->append(*prefix);
    dst->push_back(':');
  }
  dst->append(name.local);
}

void XmlWriter::CloseStartTag(const char* terminator) {
  if (!start_tag_open_) return;
  for (size_t i = open_.back().scope_mark; i < scope_.size(); ++i) {
    const Binding& b = scope_[i];
    out_ += b.prefix.empty() ? " xmlns" : " xmlns:";
    out_ += b.prefix;
    AppendAttribute(b.uri, &out_);
  }
  out_ += attrs_;
  out_ += terminator;
  attrs_.clear();
  start_tag_open_ = false;
}

void XmlWriter::StartElement(const QName& name) {
  CloseStartTag();
  out_ += '<';
  OpenElement e{out_.size(), 0, scope_.size()};
  AppendQualifiedName(name, /*is_attribute=*/false, &out_);
  e.tag_len = out_.size() - e.tag_pos;
  open_.push_back(e);
  start_tag_open_ = true;
}

void XmlWriter::Attribute(const QName& name, std::string_view value) {
  assert(start_tag_open_);
  attrs_ += ' ';
  AppendQualifiedName(name, /*is_attribute=*/true, &attrs_);
  AppendAttribute(value, &attrs_);
}

void XmlWriter::Text(std::string_view value) {
  CloseStartTag();
  AppendEscaped(value, TextEscape, &out_);
}

void XmlWriter::EndElement() {
  assert(!open_.empty());
  const OpenElement e = open_.back();
  if (start_tag_open_) {
    CloseStartTag("/>");
  } else {
    out_ += "</";
    out_.append(out_, e.tag_pos, e.tag_len);
    out_ += '>';
  }
  scope_.resize(e.scope_mark);
  open_.pop_back();
}

void XmlWriter::WriteNode(const Node& node) {
  switch (node.kind()) {
    case NodeKind::kDocument:
      for (const NodePtr& c : node.children()) WriteNode(*c);
      return;
    case NodeKind::kElement:
      StartElement(node.name());
      for (const NodePtr& a : node.attributes()) {
        Attribute(a->name(), a->value());
      }
      for (const NodePtr& c : node.children()) WriteNode(*c);
      EndElement();
      return;
    case NodeKind::kText:
      Text(node.value());
      return;
    case NodeKind::kComment:
      CloseStartTag();
      out_ += "<!--";
      out_ += node.value();
      out_ += "-->";
      return;
    case NodeKind::kProcessingInstruction:
      CloseStartTag();
      out_ += "<?";
      out_ += node.name().local;
      if (!node.value().empty()) {
        out_ += ' ';
        out_ += node.value();
      }
      out_ += "?>";
      return;
    case NodeKind::kAttribute:
      if (start_tag_open_) {
        Attribute(node.name(), node.value());
        return;
      }
      // A detached attribute serialized on its own renders name="value".
      out_ += node.name().Lexical();
      AppendAttribute(node.value(), &out_);
      return;
  }
}

std::string SerializeNode(const Node& node, const SerializeOptions& options) {
  XmlWriter writer;
  if (node.kind() == NodeKind::kDocument && options.xml_declaration) {
    writer.XmlDeclaration();
  }
  writer.WriteNode(node);
  return writer.Finish();
}

}  // namespace xrpc::xml
