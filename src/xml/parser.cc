#include "xml/parser.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/string_util.h"

namespace xrpc::xml {

namespace {

bool IsNameStartChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':' || static_cast<unsigned char>(c) >= 0x80;
}

bool IsNameChar(char c) {
  return IsNameStartChar(c) || (c >= '0' && c <= '9') || c == '-' || c == '.';
}

// Splits a lexical QName into prefix (empty if none) and local part.
std::pair<std::string_view, std::string_view> SplitQName(std::string_view raw) {
  size_t colon = raw.find(':');
  if (colon == std::string_view::npos) return {{}, raw};
  return {raw.substr(0, colon), raw.substr(colon + 1)};
}

// Appends `s` with its line ends normalized (XML 1.0 §2.11): CR LF and a
// lone CR each become one LF.
void AppendNormalizingLineEnds(std::string_view s, std::string* out) {
  size_t run = 0;
  for (size_t cr = s.find('\r'); cr != std::string_view::npos;
       cr = s.find('\r', run)) {
    out->append(s.data() + run, cr - run);
    out->push_back('\n');
    run = cr + 1;
    if (run < s.size() && s[run] == '\n') ++run;
  }
  out->append(s.data() + run, s.size() - run);
}

std::string NormalizeLineEnds(std::string_view s) {
  std::string out;
  AppendNormalizingLineEnds(s, &out);
  return out;
}

const std::string kNoNamespace;

class Parser {
 public:
  Parser(std::string_view input, const ParseOptions& options)
      : in_(input), options_(options) {
    // Root namespace scope: the reserved xml prefix.
    bindings_.push_back({"xml", "http://www.w3.org/XML/1998/namespace"});
  }

  StatusOr<NodePtr> ParseDocument() {
    NodePtr doc = Node::NewDocument();
    XRPC_RETURN_IF_ERROR(ParseProlog());
    XRPC_RETURN_IF_ERROR(ParseContent(doc.get(), /*top_level=*/true));
    SkipMisc();
    if (pos_ != in_.size()) {
      return Error("unexpected content after document element");
    }
    bool has_element = false;
    for (const NodePtr& c : doc->children()) {
      if (c->kind() == NodeKind::kElement) has_element = true;
    }
    if (!has_element) return Error("no document element");
    return doc;
  }

  StatusOr<NodePtr> ParseFragment() {
    NodePtr doc = Node::NewDocument();
    XRPC_RETURN_IF_ERROR(ParseContent(doc.get(), /*top_level=*/false));
    if (pos_ != in_.size()) return Error("unexpected trailing content");
    return doc;
  }

 private:
  Status Error(const std::string& msg) {
    // Report 1-based line for diagnostics.
    int line = 1;
    for (size_t i = 0; i < pos_ && i < in_.size(); ++i) {
      if (in_[i] == '\n') ++line;
    }
    return Status::ParseError("XML parse error at line " +
                              std::to_string(line) + ": " + msg);
  }

  bool Eof() const { return pos_ >= in_.size(); }
  char Peek() const { return pos_ < in_.size() ? in_[pos_] : '\0'; }
  bool Lookahead(std::string_view s) const {
    return in_.substr(pos_, s.size()) == s;
  }
  bool Consume(std::string_view s) {
    if (!Lookahead(s)) return false;
    pos_ += s.size();
    return true;
  }
  void SkipWs() {
    while (pos_ < in_.size() && IsXmlWhitespace(in_[pos_])) ++pos_;
  }

  Status ParseProlog() {
    if (Consume("\xEF\xBB\xBF")) {
      // UTF-8 byte order mark.
    }
    SkipWs();
    if (Lookahead("<?xml")) {
      size_t end = in_.find("?>", pos_);
      if (end == std::string_view::npos) return Error("unterminated XML decl");
      pos_ = end + 2;
    }
    SkipMisc();
    if (Lookahead("<!DOCTYPE")) {
      // Skip to matching '>' honoring an optional internal subset [...].
      int depth = 0;
      while (pos_ < in_.size()) {
        char c = in_[pos_++];
        if (c == '[') ++depth;
        if (c == ']') --depth;
        if (c == '>' && depth == 0) break;
      }
      SkipMisc();
    }
    return Status::OK();
  }

  // Skips whitespace, comments and PIs at the document level (discarded).
  void SkipMisc() {
    while (true) {
      SkipWs();
      if (Lookahead("<!--")) {
        size_t end = in_.find("-->", pos_);
        if (end == std::string_view::npos) {
          pos_ = in_.size();
          return;
        }
        pos_ = end + 3;
      } else if (Lookahead("<?")) {
        size_t end = in_.find("?>", pos_);
        if (end == std::string_view::npos) {
          pos_ = in_.size();
          return;
        }
        pos_ = end + 2;
      } else {
        return;
      }
    }
  }

  // Parses element content (or top-level content) into `parent`. Each
  // nesting level recurses through this frame, so the rarer constructs
  // parse out of line.
  Status ParseContent(Node* parent, bool top_level) {
    std::string text;
    while (!Eof()) {
      if (Peek() != '<') {
        if (top_level) {
          return Error("text content outside the document element");
        }
        XRPC_RETURN_IF_ERROR(AppendCharData(&text));
        continue;
      }
      if (Lookahead("<![CDATA[")) {
        XRPC_RETURN_IF_ERROR(AppendCdata(&text));
        continue;
      }
      if (!text.empty()) FlushText(parent, top_level, &text);
      if (Lookahead("</")) return Status::OK();
      if (Lookahead("<!--")) {
        XRPC_RETURN_IF_ERROR(ParseComment(parent));
      } else if (Lookahead("<?")) {
        XRPC_RETURN_IF_ERROR(ParsePi(parent));
      } else {
        XRPC_RETURN_IF_ERROR(ParseElement(parent));
        if (top_level) SkipMisc();
      }
    }
    if (!text.empty()) FlushText(parent, top_level, &text);
    return Status::OK();
  }

  // Appends pending character data to `parent` as a text node, unless it
  // is whitespace that is ignorable here.
  [[gnu::noinline]] void FlushText(Node* parent, bool top_level,
                                   std::string* text) {
    bool all_ws = true;
    for (char c : *text) {
      if (!IsXmlWhitespace(c)) {
        all_ws = false;
        break;
      }
    }
    bool drop = all_ws && (top_level || options_.strip_ignorable_whitespace);
    if (!drop) parent->AppendChild(Node::NewText(std::move(*text)));
    text->clear();
  }

  [[gnu::noinline]] Status AppendCdata(std::string* text) {
    size_t end = in_.find("]]>", pos_ + 9);
    if (end == std::string_view::npos) return Error("unterminated CDATA");
    AppendNormalizingLineEnds(in_.substr(pos_ + 9, end - pos_ - 9), text);
    pos_ = end + 3;
    return Status::OK();
  }

  [[gnu::noinline]] Status ParseComment(Node* parent) {
    size_t end = in_.find("-->", pos_ + 4);
    if (end == std::string_view::npos) return Error("unterminated comment");
    parent->AppendChild(Node::NewComment(
        NormalizeLineEnds(in_.substr(pos_ + 4, end - pos_ - 4))));
    pos_ = end + 3;
    return Status::OK();
  }

  Status ParsePi(Node* parent) {
    pos_ += 2;
    std::string_view target;
    XRPC_RETURN_IF_ERROR(ParseName(&target));
    SkipWs();
    size_t end = in_.find("?>", pos_);
    if (end == std::string_view::npos) return Error("unterminated PI");
    parent->AppendChild(Node::NewProcessingInstruction(
        std::string(target), NormalizeLineEnds(in_.substr(pos_, end - pos_))));
    pos_ = end + 2;
    return Status::OK();
  }

  // Appends character data up to the next '<', expanding references and
  // normalizing line ends (XML 1.0 §2.11). Runs of plain characters are
  // appended whole.
  Status AppendCharData(std::string* out) {
    while (!Eof()) {
      size_t run = pos_;
      while (run < in_.size() && in_[run] != '<' && in_[run] != '&' &&
             in_[run] != '\r') {
        ++run;
      }
      out->append(in_.data() + pos_, run - pos_);
      pos_ = run;
      if (Eof() || Peek() == '<') break;
      if (Peek() == '&') {
        XRPC_RETURN_IF_ERROR(ParseReference(out));
        continue;
      }
      // A literal CR: CR LF and a lone CR each become one LF.
      out->push_back('\n');
      ++pos_;
      if (Peek() == '\n') ++pos_;
    }
    return Status::OK();
  }

  // Parses a quoted attribute value, expanding references and normalizing
  // it (XML 1.0 §3.3.3): each literal TAB, LF, CR or CR LF pair becomes one
  // space. A character reference (&#9; &#10; &#13;) keeps its character,
  // which is how the serializer round-trips those characters.
  Status ParseAttributeValue(std::string* out) {
    const char quote = Peek();
    if (quote != '"' && quote != '\'') {
      return Error("expected quoted attribute value");
    }
    ++pos_;
    while (true) {
      size_t run = pos_;
      while (run < in_.size()) {
        char c = in_[run];
        if (c == quote || c == '&' || c == '<' || c == '\t' || c == '\n' ||
            c == '\r') {
          break;
        }
        ++run;
      }
      out->append(in_.data() + pos_, run - pos_);
      pos_ = run;
      if (Eof()) return Error("unterminated attribute value");
      const char c = in_[pos_];
      if (c == quote) {
        ++pos_;
        return Status::OK();
      }
      if (c == '&') {
        XRPC_RETURN_IF_ERROR(ParseReference(out));
        continue;
      }
      if (c == '<') return Error("'<' in attribute value");
      out->push_back(' ');
      ++pos_;
      if (c == '\r' && Peek() == '\n') ++pos_;
    }
  }

  Status ParseReference(std::string* out) {
    // pos_ is at '&'.
    size_t end = in_.find(';', pos_);
    if (end == std::string_view::npos || end - pos_ > 12) {
      return Error("malformed entity reference");
    }
    std::string_view name = in_.substr(pos_ + 1, end - pos_ - 1);
    pos_ = end + 1;
    if (name == "lt") {
      out->push_back('<');
    } else if (name == "gt") {
      out->push_back('>');
    } else if (name == "amp") {
      out->push_back('&');
    } else if (name == "quot") {
      out->push_back('"');
    } else if (name == "apos") {
      out->push_back('\'');
    } else if (!name.empty() && name[0] == '#') {
      uint32_t cp = 0;
      bool ok = name.size() > 1;
      if (name.size() > 2 && (name[1] == 'x' || name[1] == 'X')) {
        for (size_t i = 2; i < name.size() && ok; ++i) {
          char c = name[i];
          uint32_t d;
          if (c >= '0' && c <= '9') {
            d = static_cast<uint32_t>(c - '0');
          } else if (c >= 'a' && c <= 'f') {
            d = static_cast<uint32_t>(c - 'a' + 10);
          } else if (c >= 'A' && c <= 'F') {
            d = static_cast<uint32_t>(c - 'A' + 10);
          } else {
            ok = false;
            break;
          }
          cp = cp * 16 + d;
        }
      } else {
        for (size_t i = 1; i < name.size() && ok; ++i) {
          if (name[i] < '0' || name[i] > '9') {
            ok = false;
            break;
          }
          cp = cp * 10 + static_cast<uint32_t>(name[i] - '0');
        }
      }
      if (!ok || cp == 0 || cp > 0x10FFFF) {
        return Error("invalid character reference");
      }
      AppendUtf8(cp, out);
    } else {
      return Error("unknown entity &" + std::string(name) + ";");
    }
    return Status::OK();
  }

  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseName(std::string_view* out) {
    if (Eof() || !IsNameStartChar(Peek())) return Error("expected a name");
    size_t start = pos_;
    while (!Eof() && IsNameChar(Peek())) ++pos_;
    *out = in_.substr(start, pos_ - start);
    return Status::OK();
  }

  // Resolves `prefix` in the in-scope bindings; the empty prefix resolves
  // to the default namespace (which may be ""). nullptr if undeclared.
  const std::string* ResolvePrefix(std::string_view prefix) const {
    for (auto it = bindings_.rbegin(); it != bindings_.rend(); ++it) {
      if (it->prefix == prefix) return &it->uri;
    }
    return prefix.empty() ? &kNoNamespace : nullptr;
  }

  // Only the element's node, its name and its namespace scope live in the
  // frame that recurses into its content; the tags parse out of line, so
  // every nesting level costs little stack, sanitizer builds included.
  Status ParseElement(Node* parent) {
    if (depth_ == kMaxElementDepth) {
      return Error("elements nested deeper than " +
                   std::to_string(kMaxElementDepth) + " levels");
    }
    const size_t scope_mark = bindings_.size();
    std::string_view raw_name;
    bool self_closing = false;
    XRPC_ASSIGN_OR_RETURN(NodePtr elem,
                          ParseStartTag(&raw_name, &self_closing));
    if (!self_closing) {
      ++depth_;
      Status content = ParseContent(elem.get(), /*top_level=*/false);
      --depth_;
      XRPC_RETURN_IF_ERROR(content);
      XRPC_RETURN_IF_ERROR(ParseEndTag(raw_name));
    }
    bindings_.resize(scope_mark);
    parent->AppendChild(std::move(elem));
    return Status::OK();
  }

  // Parses a start tag from its '<' and binds its namespace declarations
  // (the caller unbinds them after the element's content).
  [[gnu::noinline]] StatusOr<NodePtr> ParseStartTag(std::string_view* raw_name,
                                                    bool* self_closing) {
    ++pos_;  // '<'
    XRPC_RETURN_IF_ERROR(ParseName(raw_name));

    // Namespace declarations bind for this element's scope; the other
    // attributes wait in attrs_ until all declarations of the tag are known.
    attrs_.clear();
    while (true) {
      SkipWs();
      if (Consume("/>")) {
        *self_closing = true;
        break;
      }
      if (Consume(">")) break;
      if (Eof()) return Error("unterminated start tag");
      if (Lookahead("/")) return Error("malformed empty-element tag");
      std::string_view name;
      XRPC_RETURN_IF_ERROR(ParseName(&name));
      SkipWs();
      if (!Consume("=")) return Error("expected '=' in attribute");
      SkipWs();
      std::string value;
      XRPC_RETURN_IF_ERROR(ParseAttributeValue(&value));
      if (name == "xmlns") {
        bindings_.push_back({{}, std::move(value)});
      } else if (StartsWith(name, "xmlns:")) {
        bindings_.push_back({name.substr(6), std::move(value)});
      } else {
        attrs_.push_back({name, std::move(value)});
      }
    }

    auto [eprefix, elocal] = SplitQName(*raw_name);
    const std::string* euri = ResolvePrefix(eprefix);
    if (euri == nullptr) {
      return Error("undeclared namespace prefix: " + std::string(eprefix));
    }
    NodePtr elem = Node::NewElement(Intern(*euri, elocal, eprefix));

    for (RawAttribute& a : attrs_) {
      auto [aprefix, alocal] = SplitQName(a.name);
      // Unprefixed attributes are in no namespace per XML Namespaces.
      const std::string* auri = &kNoNamespace;
      if (!aprefix.empty()) {
        auri = ResolvePrefix(aprefix);
        if (auri == nullptr) {
          return Error("undeclared namespace prefix: " + std::string(aprefix));
        }
      }
      for (const NodePtr& other : elem->attributes()) {
        if (other->name().local == alocal && other->name().ns_uri == *auri) {
          return Error("duplicate attribute " + std::string(a.name));
        }
      }
      elem->SetAttribute(Node::NewAttribute(Intern(*auri, alocal, aprefix),
                                            std::move(a.value)));
    }
    return elem;
  }

  [[gnu::noinline]] Status ParseEndTag(std::string_view raw_name) {
    if (!Consume("</")) {
      return Error("expected end tag for " + std::string(raw_name));
    }
    std::string_view end_name;
    XRPC_RETURN_IF_ERROR(ParseName(&end_name));
    SkipWs();
    if (!Consume(">")) return Error("malformed end tag");
    if (end_name != raw_name) {
      return Error("mismatched end tag </" + std::string(end_name) +
                   ">, expected </" + std::string(raw_name) + ">");
    }
    return Status::OK();
  }

  // The one name object of this parse for (uri, local, prefix).
  std::shared_ptr<const QName> Intern(const std::string& uri,
                                      std::string_view local,
                                      std::string_view prefix) {
    name_key_.assign(uri).push_back('\0');
    name_key_.append(prefix).push_back('\0');
    name_key_.append(local);
    std::shared_ptr<const QName>& name = names_[name_key_];
    if (name == nullptr) {
      name = std::make_shared<const QName>(uri, std::string(local),
                                           std::string(prefix));
    }
    return name;
  }

  // A prefix -> URI binding; prefixes point into the input.
  struct Binding {
    std::string_view prefix;
    std::string uri;
  };
  // A start tag's non-declaration attribute, before prefix resolution.
  struct RawAttribute {
    std::string_view name;
    std::string value;
  };

  std::string_view in_;
  size_t pos_ = 0;
  int depth_ = 0;  ///< elements open around the parse position
  ParseOptions options_;
  std::vector<Binding> bindings_;     ///< in-scope bindings, innermost last
  std::vector<RawAttribute> attrs_;   ///< the current start tag's, reused
  std::unordered_map<std::string, std::shared_ptr<const QName>> names_;
  std::string name_key_;  ///< Intern's lookup key, reused
};

}  // namespace

StatusOr<NodePtr> ParseXml(std::string_view input, const ParseOptions& options) {
  Parser p(input, options);
  return p.ParseDocument();
}

StatusOr<NodePtr> ParseXmlFragment(std::string_view input,
                                   const ParseOptions& options) {
  Parser p(input, options);
  return p.ParseFragment();
}

}  // namespace xrpc::xml
