#include "net/uri.h"

#include "base/string_util.h"

namespace xrpc::net {

namespace {

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

bool IsUnreserved(char c) {
  return (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '.' || c == '_' ||
         c == '~';
}

/// pchar extras beyond unreserved: sub-delims plus ":" and "@"; '/' is the
/// path separator and also passes through.
bool IsPathSafe(char c) {
  if (IsUnreserved(c) || c == '/') return true;
  switch (c) {
    case ':':
    case '@':
    case '!':
    case '$':
    case '&':
    case '\'':
    case '(':
    case ')':
    case '*':
    case '+':
    case ',':
    case ';':
    case '=':
      return true;
    default:
      return false;
  }
}

}  // namespace

StatusOr<std::string> PercentDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '%') {
      out += s[i];
      continue;
    }
    if (i + 2 >= s.size()) {
      return Status::InvalidArgument("truncated percent escape in '" +
                                     std::string(s) + "'");
    }
    int hi = HexValue(s[i + 1]);
    int lo = HexValue(s[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("malformed percent escape '" +
                                     std::string(s.substr(i, 3)) + "' in '" +
                                     std::string(s) + "'");
    }
    out += static_cast<char>(hi * 16 + lo);
    i += 2;
  }
  return out;
}

std::string PercentEncodePath(std::string_view path) {
  static const char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(path.size());
  for (char c : path) {
    if (IsPathSafe(c)) {
      out += c;
    } else {
      unsigned char u = static_cast<unsigned char>(c);
      out += '%';
      out += kHex[u >> 4];
      out += kHex[u & 0xf];
    }
  }
  return out;
}

std::string XrpcUri::ToString() const {
  std::string out = "xrpc://" + host;
  if (port != kDefaultXrpcPort) out += ":" + std::to_string(port);
  if (!path.empty()) out += "/" + PercentEncodePath(path);
  return out;
}

StatusOr<XrpcUri> ParseXrpcUri(std::string_view uri) {
  std::string_view rest = uri;
  if (StartsWith(rest, "xrpc://")) {
    rest = rest.substr(7);
  } else if (rest.find("://") != std::string_view::npos) {
    return Status::InvalidArgument("not an xrpc:// URI: " + std::string(uri));
  }
  if (rest.empty()) {
    return Status::InvalidArgument("empty XRPC destination");
  }
  XrpcUri out;
  size_t slash = rest.find('/');
  std::string_view authority =
      slash == std::string_view::npos ? rest : rest.substr(0, slash);
  if (slash != std::string_view::npos) {
    XRPC_ASSIGN_OR_RETURN(out.path, PercentDecode(rest.substr(slash + 1)));
  }
  size_t colon = authority.find(':');
  std::string_view host_part = authority;
  if (colon != std::string_view::npos) {
    host_part = authority.substr(0, colon);
    XRPC_ASSIGN_OR_RETURN(int64_t port,
                          ParseInt64(authority.substr(colon + 1)));
    if (port <= 0 || port > 65535) {
      return Status::InvalidArgument("invalid port in " + std::string(uri));
    }
    out.port = static_cast<int>(port);
  }
  XRPC_ASSIGN_OR_RETURN(out.host, PercentDecode(host_part));
  if (out.host.empty()) {
    return Status::InvalidArgument("empty host in " + std::string(uri));
  }
  return out;
}

std::string PeerUri(std::string_view uri) {
  auto parsed = ParseXrpcUri(uri);
  if (!parsed.ok()) return std::string(uri);
  parsed->path.clear();
  return parsed->ToString();
}

}  // namespace xrpc::net
