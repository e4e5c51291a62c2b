#ifndef XRPC_NET_URI_H_
#define XRPC_NET_URI_H_

#include <string>
#include <string_view>

#include "base/statusor.h"

namespace xrpc::net {

/// Default port of the XRPC SOAP/HTTP service.
inline constexpr int kDefaultXrpcPort = 50001;

/// RFC 3986 percent-decoding: every "%xx" (two hex digits, either case)
/// becomes its octet. A '%' not followed by two hex digits is malformed
/// and rejected — silently passing it through would make encoding
/// ambiguous ("%2541" could mean "%41" or "%2541").
StatusOr<std::string> PercentDecode(std::string_view s);

/// Percent-encodes a URI path for the wire: RFC 3986 unreserved characters
/// (ALPHA / DIGIT / "-" / "." / "_" / "~"), the path separator '/', and
/// the pchar extras (":@" and sub-delims) pass through; everything else —
/// including '%' itself, spaces, '?' and '#' — is emitted as "%XX".
/// PercentDecode(PercentEncodePath(p)) == p for every p.
std::string PercentEncodePath(std::string_view path);

/// A parsed xrpc:// destination: xrpc://<host>[:port][/[path]].
/// `host` and `path` hold DECODED text; ToString() re-encodes.
struct XrpcUri {
  std::string host;
  int port = kDefaultXrpcPort;
  std::string path;  ///< optional local path at the remote peer ("" if none)

  /// Canonical "host:port" peer key used for registry lookups.
  std::string PeerKey() const { return host + ":" + std::to_string(port); }

  /// Re-renders the URI, percent-encoding the path.
  std::string ToString() const;
};

/// Parses an xrpc:// URI, percent-decoding host and path. Bare "host" or
/// "host:port" strings (as used in the paper's examples, e.g. execute at
/// {"B"}) are accepted as host names. Malformed "%xx" escapes are
/// rejected.
StatusOr<XrpcUri> ParseXrpcUri(std::string_view uri);

/// The peer `uri` addresses: the canonical xrpc:// URI without its path
/// ("B", "xrpc://B" and "xrpc://B/wsat" all name "xrpc://B"). Keys
/// per-peer state such as circuit breakers and metric rows, so every
/// endpoint path of one peer shares them. Unparsable input comes back
/// unchanged.
std::string PeerUri(std::string_view uri);

}  // namespace xrpc::net

#endif  // XRPC_NET_URI_H_
