#ifndef XRPC_SOAP_MESSAGE_H_
#define XRPC_SOAP_MESSAGE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "base/statusor.h"
#include "xdm/item.h"

namespace xrpc::soap {

/// The queryID isolation extension (Section 2.2): identifies the query a
/// request belongs to so a peer can pin one database state per query.
struct QueryId {
  std::string id;         ///< globally unique query identifier
  std::string host;       ///< originating host
  int64_t timestamp = 0;  ///< UTC start time at the originating host (usec)
  int64_t timeout_sec = 30;  ///< relative seconds to retain the snapshot

  friend bool operator==(const QueryId& a, const QueryId& b) {
    return a.id == b.id;
  }
};

/// Parses a queryID timeout: non-negative seconds whose microseconds fit an
/// int64. kInvalidArgument for anything else (negative, malformed, or too
/// large to become a deadline).
StatusOr<int64_t> ParseQueryTimeout(std::string_view text);

/// A SOAP XRPC request: one Bulk RPC with one or more calls to the same
/// function (module, method, arity), each with `arity` parameter sequences.
struct XrpcRequest {
  std::string module_ns;
  std::string method;
  std::string location;  ///< module at-hint
  size_t arity = 0;
  bool updating = false;  ///< updCall: invokes an XQUF updating function

  /// calls[i][j] = parameter j of call i. All calls share the function; a
  /// request with calls.size() > 1 is a Bulk RPC.
  std::vector<std::vector<xdm::Sequence>> calls;

  std::optional<QueryId> query_id;  ///< present => repeatable-read isolation

  /// End-to-end deadline propagation: the REMAINING time budget of the
  /// query in microseconds, carried as an env:Header child xrpc:deadline.
  /// Relative (not an absolute instant) so peers need no clock sync and
  /// virtual-clock simulations work unchanged; each hop decrements its own
  /// elapsed time before stamping nested relocation requests. Absent =>
  /// no deadline (pre-deadline peers interoperate: unknown headers are
  /// ignored on parse, and no header is emitted when unset).
  std::optional<int64_t> deadline_us;

  /// Shard-routing scope (DESIGN.md §14), carried as an env:Header child
  /// xrpc:shard. Present on every shard-routed subcall; it does two jobs:
  ///  - epoch fencing: `catalog_version` is the sender's catalog version at
  ///    decomposition time. A peer at a different version rejects with the
  ///    retriable StaleCatalog fault instead of answering from a shard map
  ///    the caller no longer routes by.
  ///  - fragment pinning: a replica peer holds several fragments of the
  ///    same collection, so "resolve the logical name to the local
  ///    fragment" is ambiguous; the scope names the exact shard to serve.
  ///  - data fencing: `data_version` is the fragment's authoritative data
  ///    version at decomposition time (0 = unversioned). A replica whose
  ///    applied version lags it rejects with the retriable StaleReplica
  ///    fault, so failover skips lagging copies instead of serving stale
  ///    data.
  struct ShardScope {
    std::string collection;      ///< logical collection name
    int shard_index = 0;         ///< which shard this subcall reads
    int64_t catalog_version = 0; ///< sender's catalog version (fencing token)
    uint64_t data_version = 0;   ///< fragment data version (0 = unversioned)
  };
  std::optional<ShardScope> shard;
};

/// A SOAP XRPC response: one result sequence per call of the request, plus
/// the piggybacked list of peers that (transitively) participated — used by
/// the WS-Coordination registration for distributed commit.
struct XrpcResponse {
  std::string module_ns;
  std::string method;
  std::vector<xdm::Sequence> results;
  std::vector<std::string> participating_peers;
};

/// A SOAP Fault (the XRPC error message).
struct Fault {
  std::string code;    ///< e.g. "env:Sender" or "env:Receiver"
  std::string reason;  ///< human-readable text
};

/// Serializes a request into a complete SOAP envelope document.
std::string SerializeRequest(const XrpcRequest& request);

/// Parses a SOAP envelope holding an xrpc:request.
StatusOr<XrpcRequest> ParseRequest(std::string_view text);

/// Serializes a response into a complete SOAP envelope document.
std::string SerializeResponse(const XrpcResponse& response);

/// Serializes a SOAP Fault envelope.
std::string SerializeFault(const Fault& fault);

/// Builds the Fault corresponding to a Status (code env:Sender for caller
/// errors, env:Receiver for server-side failures).
Fault FaultFromStatus(const Status& status);

/// Reconstructs a Status from a received Fault.
Status StatusFromFault(const Fault& fault);

/// Parses a SOAP envelope that holds either an xrpc:response or a Fault;
/// a Fault is surfaced as a kSoapFault Status (any error causes a run-time
/// error at the originating site, per Section 2.1).
StatusOr<XrpcResponse> ParseResponse(std::string_view text);

}  // namespace xrpc::soap

#endif  // XRPC_SOAP_MESSAGE_H_
