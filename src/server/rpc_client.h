#ifndef XRPC_SERVER_RPC_CLIENT_H_
#define XRPC_SERVER_RPC_CLIENT_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "core/catalog.h"
#include "net/rpc_metrics.h"
#include "net/thread_pool.h"
#include "net/transport.h"
#include "soap/message.h"
#include "xquery/context.h"

namespace xrpc::server {

/// Isolation level of outgoing XRPC calls (declare option xrpc:isolation).
enum class IsolationLevel {
  kNone,        ///< rule RFr / RFu: every call sees the current state
  kRepeatable,  ///< rule R'Fr / R'Fu: calls of one query share one state
};

/// Client side of the SOAP XRPC protocol: marshals calls into request
/// envelopes, POSTs them over a transport, and unmarshals responses.
///
/// One RpcClient instance serves one query: it carries the query's
/// isolation options, accumulates the set of participating peers
/// (piggybacked in responses, for WS-Coordinator registration) and the
/// modeled network time.
///
/// It is also the one shard router (DESIGN.md §13-14): ExecuteRouted()
/// resolves logical "shard:<collection>" destinations against the peer
/// catalog for both engines. The relational engine hands it every
/// iteration of a loop-lifted `execute at` at once (Bulk RPC); the
/// interpreter's Execute() is the one-call case of the same path.
class RpcClient : public xquery::RpcHandler {
 public:
  /// One Bulk RPC request and where to send it.
  struct Destination {
    std::string dest_uri;
    soap::XrpcRequest request;
    /// Replica peers to try in order when `dest_uri` fails retriably
    /// (dial failure, per-attempt timeout, open breaker). Populated from
    /// the catalog's replica lists for shard-routed read-only subcalls;
    /// updating requests never fail over (at-most-once, Section 4.4).
    std::vector<std::string> fallback_uris;
  };

  /// One logical `execute at` application: a destination (a peer URI or
  /// "shard:<collection>") and one argument sequence per parameter.
  struct RoutedCall {
    std::string dest_uri;
    std::vector<xdm::Sequence> args;
  };

  /// One physical call inside a routed group: the index of its logical
  /// call in ExecuteRouted's `calls`, and the merge rank of its results
  /// within that call (the shard index of a broadcast, else 0).
  struct Slot {
    size_t call = 0;
    int rank = 0;
  };

  /// One Bulk RPC request of a routed invocation with its response;
  /// response.results[k] answers slots[k].
  struct RoutedGroup {
    std::string peer;  ///< primary destination peer URI
    /// Replica copy of an updating call (all-copies write, DESIGN.md §17):
    /// it executes and enlists in the 2PC like any group, but its results
    /// must not feed the merge.
    bool echo = false;
    std::vector<Slot> slots;
    soap::XrpcResponse response;
  };

  struct Options {
    IsolationLevel isolation = IsolationLevel::kNone;
    std::optional<soap::QueryId> query_id;  ///< required for kRepeatable
    /// Suppress the queryID for provably simple queries (single non-nested
    /// XRPC call), which get repeatable reads for free (Section 3.2).
    bool simple_query = false;
    /// When set, ExecuteBulkAll launches its per-destination Bulk RPCs on
    /// this pool and waits for all of them — genuinely parallel fan-out
    /// (concurrency bounded by the pool size). When null, destinations are
    /// dispatched serially; the transport's parallel-group bracket still
    /// accounts the group's modeled time as max-over-destinations. Serial
    /// is the default because it keeps the simulated network's injected
    /// fault schedule deterministic.
    net::ThreadPool* dispatch_pool = nullptr;
    /// Registry receiving fan-out shape, per-destination latency and the
    /// failover / stale-catalog / stale-replica events. Per-exchange wire
    /// counters are the transport's job (RetryingTransport), so this may
    /// alias its registry without double counting.
    net::RpcMetrics* metrics = nullptr;
    /// Absolute deadline (micros on the `now_us` clock) of the query this
    /// client serves; 0 = none. Every outgoing envelope is stamped with an
    /// xrpc:deadline header carrying the REMAINING budget at send time
    /// (relative micros — no cross-host clock sync needed), and a request
    /// whose budget is already spent fails locally without being sent.
    int64_t deadline_us = 0;
    /// Clock `deadline_us` is measured against (virtual or steady);
    /// required when deadline_us > 0.
    std::function<int64_t()> now_us;
    /// Peer catalog ExecuteRouted() resolves logical "shard:<collection>"
    /// destinations against (DESIGN.md §13). Null disables resolution;
    /// shard destinations then fail with an eval error.
    const core::Catalog* catalog = nullptr;
  };

  RpcClient(net::Transport* transport, Options options)
      : transport_(transport), options_(std::move(options)) {}

  /// One-at-a-time RPC (xquery::RpcHandler): ExecuteRouted with one call,
  /// concatenating the non-echo results in rank order.
  StatusOr<xdm::Sequence> Execute(const xquery::RpcCall& call) override;

  /// The shard router (DESIGN.md §13.2): places every call of one
  /// `execute at` into groups, in first-appearance order, and sends one
  /// Bulk RPC per group. A plain destination is one group per peer; a
  /// "shard:<collection>" call is pruned to its key's shard or broadcast
  /// to every shard, one group per shard (plus echo groups for the
  /// replicas of an updating call). On a StaleCatalog fence a read
  /// re-routes exactly once; an updating call aborts instead (§14.3).
  ///
  /// `header` supplies the request fields shared by every group (module,
  /// method, location, arity, updating); its `calls` must be empty.
  StatusOr<std::vector<RoutedGroup>> ExecuteRouted(
      const soap::XrpcRequest& header, const std::vector<RoutedCall>& calls);

  /// Sends a Bulk RPC request to `dest_uri` and returns the full response.
  StatusOr<soap::XrpcResponse> ExecuteBulk(const std::string& dest_uri,
                                           soap::XrpcRequest request);

  /// Dispatches one Bulk RPC per destination; result[i] corresponds to
  /// destinations[i]. The requests of one invocation are logically
  /// parallel (MonetDB dispatches them concurrently), so network time is
  /// accounted as the maximum over destinations rather than their sum;
  /// with Options::dispatch_pool the dispatch is physically parallel as
  /// well and wall-clock time follows the same max-over-destinations
  /// shape.
  ///
  /// Error isolation: every destination is attempted regardless of other
  /// destinations' failures; on any failure the status of the
  /// lowest-indexed failing destination is returned (response order always
  /// matches destination order, so out-of-order completion cannot leak
  /// into the result).
  StatusOr<std::vector<soap::XrpcResponse>> ExecuteBulkAll(
      std::vector<Destination> destinations);

  /// Peers that participated in calls made through this client
  /// (transitively, via response piggybacking). Includes direct callees.
  /// Only stable once no ExecuteBulkAll is in flight.
  const std::set<std::string>& participating_peers() const {
    return participating_peers_;
  }

  /// Accumulated modeled network time of all exchanges (parallel groups
  /// contribute their critical path, not their sum).
  int64_t network_micros() const;
  /// Number of request messages sent.
  int64_t requests_sent() const;
  /// True if any request carried updCall (drives the 2PC decision).
  bool sent_updating() const;
  /// Accumulated measured processing time at destination peers.
  int64_t remote_micros() const;

 private:
  /// Accounting of one wire exchange, kept local to the exchange so that
  /// concurrent per-destination calls never contend on — or interleave
  /// into — the client-wide tallies.
  struct ExchangeStats {
    int64_t network_micros = 0;
    int64_t remote_micros = 0;
    int64_t requests_sent = 0;
    bool sent_updating = false;
    std::vector<std::string> peers;  ///< dest + piggybacked participants
  };

  /// Performs one Bulk RPC exchange, writing its accounting into `stats`
  /// instead of the client tallies. Thread-safe: reads only immutable
  /// state (options_, transport_).
  StatusOr<soap::XrpcResponse> ExchangeOnce(const std::string& dest_uri,
                                            soap::XrpcRequest request,
                                            ExchangeStats* stats) const;

  /// ExchangeOnce plus replica failover (DESIGN.md §14): on a retriable
  /// failure (kNetworkError — dial refusal, abandoned timeout, open
  /// breaker) of a NON-updating request, re-issues the exchange to the
  /// next fallback URI, re-stamping the remaining deadline budget per
  /// candidate. Updating requests never fail over (at-most-once), and a
  /// StaleCatalog fault is returned immediately — every replica shares the
  /// catalog, so re-dialing cannot help; the caller re-routes instead.
  StatusOr<soap::XrpcResponse> ExchangeWithFailover(const Destination& dest,
                                                    ExchangeStats* stats) const;

  /// Folds exchange accounting into the client tallies (mu_).
  /// `network_micros` is passed separately: serial callers add the
  /// exchange's own cost, ExecuteBulkAll adds the group's critical path.
  void MergeStats(const ExchangeStats& stats, int64_t network_micros);

  net::Transport* transport_;
  Options options_;

  mutable std::mutex mu_;  ///< guards the tallies below
  std::set<std::string> participating_peers_;
  int64_t network_micros_ = 0;
  int64_t remote_micros_ = 0;
  int64_t requests_sent_ = 0;
  bool sent_updating_ = false;
};

}  // namespace xrpc::server

#endif  // XRPC_SERVER_RPC_CLIENT_H_
