#ifndef XRPC_NET_RPC_METRICS_H_
#define XRPC_NET_RPC_METRICS_H_

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace xrpc::net {

/// Log-scale latency histogram: bucket i counts samples in
/// [2^(i-1), 2^i) microseconds (bucket 0: [0, 1) us). The last bucket is
/// open-ended. Covers 1 us .. ~2 s, which spans everything from loopback
/// round-trips to WAN latency spikes.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 22;

  void Record(int64_t micros);

  int64_t samples() const { return samples_; }
  int64_t total_micros() const { return total_micros_; }
  int64_t min_micros() const { return samples_ == 0 ? 0 : min_micros_; }
  int64_t max_micros() const { return max_micros_; }
  int64_t bucket(int i) const { return counts_[static_cast<size_t>(i)]; }

  /// Smallest upper bound b such that >= p (in [0,1]) of samples are < b.
  /// Returns the bucket upper bound (power of two), 0 when empty.
  int64_t PercentileUpperBound(double p) const;

  /// One-line rendering: "n=… mean=…us p50<…us p99<…us max=…us".
  std::string Summary() const;

  void Merge(const LatencyHistogram& other);
  void Reset();

 private:
  std::array<int64_t, kBuckets> counts_{};
  int64_t samples_ = 0;
  int64_t total_micros_ = 0;
  int64_t min_micros_ = 0;
  int64_t max_micros_ = 0;
};

/// Counters and latency distribution of RPC traffic toward (client side) or
/// at (server side) one peer.
struct PeerRpcStats {
  int64_t requests = 0;       ///< POST exchanges attempted (client side)
  int64_t failures = 0;       ///< requests that ended in a non-OK status
  int64_t retries = 0;        ///< re-transmissions after a transient failure
  int64_t timeouts = 0;       ///< requests abandoned past the deadline
  int64_t bytes_sent = 0;     ///< request envelope bytes
  int64_t bytes_received = 0; ///< response envelope bytes
  LatencyHistogram latency;   ///< per-exchange wire latency (modeled or real)

  void Merge(const PeerRpcStats& other);
};

/// Thread-safe registry of transport/RPC observability counters, shared by
/// RetryingTransport (retries, backoff, timeouts), RpcClient (requests,
/// bytes, latency, per-peer breakdown) and XrpcService (server-side request
/// and call counts). One registry typically lives in the PeerNetwork and is
/// dumped by the bench harness; you cannot tune (or trust) Bulk RPC latency
/// amortization without this visibility.
class RpcMetrics {
 public:
  RpcMetrics() = default;
  RpcMetrics(const RpcMetrics&) = delete;
  RpcMetrics& operator=(const RpcMetrics&) = delete;

  /// Client side: one POST exchange toward `peer` completed (ok or not).
  void RecordClientRequest(const std::string& peer, size_t bytes_sent,
                           size_t bytes_received, int64_t latency_micros,
                           bool ok);
  /// Client side: a transient failure toward `peer` is being retried.
  void RecordRetry(const std::string& peer);
  /// Client side: a request toward `peer` exceeded its deadline.
  void RecordTimeout(const std::string& peer);
  /// Client side: backoff slept/modeled before a retry.
  void RecordBackoff(int64_t micros);

  /// Server side: `self` handled a request carrying `calls` bulk calls.
  void RecordServerRequest(const std::string& self, int64_t calls, bool ok);

  /// Simulated network: a fault (drop/truncation/forced failure) fired.
  void RecordInjectedFault();

  // -- Connection pooling / parallel dispatch counters ---------------------

  /// Client side: a connection toward a peer was acquired — from the pool
  /// (`hit`) or by dialing a fresh socket.
  void RecordConnectionReuse(bool hit);
  /// Client side: an idle pooled connection expired and was closed.
  void RecordConnectionExpired();
  /// Client side: a pooled connection turned out broken mid-exchange and
  /// the request was safely re-dialed on a fresh socket.
  void RecordStaleConnectionRetry();
  /// Client side: pool-size gauge after a release; the maximum is reported.
  void RecordPooledConnections(int64_t idle_now);
  /// Client side: one parallel fan-out group of `destinations` Bulk RPCs
  /// dispatched; `max_in_flight` is the dispatch pool's occupancy peak.
  void RecordDispatchFanout(int64_t destinations, int64_t max_in_flight);
  /// Client side: modeled/measured wire latency of ONE destination within a
  /// fan-out group (the distribution whose max is the critical path).
  void RecordFanoutDestinationLatency(int64_t micros);
  /// Server side: accept-queue depth gauge after an enqueue; max reported.
  void RecordAcceptQueueDepth(int64_t depth);
  /// Server side: a connection was rejected with 503 (accept queue full).
  void RecordServerOverload();

  // -- Transaction (2PC / WAL) counters -----------------------------------

  /// Coordinator: a phase-2 Commit was re-sent after a delivery failure.
  void RecordTxnCommitRetry();
  /// In-doubt gauge moved by `delta` (+1 parked / restored, -1 resolved).
  void RecordTxnInDoubt(int64_t delta);
  /// A peer replayed its WAL (crash recovery / restart).
  void RecordTxnRecovery();
  /// `count` WAL records were read back during a replay.
  void RecordTxnReplayedRecords(int64_t count);
  /// A prepared in-doubt session was reconstructed from the WAL.
  void RecordTxnRecoveredSession();
  /// A participant answered a re-delivered Commit/Rollback/Prepare from its
  /// decided-outcome record instead of re-executing it.
  void RecordTxnIdempotentReply();

  // -- Deadline / cancellation / circuit-breaker counters ------------------

  /// Client side: a request toward `peer` gave up because its end-to-end
  /// deadline budget ran out (before, between, or during attempts).
  void RecordDeadlineExceeded(const std::string& peer);
  /// Server side: `self` rejected an already-expired request before
  /// compiling or executing anything.
  void RecordServerDeadlineReject(const std::string& self);
  /// Server side: an engine observed cooperative cancellation mid-query.
  void RecordCancellation();
  /// Server side: a cancelled query's repeatable-read snapshot was
  /// released immediately (instead of waiting for session expiry).
  void RecordSessionReleased();

  /// Circuit breaker transitions: closed->open, open->half-open (probe
  /// admitted), half-open->closed.
  void RecordBreakerOpen();
  void RecordBreakerHalfOpen();
  void RecordBreakerClose();
  /// A request toward `peer` was refused locally by an open circuit
  /// (no dial happened).
  void RecordBreakerShortCircuit(const std::string& peer);
  /// Circuit breaker: an admitted half-open probe was abandoned without an
  /// outcome (e.g. the deadline budget ran out before the dial) and the
  /// probe slot was released back to the open state.
  void RecordBreakerProbeAbandoned();

  // -- Shard failover / catalog-fencing counters ---------------------------

  /// Client side: a read-only shard subcall failed retriably at `from_peer`
  /// and is being re-issued to the next replica.
  void RecordFailoverAttempt(const std::string& from_peer);
  /// Client side: a replica answered a subcall its primary could not.
  void RecordFailoverSuccess();
  /// Client side: every replica of a shard was exhausted; the subcall
  /// failed with the last replica's error.
  void RecordFailoverExhausted();
  /// Server side: `self` fenced off a shard-routed call whose sender
  /// decomposed against a different catalog version.
  void RecordStaleCatalogReject(const std::string& self);
  /// Client side: a StaleCatalog fault was observed on a subcall.
  void RecordStaleCatalogObserved();
  /// Client side: the shard map was refetched and the query re-routed.
  void RecordStaleCatalogReroute();
  /// Client side: Catalog::RouteKey could not place a key of `collection`
  /// and the caller broadcast to every shard instead.
  void RecordRouteMiss(const std::string& collection);

  // -- Replica data-fencing / anti-entropy counters (DESIGN.md §17) --------

  /// Server side: `self` fenced off a shard-routed call because its applied
  /// fragment data version lags the one the caller routed by.
  void RecordStaleReplicaReject(const std::string& self);
  /// Client side: a StaleReplica fault was observed on a subcall.
  void RecordStaleReplicaObserved();
  /// Client side: failover skipped a lagging copy and moved to the next.
  void RecordStaleReplicaSkip();

  /// Repair: one fragment's applied-vs-authoritative version was checked.
  void RecordReplicaLagCheck();
  /// Repair: a lagging fragment was found, `gap` versions behind.
  void RecordReplicaLagging(int64_t gap);
  /// Repair: a lagging fragment was brought up to date.
  void RecordRepairResync();
  /// Repair: `count` missed committed PULs were replayed from a donor WAL.
  void RecordRepairPulsReplayed(int64_t count);
  /// Repair: a fragment was caught up by full transfer (donor WAL gap or
  /// delta-replay digest mismatch).
  void RecordRepairFullTransfer();
  /// Repair: every donor was exhausted and the fragment stayed lagging.
  void RecordRepairFailed();

  // -- Multi-tenant workload counters (DESIGN.md §16) ----------------------

  /// Terminal outcome of one tenant query as classified by the workload
  /// driver (src/load): admitted+ok, rejected at admission (arrival already
  /// past its deadline), deadline exceeded mid-flight, or failed outright.
  enum class TenantOutcome { kOk, kRejected, kDeadlineExceeded, kFailed };

  /// One tenant query finished with `outcome`; `latency_us` is
  /// completion − arrival (open-loop: includes queueing delay) and
  /// `slo_met` whether it completed ok within the tenant's SLO target.
  /// Rejected queries carry no latency sample (they never ran).
  void RecordTenantQuery(const std::string& tenant, TenantOutcome outcome,
                         int64_t latency_us, bool slo_met);

  /// Aggregated per-tenant workload stats.
  struct TenantStats {
    int64_t offered = 0;            ///< arrivals (all outcomes)
    int64_t ok = 0;                 ///< completed successfully
    int64_t rejected = 0;           ///< admission-rejected (never dispatched)
    int64_t deadline_exceeded = 0;  ///< gave up past the deadline budget
    int64_t failed = 0;             ///< any other terminal error
    int64_t slo_met = 0;            ///< ok AND within the latency SLO
    LatencyHistogram latency;       ///< arrival→completion, admitted only
  };
  std::map<std::string, TenantStats> tenant_stats() const;

  // -- Aggregate accessors (totals over all peers) ------------------------
  int64_t requests() const;
  int64_t failures() const;
  int64_t retries() const;
  int64_t timeouts() const;
  int64_t bytes_sent() const;
  int64_t bytes_received() const;
  int64_t backoff_micros() const;
  int64_t injected_faults() const;
  int64_t server_requests() const;
  int64_t server_calls() const;
  int64_t server_faults() const;
  int64_t conn_reuse_hits() const;
  int64_t conn_dials() const;
  int64_t conn_expired() const;
  int64_t conn_stale_retries() const;
  int64_t pool_max_idle() const;
  int64_t fanout_groups() const;
  int64_t fanout_destinations() const;
  int64_t dispatch_max_in_flight() const;
  int64_t accept_queue_max_depth() const;
  int64_t server_overloads() const;
  /// Copy of the per-destination fan-out latency histogram.
  LatencyHistogram fanout_latency() const;
  int64_t txn_commit_retries() const;
  int64_t txn_in_doubt() const;
  int64_t txn_recoveries() const;
  int64_t txn_replayed_records() const;
  int64_t txn_recovered_sessions() const;
  int64_t txn_idempotent_replies() const;
  int64_t deadline_client_exceeded() const;
  int64_t deadline_server_rejects() const;
  int64_t cancellations() const;
  int64_t sessions_released() const;
  int64_t breaker_opens() const;
  int64_t breaker_half_opens() const;
  int64_t breaker_closes() const;
  int64_t breaker_short_circuits() const;
  int64_t breaker_probe_abandoned() const;
  int64_t failover_attempts() const;
  int64_t failover_successes() const;
  int64_t failover_exhausted() const;
  int64_t stale_catalog_rejects() const;
  int64_t stale_catalog_observed() const;
  int64_t stale_catalog_reroutes() const;
  int64_t route_misses() const;
  int64_t stale_replica_rejects() const;
  int64_t stale_replica_observed() const;
  int64_t stale_replica_skips() const;
  int64_t replica_lag_checks() const;
  int64_t replica_lagging_found() const;
  int64_t replica_max_gap() const;
  int64_t repair_resyncs() const;
  int64_t repair_puls_replayed() const;
  int64_t repair_full_transfers() const;
  int64_t repair_failures() const;

  /// Copy of the latency histogram aggregated over all peers.
  LatencyHistogram latency() const;
  /// Copy of one peer's client-side stats ({} if never seen).
  PeerRpcStats PeerStats(const std::string& peer) const;

  /// Multi-line human-readable dump (totals, histogram, per-peer table);
  /// what the bench binaries print.
  std::string Report() const;

  void Reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, PeerRpcStats> per_peer_;  // client side, by dest URI
  int64_t backoff_micros_ = 0;
  int64_t injected_faults_ = 0;

  struct TxnStats {
    int64_t commit_retries = 0;
    int64_t in_doubt = 0;  ///< gauge, not a counter
    int64_t recoveries = 0;
    int64_t replayed_records = 0;
    int64_t recovered_sessions = 0;
    int64_t idempotent_replies = 0;
  };
  TxnStats txn_;

  struct ConnStats {
    int64_t reuse_hits = 0;
    int64_t dials = 0;
    int64_t expired = 0;
    int64_t stale_retries = 0;
    int64_t pool_max_idle = 0;  ///< gauge maximum, not a counter
  };
  ConnStats conn_;

  struct DispatchStats {
    int64_t fanout_groups = 0;
    int64_t fanout_destinations = 0;
    int64_t max_in_flight = 0;  ///< gauge maximum
    LatencyHistogram fanout_latency;
  };
  DispatchStats dispatch_;

  int64_t accept_queue_max_depth_ = 0;  ///< gauge maximum
  int64_t server_overloads_ = 0;

  struct DeadlineStats {
    int64_t client_exceeded = 0;
    int64_t server_rejects = 0;
    int64_t cancellations = 0;
    int64_t sessions_released = 0;
  };
  DeadlineStats deadline_;

  struct BreakerStats {
    int64_t opens = 0;
    int64_t half_opens = 0;
    int64_t closes = 0;
    int64_t short_circuits = 0;
    int64_t probes_abandoned = 0;
  };
  BreakerStats breaker_;

  struct FailoverStats {
    int64_t attempts = 0;
    int64_t successes = 0;
    int64_t exhausted = 0;
    std::map<std::string, int64_t> per_failed_peer;  ///< by primary URI
  };
  FailoverStats failover_;

  struct StaleCatalogStats {
    int64_t server_rejects = 0;
    int64_t observed = 0;
    int64_t reroutes = 0;
  };
  StaleCatalogStats stale_;

  struct StaleReplicaStats {
    int64_t server_rejects = 0;
    int64_t observed = 0;
    int64_t skips = 0;
  };
  StaleReplicaStats stale_replica_;

  struct RepairStats {
    int64_t lag_checks = 0;
    int64_t lagging_found = 0;
    int64_t max_gap = 0;  ///< gauge maximum
    int64_t resyncs = 0;
    int64_t puls_replayed = 0;
    int64_t full_transfers = 0;
    int64_t failures = 0;
  };
  RepairStats repair_;

  struct RouteStats {
    int64_t misses = 0;
    std::map<std::string, int64_t> per_collection;
  };
  RouteStats route_;

  struct ServerStats {
    int64_t requests = 0;
    int64_t calls = 0;
    int64_t faults = 0;
  };
  std::map<std::string, ServerStats> per_server_;  // server side, by self URI

  std::map<std::string, TenantStats> per_tenant_;  // workload driver, by name
};

}  // namespace xrpc::net

#endif  // XRPC_NET_RPC_METRICS_H_
