#ifndef XRPC_NET_RPC_METRICS_H_
#define XRPC_NET_RPC_METRICS_H_

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

namespace xrpc::net {

/// Log-scale latency histogram: bucket i counts samples in
/// [2^(i-1), 2^i) microseconds (bucket 0: [0, 1) us). The last bucket is
/// open-ended: it holds every sample of at least 2^20 us (~1 s).
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 22;

  void Record(int64_t micros);

  int64_t samples() const { return samples_; }
  int64_t total_micros() const { return total_micros_; }
  int64_t min_micros() const { return samples_ == 0 ? 0 : min_micros_; }
  int64_t max_micros() const { return max_micros_; }
  int64_t bucket(int i) const { return counts_[static_cast<size_t>(i)]; }

  /// Smallest upper bound b such that >= p (in [0,1]) of samples are < b:
  /// the bucket's power-of-two bound, or max_micros() + 1 when the rank
  /// falls in the open-ended last bucket. 0 when empty.
  int64_t PercentileUpperBound(double p) const;

  /// One-line rendering: "n=… mean=…us p50<…us p99<…us max=…us".
  std::string Summary() const;

  void Merge(const LatencyHistogram& other);

 private:
  std::array<int64_t, kBuckets> counts_{};
  int64_t samples_ = 0;
  int64_t total_micros_ = 0;
  int64_t min_micros_ = 0;
  int64_t max_micros_ = 0;
};

/// Every metric the registry holds, in the order of kMetricRows.
enum class Metric : uint8_t {
  kRequests, kFailures, kRetries, kTimeouts, kBytesSent, kBytesReceived,
  kLatency, kBackoffMicros, kInjectedFaults, kServerRequests, kServerCalls,
  kServerFaults, kIndexBuilds, kIndexHits, kIndexSwept, kConnReuseHits,
  kConnDials, kConnExpired, kConnStaleRetries, kPoolMaxIdle, kFanoutGroups,
  kFanoutDestinations, kDispatchMaxInFlight, kFanoutLatency,
  kAcceptQueueMaxDepth, kServerOverloads, kTxnCommitRetries, kTxnInDoubt,
  kTxnRecoveries, kTxnReplayedRecords, kTxnRecoveredSessions,
  kTxnIdempotentReplies, kBreakerOpens, kBreakerHalfOpens, kBreakerCloses,
  kBreakerShortCircuits, kBreakerProbesAbandoned, kFailoverAttempts,
  kFailoverSuccesses, kFailoverExhausted, kStaleCatalogRejects,
  kStaleCatalogObserved, kStaleCatalogReroutes, kStaleReplicaRejects,
  kStaleReplicaObserved, kStaleReplicaSkips, kReplicaLagChecks,
  kReplicaLaggingFound, kReplicaMaxGap, kRepairResyncs, kRepairPulsReplayed,
  kRepairFullTransfers, kRepairFailures, kRouteMisses,
  kDeadlineClientExceeded, kDeadlineServerRejects, kCancellations,
  kSessionsReleased, kTenantOffered, kTenantOk, kTenantRejected,
  kTenantDeadlineExceeded, kTenantFailed, kTenantSloMet, kTenantLatency,
};
inline constexpr size_t kMetricCount =
    static_cast<size_t>(Metric::kTenantLatency) + 1;

/// How Add() folds a value into a cell.
enum class MetricKind : uint8_t {
  kCounter,    ///< adds n
  kGauge,      ///< adds a signed delta, floored at 0
  kMax,        ///< keeps the largest n seen (high-water mark)
  kHistogram,  ///< records n as a latency sample; Get() counts samples
};

/// What a labelled row's cells are keyed by (kNone: one cell).
enum class MetricLabel : uint8_t {
  kNone, kPeer, kServer, kTenant, kFailedPeer, kCollection,
};
inline constexpr size_t kMetricLabelCount =
    static_cast<size_t>(MetricLabel::kCollection) + 1;

/// One descriptor row. Report() prints each run of rows sharing a `group`
/// as one "group: key=value …" line (labelled rows summed over labels),
/// then one "group <label>: …" line per label value.
struct MetricRow {
  Metric metric;
  std::string_view group;
  std::string_view key;
  MetricKind kind;
  MetricLabel label;
  std::string_view help;
};

inline constexpr std::array<MetricRow, kMetricCount> kMetricRows = [] {
  using enum Metric;
  using enum MetricKind;
  using enum MetricLabel;
  return std::array<MetricRow, kMetricCount>{{
    {kRequests, "peer", "requests", kCounter, kPeer, "POST exchanges"},
    {kFailures, "peer", "failures", kCounter, kPeer, "non-OK exchanges"},
    {kRetries, "peer", "retries", kCounter, kPeer, "transient retries"},
    {kTimeouts, "peer", "timeouts", kCounter, kPeer, "replies too late"},
    {kBytesSent, "peer", "bytes_sent", kCounter, kPeer, "request bytes"},
    {kBytesReceived, "peer", "bytes_received", kCounter, kPeer,
     "response bytes"},
    {kLatency, "peer", "latency", kHistogram, kPeer, "wire latency"},
    {kBackoffMicros, "transport", "backoff_us", kCounter, kNone,
     "backoff slept before retries"},
    {kInjectedFaults, "transport", "injected_faults", kCounter, kNone,
     "simulated drops, truncations, forced failures"},
    {kServerRequests, "server", "requests", kCounter, kServer,
     "requests handled"},
    {kServerCalls, "server", "calls", kCounter, kServer, "bulk calls run"},
    {kServerFaults, "server", "faults", kCounter, kServer,
     "requests answered with a SOAP Fault"},
    {kIndexBuilds, "path-index", "builds", kCounter, kServer,
     "path index entries built (either engine)"},
    {kIndexHits, "path-index", "hits", kCounter, kServer,
     "paths answered from a current entry"},
    {kIndexSwept, "path-index", "swept", kCounter, kServer,
     "entries dropped with their document"},
    {kConnReuseHits, "connections", "reuse_hits", kCounter, kNone,
     "keep-alive pool hits"},
    {kConnDials, "connections", "dials", kCounter, kNone, "fresh dials"},
    {kConnExpired, "connections", "expired", kCounter, kNone,
     "idle pooled sockets closed"},
    {kConnStaleRetries, "connections", "stale_retries", kCounter, kNone,
     "broken pooled sockets re-dialed"},
    {kPoolMaxIdle, "connections", "pool_max_idle", kMax, kNone,
     "most idle pooled sockets"},
    {kFanoutGroups, "fanout", "groups", kCounter, kNone,
     "multi-destination Bulk RPC groups"},
    {kFanoutDestinations, "fanout", "destinations", kCounter, kNone,
     "destinations over all groups"},
    {kDispatchMaxInFlight, "fanout", "max_in_flight", kMax, kNone,
     "dispatch pool occupancy peak"},
    {kFanoutLatency, "fanout", "dest_latency", kHistogram, kNone,
     "wire latency of one destination"},
    {kAcceptQueueMaxDepth, "accept-queue", "max_depth", kMax, kNone,
     "deepest server accept queue"},
    {kServerOverloads, "accept-queue", "overload_503", kCounter, kNone,
     "connections refused with 503"},
    {kTxnCommitRetries, "txn", "commit_retries", kCounter, kNone,
     "phase-2 Commits re-sent"},
    {kTxnInDoubt, "txn", "in_doubt", kGauge, kNone,
     "prepared transactions awaiting an outcome"},
    {kTxnRecoveries, "txn", "recoveries", kCounter, kNone, "WAL replays"},
    {kTxnReplayedRecords, "txn", "replayed_records", kCounter, kNone,
     "WAL records read back"},
    {kTxnRecoveredSessions, "txn", "recovered_sessions", kCounter, kNone,
     "in-doubt sessions rebuilt from the WAL"},
    {kTxnIdempotentReplies, "txn", "idempotent_replies", kCounter, kNone,
     "re-deliveries answered from a recorded outcome"},
    {kBreakerOpens, "breaker", "opens", kCounter, kNone, "circuits opened"},
    {kBreakerHalfOpens, "breaker", "half_opens", kCounter, kNone,
     "half-open probes admitted"},
    {kBreakerCloses, "breaker", "closes", kCounter, kNone,
     "circuits closed again"},
    {kBreakerShortCircuits, "breaker", "short_circuits", kCounter, kNone,
     "requests refused by an open circuit"},
    {kBreakerProbesAbandoned, "breaker", "probes_abandoned", kCounter, kNone,
     "probes released without an outcome"},
    {kFailoverAttempts, "failover", "attempts", kCounter, kFailedPeer,
     "reads re-issued to the next replica"},
    {kFailoverSuccesses, "failover", "successes", kCounter, kNone,
     "reads a replica answered"},
    {kFailoverExhausted, "failover", "exhausted", kCounter, kNone,
     "reads that ran out of replicas"},
    {kStaleCatalogRejects, "stale-catalog", "rejects", kCounter, kNone,
     "server epoch-fence rejects"},
    {kStaleCatalogObserved, "stale-catalog", "observed", kCounter, kNone,
     "StaleCatalog faults seen by clients"},
    {kStaleCatalogReroutes, "stale-catalog", "reroutes", kCounter, kNone,
     "shard-map refetches and re-routes"},
    {kStaleReplicaRejects, "stale-replica", "server_rejects", kCounter,
     kNone, "server data-version fence rejects"},
    {kStaleReplicaObserved, "stale-replica", "observed", kCounter, kNone,
     "StaleReplica faults seen by clients"},
    {kStaleReplicaSkips, "stale-replica", "skips", kCounter, kNone,
     "lagging copies skipped by read failover"},
    {kReplicaLagChecks, "replica-lag", "checks", kCounter, kNone,
     "fragment versions checked by repair"},
    {kReplicaLaggingFound, "replica-lag", "lagging_found", kCounter, kNone,
     "lagging fragments found"},
    {kReplicaMaxGap, "replica-lag", "max_gap", kMax, kNone,
     "largest version gap seen"},
    {kRepairResyncs, "repair", "resyncs", kCounter, kNone,
     "lagging fragments brought up to date"},
    {kRepairPulsReplayed, "repair", "puls_replayed", kCounter, kNone,
     "committed PULs replayed from donor WALs"},
    {kRepairFullTransfers, "repair", "full_transfers", kCounter, kNone,
     "fragments caught up by full transfer"},
    {kRepairFailures, "repair", "failed", kCounter, kNone,
     "repairs with every donor exhausted"},
    {kRouteMisses, "route", "key_misses", kCounter, kCollection,
     "partition keys broadcast for want of a route"},
    {kDeadlineClientExceeded, "deadline", "client_exceeded", kCounter, kNone,
     "client budgets exhausted"},
    {kDeadlineServerRejects, "deadline", "server_rejects", kCounter, kNone,
     "requests arriving with no budget left"},
    {kCancellations, "deadline", "cancellations", kCounter, kNone,
     "queries cancelled mid-execution"},
    {kSessionsReleased, "deadline", "sessions_released", kCounter, kNone,
     "snapshots released early by a cancel"},
    {kTenantOffered, "tenant", "offered", kCounter, kTenant, "arrivals"},
    {kTenantOk, "tenant", "ok", kCounter, kTenant, "completed queries"},
    {kTenantRejected, "tenant", "rejected", kCounter, kTenant,
     "admission rejects"},
    {kTenantDeadlineExceeded, "tenant", "deadline_exceeded", kCounter,
     kTenant, "queries past their deadline"},
    {kTenantFailed, "tenant", "failed", kCounter, kTenant, "other errors"},
    {kTenantSloMet, "tenant", "slo_met", kCounter, kTenant,
     "ok within the latency SLO"},
    {kTenantLatency, "slo", "latency", kHistogram, kTenant,
     "arrival-to-completion latency"},
  }};
}();

static_assert([] {
  for (size_t i = 0; i < kMetricCount; ++i) {
    if (static_cast<size_t>(kMetricRows[i].metric) != i) return false;
  }
  return true;
}(), "kMetricRows must list every Metric in enum order");

inline constexpr size_t kHistogramCount = static_cast<size_t>(
    std::count_if(kMetricRows.begin(), kMetricRows.end(), [](const auto& r) {
      return r.kind == MetricKind::kHistogram;
    }));

/// Thread-safe table-driven registry of RPC observability metrics, shared
/// by the transports, RpcClient, XrpcService, repair and the workload
/// driver. Adding a metric = one kMetricRows row plus its call site.
class RpcMetrics {
 public:
  RpcMetrics() = default;
  RpcMetrics(const RpcMetrics&) = delete;
  RpcMetrics& operator=(const RpcMetrics&) = delete;

  /// Folds `n` into the cell of `m` (for `label` on labelled rows) as the
  /// row's kind says.
  void Add(Metric m, int64_t n = 1, std::string_view label = {});
  /// Records a latency sample on a histogram row.
  void Observe(Metric m, int64_t micros, std::string_view label = {}) {
    Add(m, micros, label);
  }
  /// Value of `m` for `label`; an empty label sums over all labels.
  int64_t Get(Metric m, std::string_view label = {}) const;
  /// Copy of a histogram row; an empty label merges all labels.
  LatencyHistogram Histogram(Metric m, std::string_view label = {}) const;

  /// Client side: one POST exchange toward `peer` completed (ok or not).
  void RecordExchange(std::string_view peer, size_t bytes_sent,
                      size_t bytes_received, int64_t latency_micros, bool ok);

  /// Terminal outcome of one tenant query as classified by the workload
  /// driver (src/load).
  enum class TenantOutcome { kOk, kRejected, kDeadlineExceeded, kFailed };
  /// One tenant query finished; rejected queries carry no latency sample
  /// (they never ran).
  void RecordTenantQuery(std::string_view tenant, TenantOutcome outcome,
                         int64_t latency_us, bool slo_met);

  // Named reads kept for the perfbench harness.
  int64_t retries() const { return Get(Metric::kRetries); }
  int64_t failures() const { return Get(Metric::kFailures); }
  int64_t route_misses() const { return Get(Metric::kRouteMisses); }
  int64_t conn_dials() const { return Get(Metric::kConnDials); }
  int64_t conn_reuse_hits() const { return Get(Metric::kConnReuseHits); }

  /// Multi-line dump generated from kMetricRows; what the benches print.
  std::string Report() const;
  void Reset();

 private:
  /// One cell per row; a labelled row's cells live in labelled_.
  struct Cells {
    std::array<int64_t, kMetricCount> value{};  ///< samples, on histograms
    std::array<LatencyHistogram, kHistogramCount> hist{};

    void Apply(Metric m, int64_t n);
    void Merge(const Cells& other, Metric m);
    const LatencyHistogram& Hist(Metric m) const;
    /// " key=value", or " key: <summary>" on a histogram row.
    std::string Render(Metric m) const;
  };
  using LabelMap = std::map<std::string, Cells, std::less<>>;

  Cells& CellsFor(Metric m, std::string_view label);
  /// Rows [first, last) of `label`'s cells, or summed over all labels
  /// when `label` is empty.
  Cells SelectLocked(std::string_view label, size_t first = 0,
                     size_t last = kMetricCount) const;

  mutable std::mutex mu_;
  Cells unlabelled_;
  std::array<LabelMap, kMetricLabelCount> labelled_;  // by MetricLabel
};

}  // namespace xrpc::net

#endif  // XRPC_NET_RPC_METRICS_H_
