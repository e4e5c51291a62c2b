#include "net/rpc_metrics.h"

#include <algorithm>
#include <cstdio>

namespace xrpc::net {

namespace {

int BucketFor(int64_t micros) {
  int b = 0;
  int64_t bound = 1;
  while (b < LatencyHistogram::kBuckets - 1 && micros >= bound) {
    bound <<= 1;
    ++b;
  }
  return b;
}

std::string FormatCount(int64_t v) { return std::to_string(v); }

}  // namespace

void LatencyHistogram::Record(int64_t micros) {
  if (micros < 0) micros = 0;
  counts_[static_cast<size_t>(BucketFor(micros))]++;
  if (samples_ == 0 || micros < min_micros_) min_micros_ = micros;
  if (micros > max_micros_) max_micros_ = micros;
  total_micros_ += micros;
  ++samples_;
}

int64_t LatencyHistogram::PercentileUpperBound(double p) const {
  if (samples_ == 0) return 0;
  int64_t rank = static_cast<int64_t>(p * static_cast<double>(samples_));
  if (rank >= samples_) rank = samples_ - 1;
  int64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    seen += counts_[static_cast<size_t>(b)];
    if (seen > rank) return int64_t{1} << b;
  }
  return int64_t{1} << (kBuckets - 1);
}

std::string LatencyHistogram::Summary() const {
  if (samples_ == 0) return "n=0";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%lld mean=%lldus p50<%lldus p99<%lldus max=%lldus",
                static_cast<long long>(samples_),
                static_cast<long long>(total_micros_ / samples_),
                static_cast<long long>(PercentileUpperBound(0.50)),
                static_cast<long long>(PercentileUpperBound(0.99)),
                static_cast<long long>(max_micros_));
  return buf;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int b = 0; b < kBuckets; ++b) {
    counts_[static_cast<size_t>(b)] += other.counts_[static_cast<size_t>(b)];
  }
  if (other.samples_ > 0) {
    if (samples_ == 0 || other.min_micros_ < min_micros_) {
      min_micros_ = other.min_micros_;
    }
    max_micros_ = std::max(max_micros_, other.max_micros_);
  }
  samples_ += other.samples_;
  total_micros_ += other.total_micros_;
}

void LatencyHistogram::Reset() { *this = LatencyHistogram(); }

void PeerRpcStats::Merge(const PeerRpcStats& other) {
  requests += other.requests;
  failures += other.failures;
  retries += other.retries;
  timeouts += other.timeouts;
  bytes_sent += other.bytes_sent;
  bytes_received += other.bytes_received;
  latency.Merge(other.latency);
}

void RpcMetrics::RecordClientRequest(const std::string& peer,
                                     size_t bytes_sent, size_t bytes_received,
                                     int64_t latency_micros, bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  PeerRpcStats& s = per_peer_[peer];
  ++s.requests;
  if (!ok) ++s.failures;
  s.bytes_sent += static_cast<int64_t>(bytes_sent);
  s.bytes_received += static_cast<int64_t>(bytes_received);
  s.latency.Record(latency_micros);
}

void RpcMetrics::RecordRetry(const std::string& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  ++per_peer_[peer].retries;
}

void RpcMetrics::RecordTimeout(const std::string& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  ++per_peer_[peer].timeouts;
}

void RpcMetrics::RecordBackoff(int64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  backoff_micros_ += micros;
}

void RpcMetrics::RecordServerRequest(const std::string& self, int64_t calls,
                                     bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  ServerStats& s = per_server_[self];
  ++s.requests;
  s.calls += calls;
  if (!ok) ++s.faults;
}

void RpcMetrics::RecordInjectedFault() {
  std::lock_guard<std::mutex> lock(mu_);
  ++injected_faults_;
}

void RpcMetrics::RecordConnectionReuse(bool hit) {
  std::lock_guard<std::mutex> lock(mu_);
  if (hit) {
    ++conn_.reuse_hits;
  } else {
    ++conn_.dials;
  }
}

void RpcMetrics::RecordConnectionExpired() {
  std::lock_guard<std::mutex> lock(mu_);
  ++conn_.expired;
}

void RpcMetrics::RecordStaleConnectionRetry() {
  std::lock_guard<std::mutex> lock(mu_);
  ++conn_.stale_retries;
}

void RpcMetrics::RecordPooledConnections(int64_t idle_now) {
  std::lock_guard<std::mutex> lock(mu_);
  conn_.pool_max_idle = std::max(conn_.pool_max_idle, idle_now);
}

void RpcMetrics::RecordDispatchFanout(int64_t destinations,
                                      int64_t max_in_flight) {
  std::lock_guard<std::mutex> lock(mu_);
  ++dispatch_.fanout_groups;
  dispatch_.fanout_destinations += destinations;
  dispatch_.max_in_flight = std::max(dispatch_.max_in_flight, max_in_flight);
}

void RpcMetrics::RecordFanoutDestinationLatency(int64_t micros) {
  std::lock_guard<std::mutex> lock(mu_);
  dispatch_.fanout_latency.Record(micros);
}

void RpcMetrics::RecordAcceptQueueDepth(int64_t depth) {
  std::lock_guard<std::mutex> lock(mu_);
  accept_queue_max_depth_ = std::max(accept_queue_max_depth_, depth);
}

void RpcMetrics::RecordServerOverload() {
  std::lock_guard<std::mutex> lock(mu_);
  ++server_overloads_;
}

void RpcMetrics::RecordTxnCommitRetry() {
  std::lock_guard<std::mutex> lock(mu_);
  ++txn_.commit_retries;
}

void RpcMetrics::RecordTxnInDoubt(int64_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  txn_.in_doubt += delta;
  if (txn_.in_doubt < 0) txn_.in_doubt = 0;
}

void RpcMetrics::RecordTxnRecovery() {
  std::lock_guard<std::mutex> lock(mu_);
  ++txn_.recoveries;
}

void RpcMetrics::RecordTxnReplayedRecords(int64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  txn_.replayed_records += count;
}

void RpcMetrics::RecordTxnRecoveredSession() {
  std::lock_guard<std::mutex> lock(mu_);
  ++txn_.recovered_sessions;
}

void RpcMetrics::RecordTxnIdempotentReply() {
  std::lock_guard<std::mutex> lock(mu_);
  ++txn_.idempotent_replies;
}

void RpcMetrics::RecordDeadlineExceeded(const std::string& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  (void)peer;
  ++deadline_.client_exceeded;
}

void RpcMetrics::RecordServerDeadlineReject(const std::string& self) {
  std::lock_guard<std::mutex> lock(mu_);
  (void)self;
  ++deadline_.server_rejects;
}

void RpcMetrics::RecordCancellation() {
  std::lock_guard<std::mutex> lock(mu_);
  ++deadline_.cancellations;
}

void RpcMetrics::RecordSessionReleased() {
  std::lock_guard<std::mutex> lock(mu_);
  ++deadline_.sessions_released;
}

void RpcMetrics::RecordBreakerOpen() {
  std::lock_guard<std::mutex> lock(mu_);
  ++breaker_.opens;
}

void RpcMetrics::RecordBreakerHalfOpen() {
  std::lock_guard<std::mutex> lock(mu_);
  ++breaker_.half_opens;
}

void RpcMetrics::RecordBreakerClose() {
  std::lock_guard<std::mutex> lock(mu_);
  ++breaker_.closes;
}

void RpcMetrics::RecordBreakerShortCircuit(const std::string& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  (void)peer;
  ++breaker_.short_circuits;
}

void RpcMetrics::RecordBreakerProbeAbandoned() {
  std::lock_guard<std::mutex> lock(mu_);
  ++breaker_.probes_abandoned;
}

void RpcMetrics::RecordFailoverAttempt(const std::string& from_peer) {
  std::lock_guard<std::mutex> lock(mu_);
  ++failover_.attempts;
  ++failover_.per_failed_peer[from_peer];
}

void RpcMetrics::RecordFailoverSuccess() {
  std::lock_guard<std::mutex> lock(mu_);
  ++failover_.successes;
}

void RpcMetrics::RecordFailoverExhausted() {
  std::lock_guard<std::mutex> lock(mu_);
  ++failover_.exhausted;
}

void RpcMetrics::RecordStaleCatalogReject(const std::string& self) {
  std::lock_guard<std::mutex> lock(mu_);
  (void)self;
  ++stale_.server_rejects;
}

void RpcMetrics::RecordStaleCatalogObserved() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stale_.observed;
}

void RpcMetrics::RecordStaleCatalogReroute() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stale_.reroutes;
}

void RpcMetrics::RecordRouteMiss(const std::string& collection) {
  std::lock_guard<std::mutex> lock(mu_);
  ++route_.misses;
  ++route_.per_collection[collection];
}

void RpcMetrics::RecordStaleReplicaReject(const std::string& self) {
  std::lock_guard<std::mutex> lock(mu_);
  (void)self;
  ++stale_replica_.server_rejects;
}

void RpcMetrics::RecordStaleReplicaObserved() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stale_replica_.observed;
}

void RpcMetrics::RecordStaleReplicaSkip() {
  std::lock_guard<std::mutex> lock(mu_);
  ++stale_replica_.skips;
}

void RpcMetrics::RecordReplicaLagCheck() {
  std::lock_guard<std::mutex> lock(mu_);
  ++repair_.lag_checks;
}

void RpcMetrics::RecordReplicaLagging(int64_t gap) {
  std::lock_guard<std::mutex> lock(mu_);
  ++repair_.lagging_found;
  if (gap > repair_.max_gap) repair_.max_gap = gap;
}

void RpcMetrics::RecordRepairResync() {
  std::lock_guard<std::mutex> lock(mu_);
  ++repair_.resyncs;
}

void RpcMetrics::RecordRepairPulsReplayed(int64_t count) {
  std::lock_guard<std::mutex> lock(mu_);
  repair_.puls_replayed += count;
}

void RpcMetrics::RecordRepairFullTransfer() {
  std::lock_guard<std::mutex> lock(mu_);
  ++repair_.full_transfers;
}

void RpcMetrics::RecordRepairFailed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++repair_.failures;
}

void RpcMetrics::RecordTenantQuery(const std::string& tenant,
                                   TenantOutcome outcome, int64_t latency_us,
                                   bool slo_met) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantStats& s = per_tenant_[tenant];
  ++s.offered;
  switch (outcome) {
    case TenantOutcome::kOk: ++s.ok; break;
    case TenantOutcome::kRejected: ++s.rejected; break;
    case TenantOutcome::kDeadlineExceeded: ++s.deadline_exceeded; break;
    case TenantOutcome::kFailed: ++s.failed; break;
  }
  if (slo_met) ++s.slo_met;
  if (outcome != TenantOutcome::kRejected) s.latency.Record(latency_us);
}

std::map<std::string, RpcMetrics::TenantStats> RpcMetrics::tenant_stats()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return per_tenant_;
}

#define XRPC_METRICS_SUM(field)                          \
  std::lock_guard<std::mutex> lock(mu_);                 \
  int64_t total = 0;                                     \
  for (const auto& [peer, s] : per_peer_) total += s.field; \
  return total

int64_t RpcMetrics::requests() const { XRPC_METRICS_SUM(requests); }
int64_t RpcMetrics::failures() const { XRPC_METRICS_SUM(failures); }
int64_t RpcMetrics::retries() const { XRPC_METRICS_SUM(retries); }
int64_t RpcMetrics::timeouts() const { XRPC_METRICS_SUM(timeouts); }
int64_t RpcMetrics::bytes_sent() const { XRPC_METRICS_SUM(bytes_sent); }
int64_t RpcMetrics::bytes_received() const { XRPC_METRICS_SUM(bytes_received); }

#undef XRPC_METRICS_SUM

int64_t RpcMetrics::backoff_micros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return backoff_micros_;
}

int64_t RpcMetrics::injected_faults() const {
  std::lock_guard<std::mutex> lock(mu_);
  return injected_faults_;
}

int64_t RpcMetrics::server_requests() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [peer, s] : per_server_) total += s.requests;
  return total;
}

int64_t RpcMetrics::server_calls() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [peer, s] : per_server_) total += s.calls;
  return total;
}

int64_t RpcMetrics::server_faults() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [peer, s] : per_server_) total += s.faults;
  return total;
}

int64_t RpcMetrics::conn_reuse_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conn_.reuse_hits;
}

int64_t RpcMetrics::conn_dials() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conn_.dials;
}

int64_t RpcMetrics::conn_expired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conn_.expired;
}

int64_t RpcMetrics::conn_stale_retries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conn_.stale_retries;
}

int64_t RpcMetrics::pool_max_idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return conn_.pool_max_idle;
}

int64_t RpcMetrics::fanout_groups() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dispatch_.fanout_groups;
}

int64_t RpcMetrics::fanout_destinations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dispatch_.fanout_destinations;
}

int64_t RpcMetrics::dispatch_max_in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dispatch_.max_in_flight;
}

int64_t RpcMetrics::accept_queue_max_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return accept_queue_max_depth_;
}

int64_t RpcMetrics::server_overloads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return server_overloads_;
}

LatencyHistogram RpcMetrics::fanout_latency() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dispatch_.fanout_latency;
}

int64_t RpcMetrics::txn_commit_retries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return txn_.commit_retries;
}

int64_t RpcMetrics::txn_in_doubt() const {
  std::lock_guard<std::mutex> lock(mu_);
  return txn_.in_doubt;
}

int64_t RpcMetrics::txn_recoveries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return txn_.recoveries;
}

int64_t RpcMetrics::txn_replayed_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return txn_.replayed_records;
}

int64_t RpcMetrics::txn_recovered_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return txn_.recovered_sessions;
}

int64_t RpcMetrics::txn_idempotent_replies() const {
  std::lock_guard<std::mutex> lock(mu_);
  return txn_.idempotent_replies;
}

int64_t RpcMetrics::deadline_client_exceeded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return deadline_.client_exceeded;
}

int64_t RpcMetrics::deadline_server_rejects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return deadline_.server_rejects;
}

int64_t RpcMetrics::cancellations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return deadline_.cancellations;
}

int64_t RpcMetrics::sessions_released() const {
  std::lock_guard<std::mutex> lock(mu_);
  return deadline_.sessions_released;
}

int64_t RpcMetrics::breaker_opens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_.opens;
}

int64_t RpcMetrics::breaker_half_opens() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_.half_opens;
}

int64_t RpcMetrics::breaker_closes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_.closes;
}

int64_t RpcMetrics::breaker_short_circuits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_.short_circuits;
}

int64_t RpcMetrics::breaker_probe_abandoned() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_.probes_abandoned;
}

int64_t RpcMetrics::failover_attempts() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failover_.attempts;
}

int64_t RpcMetrics::failover_successes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failover_.successes;
}

int64_t RpcMetrics::failover_exhausted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failover_.exhausted;
}

int64_t RpcMetrics::stale_catalog_rejects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stale_.server_rejects;
}

int64_t RpcMetrics::stale_catalog_observed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stale_.observed;
}

int64_t RpcMetrics::stale_catalog_reroutes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stale_.reroutes;
}

int64_t RpcMetrics::route_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return route_.misses;
}

int64_t RpcMetrics::stale_replica_rejects() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stale_replica_.server_rejects;
}

int64_t RpcMetrics::stale_replica_observed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stale_replica_.observed;
}

int64_t RpcMetrics::stale_replica_skips() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stale_replica_.skips;
}

int64_t RpcMetrics::replica_lag_checks() const {
  std::lock_guard<std::mutex> lock(mu_);
  return repair_.lag_checks;
}

int64_t RpcMetrics::replica_lagging_found() const {
  std::lock_guard<std::mutex> lock(mu_);
  return repair_.lagging_found;
}

int64_t RpcMetrics::replica_max_gap() const {
  std::lock_guard<std::mutex> lock(mu_);
  return repair_.max_gap;
}

int64_t RpcMetrics::repair_resyncs() const {
  std::lock_guard<std::mutex> lock(mu_);
  return repair_.resyncs;
}

int64_t RpcMetrics::repair_puls_replayed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return repair_.puls_replayed;
}

int64_t RpcMetrics::repair_full_transfers() const {
  std::lock_guard<std::mutex> lock(mu_);
  return repair_.full_transfers;
}

int64_t RpcMetrics::repair_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return repair_.failures;
}

LatencyHistogram RpcMetrics::latency() const {
  std::lock_guard<std::mutex> lock(mu_);
  LatencyHistogram merged;
  for (const auto& [peer, s] : per_peer_) merged.Merge(s.latency);
  return merged;
}

PeerRpcStats RpcMetrics::PeerStats(const std::string& peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = per_peer_.find(peer);
  return it == per_peer_.end() ? PeerRpcStats{} : it->second;
}

std::string RpcMetrics::Report() const {
  std::lock_guard<std::mutex> lock(mu_);
  PeerRpcStats total;
  for (const auto& [peer, s] : per_peer_) total.Merge(s);

  std::string out = "RPC metrics\n";
  out += "  requests=" + FormatCount(total.requests) +
         " failures=" + FormatCount(total.failures) +
         " retries=" + FormatCount(total.retries) +
         " timeouts=" + FormatCount(total.timeouts) +
         " injected_faults=" + FormatCount(injected_faults_) + "\n";
  out += "  bytes_sent=" + FormatCount(total.bytes_sent) +
         " bytes_received=" + FormatCount(total.bytes_received) +
         " backoff_us=" + FormatCount(backoff_micros_) + "\n";
  out += "  latency: " + total.latency.Summary() + "\n";
  if (total.latency.samples() > 0) {
    out += "  latency histogram (us):";
    for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
      int64_t c = total.latency.bucket(b);
      if (c == 0) continue;
      out += " [<" + FormatCount(int64_t{1} << b) + "]=" + FormatCount(c);
    }
    out += "\n";
  }
  for (const auto& [peer, s] : per_peer_) {
    out += "  peer " + peer + ": requests=" + FormatCount(s.requests) +
           " failures=" + FormatCount(s.failures) +
           " retries=" + FormatCount(s.retries) +
           " bytes_sent=" + FormatCount(s.bytes_sent) +
           " bytes_received=" + FormatCount(s.bytes_received) + " " +
           s.latency.Summary() + "\n";
  }
  for (const auto& [self, s] : per_server_) {
    out += "  server " + self + ": requests=" + FormatCount(s.requests) +
           " calls=" + FormatCount(s.calls) +
           " faults=" + FormatCount(s.faults) + "\n";
  }
  out += "  connections: reuse_hits=" + FormatCount(conn_.reuse_hits) +
         " dials=" + FormatCount(conn_.dials) +
         " expired=" + FormatCount(conn_.expired) +
         " stale_retries=" + FormatCount(conn_.stale_retries) +
         " pool_max_idle=" + FormatCount(conn_.pool_max_idle) + "\n";
  out += "  fanout: groups=" + FormatCount(dispatch_.fanout_groups) +
         " destinations=" + FormatCount(dispatch_.fanout_destinations) +
         " max_in_flight=" + FormatCount(dispatch_.max_in_flight) +
         " per-dest latency: " + dispatch_.fanout_latency.Summary() + "\n";
  out += "  server accept queue: max_depth=" +
         FormatCount(accept_queue_max_depth_) +
         " overload_503=" + FormatCount(server_overloads_) + "\n";
  out += "  txn: commit_retries=" + FormatCount(txn_.commit_retries) +
         " in_doubt=" + FormatCount(txn_.in_doubt) +
         " recoveries=" + FormatCount(txn_.recoveries) +
         " replayed_records=" + FormatCount(txn_.replayed_records) +
         " recovered_sessions=" + FormatCount(txn_.recovered_sessions) +
         " idempotent_replies=" + FormatCount(txn_.idempotent_replies) + "\n";
  out += "  breaker: opens=" + FormatCount(breaker_.opens) +
         " half_opens=" + FormatCount(breaker_.half_opens) +
         " closes=" + FormatCount(breaker_.closes) +
         " short_circuits=" + FormatCount(breaker_.short_circuits) +
         " probes_abandoned=" + FormatCount(breaker_.probes_abandoned) + "\n";
  out += "  failover: attempts=" + FormatCount(failover_.attempts) +
         " successes=" + FormatCount(failover_.successes) +
         " exhausted=" + FormatCount(failover_.exhausted);
  for (const auto& [peer, n] : failover_.per_failed_peer) {
    out += " from[" + peer + "]=" + FormatCount(n);
  }
  out += "\n";
  out += "  stale-catalog: rejects=" + FormatCount(stale_.server_rejects) +
         " observed=" + FormatCount(stale_.observed) +
         " reroutes=" + FormatCount(stale_.reroutes) + "\n";
  out += "  stale-replica: server_rejects=" +
         FormatCount(stale_replica_.server_rejects) +
         " observed=" + FormatCount(stale_replica_.observed) +
         " skips=" + FormatCount(stale_replica_.skips) + "\n";
  out += "  replica-lag: checks=" + FormatCount(repair_.lag_checks) +
         " lagging_found=" + FormatCount(repair_.lagging_found) +
         " max_gap=" + FormatCount(repair_.max_gap) + "\n";
  out += "  repair: resyncs=" + FormatCount(repair_.resyncs) +
         " puls_replayed=" + FormatCount(repair_.puls_replayed) +
         " full_transfers=" + FormatCount(repair_.full_transfers) +
         " failed=" + FormatCount(repair_.failures) + "\n";
  out += "  route: key_misses=" + FormatCount(route_.misses);
  for (const auto& [collection, n] : route_.per_collection) {
    out += " miss[" + collection + "]=" + FormatCount(n);
  }
  out += "\n";
  out += "  deadline: client_exceeded=" +
         FormatCount(deadline_.client_exceeded) +
         " server_rejects=" + FormatCount(deadline_.server_rejects) +
         " cancellations=" + FormatCount(deadline_.cancellations) +
         " sessions_released=" + FormatCount(deadline_.sessions_released) +
         "\n";
  for (const auto& [tenant, s] : per_tenant_) {
    out += "  tenant " + tenant + ": offered=" + FormatCount(s.offered) +
           " ok=" + FormatCount(s.ok) +
           " rejected=" + FormatCount(s.rejected) +
           " deadline_exceeded=" + FormatCount(s.deadline_exceeded) +
           " failed=" + FormatCount(s.failed) +
           " slo_met=" + FormatCount(s.slo_met) + "\n";
    out += "  slo " + tenant + ": " + s.latency.Summary() + "\n";
  }
  return out;
}

void RpcMetrics::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  per_peer_.clear();
  per_server_.clear();
  per_tenant_.clear();
  backoff_micros_ = 0;
  injected_faults_ = 0;
  txn_ = TxnStats{};
  conn_ = ConnStats{};
  dispatch_ = DispatchStats{};
  accept_queue_max_depth_ = 0;
  server_overloads_ = 0;
  deadline_ = DeadlineStats{};
  breaker_ = BreakerStats{};
  failover_ = FailoverStats{};
  stale_ = StaleCatalogStats{};
  stale_replica_ = StaleReplicaStats{};
  repair_ = RepairStats{};
  route_ = RouteStats{};
}

}  // namespace xrpc::net
