#include "server/rpc_client.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <set>
#include <utility>

namespace xrpc::server {

namespace {

// One routing pass of ExecuteRouted: places `calls` into `groups` and
// builds the matching per-group requests into `destinations`. Shard calls
// group per SHARD, not per peer: each group carries an xrpc:shard scope
// pinning the fragment it reads, and a replica peer may hold several
// fragments of one collection, so two shards on one peer need two scoped
// requests.
Status Route(const core::Catalog* catalog, const soap::XrpcRequest& header,
             const std::vector<RpcClient::RoutedCall>& calls,
             std::vector<RpcClient::RoutedGroup>* groups,
             std::vector<RpcClient::Destination>* destinations) {
  std::map<std::string, size_t> group_index;
  // One Snapshot per collection per attempt: routing iterates a COPY of
  // the shard map, immune to concurrent re-registration.
  std::map<std::string, std::pair<core::ShardedCollection, int64_t>>
      snapshots;
  auto place = [&](const std::string& key, const std::string& peer,
                   const std::vector<std::string>& fallbacks,
                   const std::optional<soap::XrpcRequest::ShardScope>& scope,
                   bool echo, size_t call, int rank) {
    auto [it, fresh] = group_index.try_emplace(key, groups->size());
    if (fresh) {
      groups->push_back(RpcClient::RoutedGroup{peer, echo, {}, {}});
      RpcClient::Destination d{peer, header, fallbacks};
      d.request.shard = scope;
      destinations->push_back(std::move(d));
    }
    (*groups)[it->second].slots.push_back({call, rank});
    (*destinations)[it->second].request.calls.push_back(calls[call].args);
  };
  for (size_t i = 0; i < calls.size(); ++i) {
    const std::string& dest = calls[i].dest_uri;
    if (!core::Catalog::IsShardUri(dest)) {
      place(dest, dest, {}, std::nullopt, /*echo=*/false, i, 0);
      continue;
    }
    if (catalog == nullptr) {
      return Status::EvalError("no peer catalog configured for destination " +
                               dest);
    }
    std::string name(core::Catalog::CollectionOf(dest));
    auto snap = snapshots.find(name);
    if (snap == snapshots.end()) {
      core::ShardedCollection copy;
      int64_t version = 0;
      if (!catalog->Snapshot(name, &copy, &version) || copy.shards.empty()) {
        return Status::EvalError("unknown sharded collection: " + dest);
      }
      snap = snapshots.emplace(name, std::make_pair(std::move(copy), version))
                 .first;
    }
    const core::ShardedCollection& collection = snap->second.first;
    const int64_t version = snap->second.second;
    int routed = -1;
    const int key_param = collection.route_param;
    if (key_param >= 0 && key_param < static_cast<int>(calls[i].args.size()) &&
        calls[i].args[key_param].size() == 1) {
      auto r = catalog->RouteKey(
          collection, calls[i].args[key_param][0].Atomize().ToString());
      // An unroutable key (e.g. outside every range) is not an error — the
      // call simply cannot be pruned and broadcasts.
      if (r.ok()) routed = r.value();
    }
    auto place_shard = [&](const core::ShardInfo& s, int rank) {
      soap::XrpcRequest::ShardScope scope{
          collection.name, s.index, version,
          catalog->FragmentDataVersion(collection.name, s.index)};
      const std::string key = dest + "#" + std::to_string(s.index);
      if (header.updating) {
        // All-copies write (DESIGN.md §17): every copy of a touched shard
        // receives the same scoped calls and enlists in the 2PC. No copy
        // gets fallbacks: at-most-once forbids re-issuing an update
        // elsewhere, so a dead or lagging copy aborts the transaction —
        // repair, not failover, heals writes.
        place(key, s.peer_uri, {}, scope, /*echo=*/false, i, rank);
        for (const std::string& replica : s.replicas) {
          place(key + "@" + replica, replica, {}, scope, /*echo=*/true, i,
                rank);
        }
      } else {
        place(key, s.peer_uri, s.replicas, scope, /*echo=*/false, i, rank);
      }
    };
    if (routed >= 0) {
      place_shard(collection.shards[routed], 0);
    } else {
      for (const core::ShardInfo& s : collection.shards) {
        place_shard(s, s.index);
      }
    }
  }
  return Status::OK();
}

}  // namespace

StatusOr<xdm::Sequence> RpcClient::Execute(const xquery::RpcCall& call) {
  soap::XrpcRequest header;
  header.module_ns = call.module_ns;
  header.method = call.function.local;
  header.location = call.module_location;
  header.arity = call.args.size();
  header.updating = call.updating;
  XRPC_ASSIGN_OR_RETURN(std::vector<RoutedGroup> groups,
                        ExecuteRouted(header, {{call.dest_uri, call.args}}));
  // One call: every group answers exactly one sequence, and a broadcast
  // creates its shard groups in shard (= rank) order.
  xdm::Sequence merged;
  for (RoutedGroup& group : groups) {
    if (group.echo) continue;
    for (xdm::Item& item : group.response.results[0]) {
      merged.push_back(std::move(item));
    }
  }
  return merged;
}

StatusOr<std::vector<RpcClient::RoutedGroup>> RpcClient::ExecuteRouted(
    const soap::XrpcRequest& header, const std::vector<RoutedCall>& calls) {
  for (int attempt = 0;; ++attempt) {
    std::vector<RoutedGroup> groups;
    std::vector<Destination> destinations;
    XRPC_RETURN_IF_ERROR(
        Route(options_.catalog, header, calls, &groups, &destinations));
    auto responses = ExecuteBulkAll(std::move(destinations));
    if (!responses.ok()) {
      // The single re-route rule. A StaleCatalog reject happens before the
      // rejecting peer executes anything, so a read re-routes once from a
      // fresh Snapshot. An updating call never does: the peers that
      // admitted the first attempt staged it into their isolation session,
      // and a re-route would stage (and later commit) it twice. Its query
      // aborts instead; presumed abort expires the staged sessions.
      if (responses.status().code() == StatusCode::kStaleCatalog &&
          attempt == 0 && !header.updating) {
        if (net::RpcMetrics* m = options_.metrics) {
          m->Add(net::Metric::kStaleCatalogReroutes);
        }
        continue;
      }
      return responses.status();
    }
    for (size_t g = 0; g < groups.size(); ++g) {
      groups[g].response = std::move((*responses)[g]);
    }
    return groups;
  }
}

StatusOr<soap::XrpcResponse> RpcClient::ExecuteBulk(
    const std::string& dest_uri, soap::XrpcRequest request) {
  ExchangeStats stats;
  auto response = ExchangeOnce(dest_uri, std::move(request), &stats);
  MergeStats(stats, stats.network_micros);
  return response;
}

StatusOr<soap::XrpcResponse> RpcClient::ExchangeWithFailover(
    const Destination& dest, ExchangeStats* stats) const {
  auto result = ExchangeOnce(dest.dest_uri, dest.request, stats);
  if (result.ok()) return result;
  net::RpcMetrics* m = options_.metrics;
  if (result.status().code() == StatusCode::kStaleCatalog) {
    // The peer fenced us off: every replica shares the catalog, so trying
    // the next one would be rejected identically. Surface the fault so
    // ExecuteRouted refetches the shard map and re-routes.
    if (m != nullptr) m->Add(net::Metric::kStaleCatalogObserved);
    return result;
  }
  if (result.status().code() == StatusCode::kStaleReplica && m != nullptr) {
    // A lagging copy fenced this call (DESIGN.md §17): its applied data
    // version trails what the catalog promised. Unlike StaleCatalog, the
    // other copies are not implicated — a read can skip to the next one.
    m->Add(net::Metric::kStaleReplicaObserved);
  }
  if (dest.fallback_uris.empty()) return result;
  if (dest.request.updating) {
    // At-most-once: an updating envelope may have reached (and changed)
    // the primary even though no answer came back; re-issuing it to a
    // replica could apply the update twice. The subcall fails instead.
    return result;
  }
  const std::string* failed_at = &dest.dest_uri;
  for (const std::string& replica : dest.fallback_uris) {
    // Only two failures are worth a replica: a transport-level loss (dial
    // refusal, abandoned timeout, breaker-open local refusal) or a
    // StaleReplica fence (that one copy lags; another may be current).
    // Budget exhaustion (kDeadlineExceeded) is final — there is no time
    // left to spend on another candidate — and any other answered fault
    // means the shard itself (not the peer) is the problem.
    const StatusCode code = result.status().code();
    if (code == StatusCode::kStaleReplica) {
      if (m != nullptr) m->Add(net::Metric::kStaleReplicaSkips);
    } else if (code == StatusCode::kNetworkError) {
      if (m != nullptr) m->Add(net::Metric::kFailoverAttempts, 1, *failed_at);
    } else {
      return result;
    }
    result = ExchangeOnce(replica, dest.request, stats);
    if (result.ok()) {
      if (m != nullptr) m->Add(net::Metric::kFailoverSuccesses);
      return result;
    }
    if (result.status().code() == StatusCode::kStaleCatalog) {
      if (m != nullptr) m->Add(net::Metric::kStaleCatalogObserved);
      return result;
    }
    if (result.status().code() == StatusCode::kStaleReplica &&
        m != nullptr) {
      m->Add(net::Metric::kStaleReplicaObserved);
    }
    failed_at = &replica;
  }
  if (m != nullptr) m->Add(net::Metric::kFailoverExhausted);
  return result;
}

StatusOr<std::vector<soap::XrpcResponse>> RpcClient::ExecuteBulkAll(
    std::vector<Destination> destinations) {
  const size_t n = destinations.size();
  if (n == 0) return std::vector<soap::XrpcResponse>{};
  if (n == 1) {
    // A one-destination "group" has no fan-out to bracket; keep the plain
    // single-exchange path (and its clock semantics) byte-identical.
    ExchangeStats stats;
    auto response = ExchangeWithFailover(destinations[0], &stats);
    MergeStats(stats, stats.network_micros);
    if (!response.ok()) return response.status();
    std::vector<soap::XrpcResponse> responses;
    responses.push_back(std::move(response).value());
    return responses;
  }

  std::vector<ExchangeStats> stats(n);
  std::vector<std::optional<StatusOr<soap::XrpcResponse>>> results(n);
  net::ThreadPool* pool = options_.dispatch_pool;
  {
    // Bracket the fan-out so virtual-time transports charge the group its
    // critical path (max over destinations), agreeing with the wall-clock
    // shape of the physically parallel path below.
    net::ParallelGroupScope group(transport_);
    if (pool != nullptr) {
      std::mutex done_mu;
      std::condition_variable done_cv;
      size_t done = 0;
      for (size_t i = 0; i < n; ++i) {
        pool->Submit([this, i, &destinations, &results, &stats, &done_mu,
                      &done_cv, &done] {
          results[i] = ExchangeWithFailover(destinations[i], &stats[i]);
          std::lock_guard<std::mutex> lock(done_mu);
          ++done;
          done_cv.notify_one();
        });
      }
      std::unique_lock<std::mutex> lock(done_mu);
      done_cv.wait(lock, [&] { return done == n; });
    } else {
      // Serial dispatch (default): deterministic — the simulated network's
      // fault schedule sees destinations in a fixed order. Every
      // destination is still attempted even after a failure.
      for (size_t i = 0; i < n; ++i) {
        results[i] = ExchangeWithFailover(destinations[i], &stats[i]);
      }
    }
  }

  // The group's modeled elapsed time is its critical path: the slowest
  // destination, successful or not (a failed exchange still occupied the
  // wire for whatever it accumulated before failing).
  int64_t critical_path = 0;
  ExchangeStats merged;
  for (size_t i = 0; i < n; ++i) {
    critical_path = std::max(critical_path, stats[i].network_micros);
    merged.remote_micros += stats[i].remote_micros;
    merged.requests_sent += stats[i].requests_sent;
    merged.sent_updating = merged.sent_updating || stats[i].sent_updating;
    merged.peers.insert(merged.peers.end(), stats[i].peers.begin(),
                        stats[i].peers.end());
  }
  MergeStats(merged, critical_path);

  if (net::RpcMetrics* m = options_.metrics) {
    int64_t max_in_flight =
        pool != nullptr
            ? static_cast<int64_t>(std::min(n, static_cast<size_t>(
                                                   std::max(1, pool->size()))))
            : 1;
    m->Add(net::Metric::kFanoutGroups);
    m->Add(net::Metric::kFanoutDestinations, static_cast<int64_t>(n));
    m->Add(net::Metric::kDispatchMaxInFlight, max_in_flight);
    for (size_t i = 0; i < n; ++i) {
      m->Observe(net::Metric::kFanoutLatency, stats[i].network_micros);
    }
  }

  // results[i] corresponds to destinations[i] regardless of completion
  // order; the lowest-indexed failure (not the first to *finish* failing)
  // is the one reported.
  std::vector<soap::XrpcResponse> responses;
  responses.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!results[i]->ok()) return results[i]->status();
    responses.push_back(std::move(*results[i]).value());
  }
  return responses;
}

StatusOr<soap::XrpcResponse> RpcClient::ExchangeOnce(
    const std::string& dest_uri, soap::XrpcRequest request,
    ExchangeStats* stats) const {
  // The "simple query" shortcut (Section 3.2) elides the queryID for reads
  // that send at most one request per peer — but an updating request must
  // always carry it: the receiving peer stages the PUL in a session keyed
  // by the queryID, which the 2PC Prepare/Commit then addresses.
  if (options_.isolation == IsolationLevel::kRepeatable &&
      (!options_.simple_query || request.updating)) {
    if (!options_.query_id.has_value()) {
      return Status::Internal("repeatable isolation requires a queryID");
    }
    request.query_id = options_.query_id;
  }
  if (options_.deadline_us > 0 && options_.now_us) {
    // Stamp the envelope with the budget REMAINING at send time. The
    // receiver sees a relative figure, so clock domains never need to
    // agree; each hop only promises "you have this much left".
    const int64_t remaining = options_.deadline_us - options_.now_us();
    if (remaining <= 0) {
      return Status::DeadlineExceeded(
          "query deadline passed before dispatch toward " + dest_uri);
    }
    request.deadline_us = remaining;
  }
  if (request.updating) stats->sent_updating = true;
  size_t call_count = request.calls.size();
  std::string body = soap::SerializeRequest(request);
  auto posted_or = transport_->Post(dest_uri, body);
  if (!posted_or.ok()) return posted_or.status();
  net::PostResult posted = std::move(posted_or).value();
  stats->network_micros += posted.network_micros;
  stats->remote_micros += posted.server_micros;
  ++stats->requests_sent;
  XRPC_ASSIGN_OR_RETURN(soap::XrpcResponse response,
                        soap::ParseResponse(posted.body));
  if (response.results.size() != call_count) {
    return Status::SoapFault(
        "bulk response has " + std::to_string(response.results.size()) +
        " result sequences for " + std::to_string(call_count) + " calls");
  }
  stats->peers.push_back(dest_uri);
  for (const std::string& peer : response.participating_peers) {
    stats->peers.push_back(peer);
  }
  return response;
}

void RpcClient::MergeStats(const ExchangeStats& stats,
                           int64_t network_micros) {
  std::lock_guard<std::mutex> lock(mu_);
  network_micros_ += network_micros;
  remote_micros_ += stats.remote_micros;
  requests_sent_ += stats.requests_sent;
  sent_updating_ = sent_updating_ || stats.sent_updating;
  participating_peers_.insert(stats.peers.begin(), stats.peers.end());
}

int64_t RpcClient::network_micros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return network_micros_;
}

int64_t RpcClient::requests_sent() const {
  std::lock_guard<std::mutex> lock(mu_);
  return requests_sent_;
}

bool RpcClient::sent_updating() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sent_updating_;
}

int64_t RpcClient::remote_micros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return remote_micros_;
}

}  // namespace xrpc::server
