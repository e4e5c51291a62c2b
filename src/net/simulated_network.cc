#include "net/simulated_network.h"

#include <algorithm>

#include "base/clock.h"

namespace xrpc::net {

void SimulatedNetwork::RegisterPeer(const XrpcUri& address,
                                    SoapEndpoint* endpoint) {
  std::lock_guard<std::mutex> lock(mu_);
  peers_[address.PeerKey()] = endpoint;
}

void SimulatedNetwork::DisconnectPeer(const XrpcUri& address) {
  std::lock_guard<std::mutex> lock(mu_);
  peers_.erase(address.PeerKey());
}

void SimulatedNetwork::FailNextPost(Status status) {
  std::lock_guard<std::mutex> lock(mu_);
  injected_failures_.push_back(std::move(status));
}

void SimulatedNetwork::set_fault_profile(FaultProfile profile) {
  std::lock_guard<std::mutex> lock(mu_);
  fault_profile_ = profile;
  fault_prng_.Reseed(profile.seed);
  fault_serial_ = 0;
}

void SimulatedNetwork::AdvanceForPostLocked(int64_t cost_us) {
  if (parallel_depth_ > 0) {
    group_max_end_us_ =
        std::max(group_max_end_us_, group_start_us_ + cost_us);
  } else {
    clock_.Advance(cost_us);
  }
}

void SimulatedNetwork::BeginParallelGroup() {
  std::lock_guard<std::mutex> lock(mu_);
  if (parallel_depth_++ == 0) {
    group_start_us_ = clock_.NowMicros();
    group_max_end_us_ = group_start_us_;
  }
}

void SimulatedNetwork::EndParallelGroup() {
  std::lock_guard<std::mutex> lock(mu_);
  if (parallel_depth_ > 0 && --parallel_depth_ == 0) {
    // Backoff sleeps may have advanced the clock past the group's critical
    // path already; never move it backwards.
    int64_t now = clock_.NowMicros();
    if (group_max_end_us_ > now) clock_.Advance(group_max_end_us_ - now);
  }
}

int64_t SimulatedNetwork::faults_injected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_injected_;
}

void SimulatedNetwork::ResetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  messages_ = 0;
  bytes_sent_ = 0;
  bytes_received_ = 0;
  clock_.Reset();
}

StatusOr<PostResult> SimulatedNetwork::Post(const std::string& dest_uri,
                                            const std::string& body) {
  XRPC_ASSIGN_OR_RETURN(XrpcUri uri, ParseXrpcUri(dest_uri));
  if (post_hook_) {
    // The hook runs before mu_ so it may mutate membership (Disconnect /
    // RegisterPeer) and have the change observed by this very Post.
    post_hook_(post_serial_.fetch_add(1, std::memory_order_relaxed) + 1);
  } else {
    post_serial_.fetch_add(1, std::memory_order_relaxed);
  }
  SoapEndpoint* endpoint = nullptr;
  bool truncate_response = false;
  int64_t spike_us = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++fault_serial_;
    auto inject = [this](Status status) {
      ++faults_injected_;
      if (metrics_) metrics_->Add(Metric::kInjectedFaults);
      return status;
    };
    if (!injected_failures_.empty()) {
      Status status = std::move(injected_failures_.front());
      injected_failures_.pop_front();
      return inject(std::move(status));
    }
    const FaultProfile& f = fault_profile_;
    if (f.fail_every_nth > 0 && fault_serial_ % f.fail_every_nth == 0) {
      return inject(Status::NetworkError(
          "injected failure (every " + std::to_string(f.fail_every_nth) +
          "th request)"));
    }
    if (f.drop_probability > 0 &&
        fault_prng_.NextDouble() < f.drop_probability) {
      return inject(Status::NetworkError("injected drop: request lost"));
    }
    truncate_response =
        f.truncate_every_nth > 0 && fault_serial_ % f.truncate_every_nth == 0;
    if (f.latency_spike_every_nth > 0 &&
        fault_serial_ % f.latency_spike_every_nth == 0) {
      spike_us = f.latency_spike_us;
    }
    auto it = peers_.find(uri.PeerKey());
    if (it == peers_.end()) {
      return Status::NetworkError("connection refused: " + uri.PeerKey());
    }
    endpoint = it->second;
  }

  int64_t request_cost = profile_.MessageCost(body.size()) + spike_us;
  StopWatch handler_watch;
  XRPC_ASSIGN_OR_RETURN(std::string reply, endpoint->Handle(uri.path, body));
  int64_t server_micros = handler_watch.ElapsedMicros();

  if (truncate_response) {
    // The request was delivered and handled — any server-side effects have
    // happened — but the response never makes it back. The wire still
    // carried the request.
    std::lock_guard<std::mutex> lock(mu_);
    ++messages_;
    bytes_sent_ += static_cast<int64_t>(body.size());
    AdvanceForPostLocked(request_cost);
    ++faults_injected_;
    if (metrics_) metrics_->Add(Metric::kInjectedFaults);
    return Status::NetworkError("truncated response: reply lost");
  }

  int64_t response_cost = profile_.MessageCost(reply.size());

  PostResult result;
  result.network_micros = request_cost + response_cost;
  result.server_micros = server_micros;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++messages_;
    bytes_sent_ += static_cast<int64_t>(body.size());
    bytes_received_ += static_cast<int64_t>(reply.size());
    AdvanceForPostLocked(result.network_micros);
  }
  result.body = std::move(reply);
  return result;
}

}  // namespace xrpc::net
