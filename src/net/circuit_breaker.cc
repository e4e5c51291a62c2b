#include "net/circuit_breaker.h"

namespace xrpc::net {

bool CircuitBreaker::Allow(const std::string& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  PeerState& s = peers_[peer];
  switch (s.state) {
    case State::kClosed:
      return true;
    case State::kOpen: {
      if (now_us_() - s.opened_at_us < policy_.cooldown_us) {
        if (metrics_ != nullptr) metrics_->Add(Metric::kBreakerShortCircuits);
        return false;
      }
      // Cooldown over: this caller becomes the half-open probe.
      s.state = State::kHalfOpen;
      s.probe_in_flight = true;
      if (metrics_ != nullptr) metrics_->Add(Metric::kBreakerHalfOpens);
      return true;
    }
    case State::kHalfOpen: {
      if (s.probe_in_flight) {
        // One probe at a time; everyone else keeps getting refused until
        // the probe's outcome decides the circuit.
        if (metrics_ != nullptr) metrics_->Add(Metric::kBreakerShortCircuits);
        return false;
      }
      s.probe_in_flight = true;
      return true;
    }
  }
  return true;
}

void CircuitBreaker::RecordSuccess(const std::string& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  PeerState& s = peers_[peer];
  if (s.state != State::kClosed && metrics_ != nullptr) {
    metrics_->Add(Metric::kBreakerCloses);
  }
  s = PeerState{};  // closed, zero consecutive failures
}

void CircuitBreaker::RecordFailure(const std::string& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  PeerState& s = peers_[peer];
  switch (s.state) {
    case State::kClosed:
      if (++s.consecutive_failures >= policy_.failure_threshold) {
        s.state = State::kOpen;
        s.opened_at_us = now_us_();
        if (metrics_ != nullptr) metrics_->Add(Metric::kBreakerOpens);
      }
      break;
    case State::kHalfOpen:
      // Failed probe: back to a fresh cooldown.
      s.state = State::kOpen;
      s.opened_at_us = now_us_();
      s.probe_in_flight = false;
      if (metrics_ != nullptr) metrics_->Add(Metric::kBreakerOpens);
      break;
    case State::kOpen:
      // A request admitted before the circuit opened can still fail while
      // open; it carries no new information.
      break;
  }
}

void CircuitBreaker::OnProbeAbandoned(const std::string& peer) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(peer);
  if (it == peers_.end()) return;
  PeerState& s = it->second;
  if (s.state != State::kHalfOpen || !s.probe_in_flight) return;
  // No outcome learned: reopen, but keep the original opened_at so the
  // already-elapsed cooldown is not forfeited and the next Allow() can
  // probe right away.
  s.state = State::kOpen;
  s.probe_in_flight = false;
  if (metrics_ != nullptr) metrics_->Add(Metric::kBreakerProbesAbandoned);
}

CircuitBreaker::State CircuitBreaker::GetState(const std::string& peer) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = peers_.find(peer);
  return it == peers_.end() ? State::kClosed : it->second.state;
}

void CircuitBreaker::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  peers_.clear();
}

}  // namespace xrpc::net
