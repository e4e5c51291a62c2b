#include "net/retrying_transport.h"

#include <algorithm>
#include <cmath>

#include "base/string_util.h"
#include "net/uri.h"

namespace xrpc::net {

bool RetryingTransport::IsUpdatingEnvelope(const std::string& body) {
  // The SOAP codec emits the XQUF marker as an attribute of xrpc:request;
  // both quote styles are accepted on the wire.
  return body.find("updCall=\"true\"") != std::string::npos ||
         body.find("updCall='true'") != std::string::npos;
}

std::optional<int64_t> RetryingTransport::ExtractDeadlineMicros(
    const std::string& body) {
  // Cheap substring sniff of the serialized envelope, mirroring
  // IsUpdatingEnvelope: the transport must not pay for a full XML parse on
  // every attempt. The authoritative validation lives in ParseRequest.
  size_t tag = body.find("<xrpc:deadline");
  if (tag == std::string::npos) return std::nullopt;
  size_t open_end = body.find('>', tag);
  if (open_end == std::string::npos) return std::nullopt;
  size_t close = body.find('<', open_end + 1);
  if (close == std::string::npos) return std::nullopt;
  auto value = ParseInt64(body.substr(open_end + 1, close - open_end - 1));
  if (!value.ok() || *value < 0) return std::nullopt;
  return *value;
}

int64_t RetryingTransport::BackoffMicros(int retry) {
  double base = static_cast<double>(policy_.initial_backoff_us) *
                std::pow(policy_.backoff_multiplier, retry - 1);
  base = std::min(base, static_cast<double>(policy_.max_backoff_us));
  if (policy_.jitter_fraction > 0) {
    double draw;
    {
      std::lock_guard<std::mutex> lock(prng_mu_);
      draw = prng_.NextDouble();
    }
    base *= 1.0 + policy_.jitter_fraction * (2.0 * draw - 1.0);
  }
  return std::max<int64_t>(0, static_cast<int64_t>(base));
}

StatusOr<PostResult> RetryingTransport::PostWithRetries(
    const std::string& dest_uri, const std::string& body, int* retries) {
  *retries = 0;
  const bool updating = IsUpdatingEnvelope(body);
  // Breaker state and metric rows belong to the destination peer, whatever
  // endpoint path (XRPC or WS-AT) the envelope addresses.
  const std::string peer = PeerUri(dest_uri);
  const std::optional<int64_t> budget = ExtractDeadlineMicros(body);
  const int max_attempts = std::max(1, policy_.max_attempts);
  // Backoff waits are part of the exchange's wire-level elapsed time; they
  // are accumulated into the returned network_micros so that critical-path
  // accounting (Table 4) sees the true cost of a flaky link.
  int64_t backoff_total = 0;
  // Budget accounting: spent_modeled sums the modeled wire time of failed
  // attempts plus backoffs. Inside a virtual-time parallel group the
  // simulated clock is frozen per-Post, so the injected now() alone would
  // under-count; on a real transport spent_modeled alone would miss local
  // processing time. The spend is the max of both views.
  int64_t spent_modeled = 0;
  const int64_t start_us = (budget.has_value() && now_) ? now_() : 0;
  auto spent_us = [&]() -> int64_t {
    int64_t spent = spent_modeled;
    if (now_) spent = std::max(spent, now_() - start_us);
    return spent;
  };
  Status last_error = Status::NetworkError("no attempt made");

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    // Per-attempt timeout: the policy deadline capped by what is left of
    // the end-to-end budget. Across all attempts the budget is never
    // exceeded, and exhaustion is final (kDeadlineExceeded, not retried).
    // This check MUST precede breaker_->Allow(): every caller Allow()
    // admits is committed to reporting an outcome, and an early return
    // here after being admitted as the half-open probe would leave the
    // probe slot occupied forever, permanently short-circuiting the peer.
    int64_t effective_timeout_us = policy_.request_timeout_us;
    bool budget_bound = false;
    if (budget.has_value()) {
      const int64_t remaining = *budget - spent_us();
      if (remaining <= 0) {
        if (metrics_) metrics_->Add(Metric::kDeadlineClientExceeded);
        return Status::DeadlineExceeded(
            "budget of " + std::to_string(*budget) + "us toward " + dest_uri +
            " exhausted after " + std::to_string(spent_us()) + "us");
      }
      if (effective_timeout_us <= 0 || remaining < effective_timeout_us) {
        effective_timeout_us = remaining;
        budget_bound = true;
      }
    }

    if (breaker_ != nullptr && !breaker_->Allow(peer)) {
      // Open circuit: fail locally, no dial. (Allow() already counted the
      // short circuit.) Distinct from a transport failure so callers can
      // tell "refused locally" from "tried and failed".
      last_error =
          Status::NetworkError("circuit open: refusing to dial " + dest_uri);
      break;
    }

    auto result = inner_->Post(dest_uri, body);
    *retries = attempt - 1;

    bool timed_out = false;
    if (result.ok() && effective_timeout_us > 0 &&
        result->network_micros > effective_timeout_us) {
      // The reply arrived past the deadline: the caller has already given
      // up on this attempt, so the reply is discarded (its content must not
      // be used — that would resurrect an abandoned request).
      timed_out = true;
      spent_modeled += result->network_micros;
      if (metrics_) metrics_->Add(Metric::kTimeouts, 1, peer);
      std::string msg = "request timed out after " +
                        std::to_string(result->network_micros) +
                        "us (deadline " +
                        std::to_string(effective_timeout_us) + "us)";
      if (budget_bound) {
        if (metrics_) metrics_->Add(Metric::kDeadlineClientExceeded);
        result = Status::DeadlineExceeded(std::move(msg));
      } else {
        result = Status::NetworkError(std::move(msg));
      }
    }

    if (result.ok()) {
      if (breaker_ != nullptr) breaker_->RecordSuccess(peer);
      result->network_micros += backoff_total;
      if (metrics_) {
        metrics_->RecordExchange(peer, body.size(), result->body.size(),
                                 result->network_micros, /*ok=*/true);
      }
      return result;
    }

    last_error = result.status();
    if (metrics_) {
      metrics_->RecordExchange(peer, body.size(), 0, 0, /*ok=*/false);
    }
    if (breaker_ != nullptr) {
      // Transport failures and timeout-abandoned replies age the breaker;
      // any other terminal status means the peer answered (a SOAP Fault is
      // an alive peer), which resets its consecutive-failure streak.
      if (timed_out || last_error.code() == StatusCode::kNetworkError) {
        breaker_->RecordFailure(peer);
      } else {
        breaker_->RecordSuccess(peer);
      }
    }

    // Only transport-level failures are transient; and an updating envelope
    // is never retransmitted once it may have reached the destination
    // (at-most-once, Section 4.4).
    if (last_error.code() != StatusCode::kNetworkError || updating ||
        attempt == max_attempts) {
      break;
    }

    int64_t backoff = BackoffMicros(attempt);
    if (budget.has_value() && spent_us() + backoff >= *budget) {
      // The backoff wait alone would cross the deadline: give up now
      // rather than sleep past it and fail on the next loop iteration.
      if (metrics_) metrics_->Add(Metric::kDeadlineClientExceeded);
      return Status::DeadlineExceeded(
          "budget of " + std::to_string(*budget) + "us toward " + dest_uri +
          " exhausted after " + std::to_string(spent_us()) +
          "us (next backoff " + std::to_string(backoff) + "us)");
    }
    backoff_total += backoff;
    spent_modeled += backoff;
    if (metrics_) {
      metrics_->Add(Metric::kRetries, 1, peer);
      metrics_->Add(Metric::kBackoffMicros, backoff);
    }
    if (sleep_) sleep_(backoff);
  }
  return last_error;
}

}  // namespace xrpc::net
