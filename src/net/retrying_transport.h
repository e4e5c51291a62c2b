#ifndef XRPC_NET_RETRYING_TRANSPORT_H_
#define XRPC_NET_RETRYING_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>

#include "base/prng.h"
#include "net/circuit_breaker.h"
#include "net/rpc_metrics.h"
#include "net/transport.h"

namespace xrpc::net {

/// Retry/timeout policy of a RetryingTransport.
///
/// Only transient transport failures (StatusCode::kNetworkError) are ever
/// retried; application-level outcomes (SOAP Faults, isolation errors, ...)
/// are final. Backoff before attempt k (k >= 2) is
///   min(initial_backoff_us * multiplier^(k-2), max_backoff_us)
/// scaled by a deterministic jitter factor in
/// [1 - jitter_fraction, 1 + jitter_fraction] drawn from an injected-seed
/// PRNG, so a fixed seed pins the entire schedule.
struct RetryPolicy {
  int max_attempts = 3;              ///< 1 = no retries
  int64_t initial_backoff_us = 1000; ///< backoff before the first retry
  double backoff_multiplier = 2.0;
  int64_t max_backoff_us = 1'000'000;
  double jitter_fraction = 0.2;      ///< 0 disables jitter
  /// Deadline per attempt, enforced against the transport's modeled wire
  /// time (PostResult::network_micros). 0 disables the check. An attempt
  /// whose reply arrives past the deadline is abandoned: the reply is
  /// discarded and the attempt counts as a (retryable) timeout.
  int64_t request_timeout_us = 0;
};

/// Transport decorator adding per-request timeouts and exponential-backoff
/// retries on transient failures (the dependable-substrate assumption of
/// the paper's Section 4/6 made explicit).
///
/// Delivery semantics:
///  - Read-only envelopes: at-least-once. A transient failure is retried up
///    to max_attempts times; the XRPC request is side-effect-free, so a
///    duplicate delivery is harmless. WS-AT verbs travel the same way:
///    participants answer a duplicate idempotently.
///  - Updating envelopes (updCall="true", Section 4.4): at-most-once. The
///    envelope is NEVER re-sent after its first transmission — a transport
///    failure leaves the delivery status in doubt, and a blind retry could
///    apply the update twice, breaking XQUF/2PC soundness. The failure is
///    surfaced to the caller (who owns the transactional recovery path).
///
/// End-to-end deadline budgets: when the envelope carries an xrpc:deadline
/// header (remaining micros), the whole Post — attempts, timeouts and
/// backoff waits combined — never exceeds that budget. Each attempt's
/// timeout is the smaller of the per-attempt policy timeout and the
/// remaining budget; once the budget is exhausted the Post returns
/// kDeadlineExceeded (which is final, never retried). Elapsed time is the
/// larger of the modeled spend (attempt wire time + backoffs, correct
/// inside virtual-time parallel groups where the clock is frozen) and the
/// injected `now` clock's progress (correct for wall-clock transports).
///
/// Per-peer circuit breaking: with set_circuit_breaker(), a destination
/// whose circuit is open fails instantly without a dial. Circuits and
/// per-peer metric rows are keyed by the destination peer (PeerUri), so a
/// peer's XRPC and WS-AT endpoints share one circuit and one row. Attempt outcomes
/// age the breaker uniformly: transport failures AND timeout-abandoned
/// replies count as failures (a peer that answers too late is as dead as
/// one that never answers), while any response — including a SOAP Fault —
/// proves liveness and closes the circuit.
///
/// Time is fully injectable: `sleep` performs the backoff (default: no-op,
/// correct for the virtual-time simulated network when the caller accounts
/// backoff via metrics; pass a real sleeper for wall-clock transports) and
/// the jitter PRNG is seeded explicitly, so retry schedules are
/// deterministic and unit-testable.
class RetryingTransport : public Transport {
 public:
  using SleepFn = std::function<void(int64_t micros)>;
  using NowFn = std::function<int64_t()>;

  RetryingTransport(Transport* inner, RetryPolicy policy,
                    RpcMetrics* metrics = nullptr, SleepFn sleep = nullptr,
                    uint64_t jitter_seed = 42, NowFn now = nullptr)
      : inner_(inner),
        policy_(policy),
        metrics_(metrics),
        sleep_(std::move(sleep)),
        now_(std::move(now)),
        prng_(jitter_seed) {}

  StatusOr<PostResult> Post(const std::string& dest_uri,
                            const std::string& body) override {
    int retries = 0;
    return PostWithRetries(dest_uri, body, &retries);
  }
  StatusOr<PostResult> PostWithRetries(const std::string& dest_uri,
                                       const std::string& body,
                                       int* retries) override;

  /// Forwarded to the wrapped transport (parallel fan-out bracketing).
  void BeginParallelGroup() override { inner_->BeginParallelGroup(); }
  void EndParallelGroup() override { inner_->EndParallelGroup(); }

  /// Deterministic backoff (with jitter) before retry number `retry`
  /// (1-based). Exposed for tests and for callers modeling virtual time.
  ///
  /// Thread-safe: parallel multi-destination dispatch retries several
  /// destinations concurrently through ONE RetryingTransport, so the jitter
  /// PRNG state is mutex-guarded. Under a fixed seed the drawn jitter
  /// sequence is still exactly the seed's sequence; concurrent callers
  /// consume from it in arrival order.
  int64_t BackoffMicros(int retry);

  const RetryPolicy& policy() const { return policy_; }
  void set_policy(RetryPolicy policy) { policy_ = policy; }

  /// True if `body` is an XRPC envelope carrying an updating call
  /// (updCall="true"), which must not be retransmitted.
  static bool IsUpdatingEnvelope(const std::string& body);

  /// Remaining-budget micros of the envelope's xrpc:deadline header;
  /// nullopt when the envelope carries none (or it is unreadable — the
  /// server-side parser is the validator, not this sniffer).
  static std::optional<int64_t> ExtractDeadlineMicros(const std::string& body);

  /// Attaches a per-peer circuit breaker consulted before every attempt
  /// and fed with every attempt outcome. Not owned; may be null.
  void set_circuit_breaker(CircuitBreaker* breaker) { breaker_ = breaker; }
  CircuitBreaker* circuit_breaker() const { return breaker_; }

 private:
  Transport* inner_;
  RetryPolicy policy_;
  RpcMetrics* metrics_;
  SleepFn sleep_;
  NowFn now_;
  CircuitBreaker* breaker_ = nullptr;
  std::mutex prng_mu_;  ///< guards prng_ under concurrent per-dest retries
  DeterministicPrng prng_;
};

}  // namespace xrpc::net

#endif  // XRPC_NET_RETRYING_TRANSPORT_H_
