#ifndef XRPC_BASE_CANCELLATION_H_
#define XRPC_BASE_CANCELLATION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <mutex>
#include <string>
#include <utility>

#include "base/status.h"

namespace xrpc {

/// Cooperative cancellation signal shared by everything working on one
/// query: the server request handler arms it, both execution engines poll
/// it at evaluation-step boundaries, and nested RPC stamping reads its
/// remaining budget.
///
/// Two trip paths:
///  - explicit: Cancel(status) — e.g. an administrator killing a query, or
///    the request handler propagating a caller's give-up;
///  - deadline: ArmDeadline(deadline_us, now) installs an absolute expiry
///    instant on an injected clock (virtual or steady); the token trips
///    itself with kDeadlineExceeded the first time a poll observes
///    now() >= deadline. Budgets travel the wire as *remaining* micros, so
///    the clock never needs to be synchronized across peers.
///
/// First trip wins; later Cancel() calls are ignored. Thread-safe: polls
/// are an atomic load on the fast path; the slow path (deadline check,
/// status read) takes a mutex. Arming must happen before the token is
/// shared with other threads.
class CancellationToken {
 public:
  using NowFn = std::function<int64_t()>;

  CancellationToken() = default;
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Installs an absolute expiry instant (micros on `now`'s clock). Call
  /// before handing the token to the engines; not thread-safe against
  /// concurrent polls.
  void ArmDeadline(int64_t deadline_us, NowFn now) {
    deadline_us_ = deadline_us;
    now_ = std::move(now);
  }

  /// Trips the token (first caller wins).
  void Cancel(Status status) {
    std::lock_guard<std::mutex> lock(mu_);
    if (tripped_.load(std::memory_order_relaxed)) return;
    status_ = std::move(status);
    tripped_.store(true, std::memory_order_release);
  }

  /// True once tripped (explicitly or by an expired deadline). Polling is
  /// what advances the deadline path: an armed token trips itself here.
  bool cancelled() const {
    if (tripped_.load(std::memory_order_acquire)) return true;
    if (deadline_us_ > 0 && now_ && now_() >= deadline_us_) {
      const_cast<CancellationToken*>(this)->Cancel(Status::DeadlineExceeded(
          "deadline of " + std::to_string(deadline_us_) + "us passed"));
      return true;
    }
    return false;
  }

  /// OK while live; the trip status once cancelled. Engines poll this and
  /// propagate the non-OK status out of their evaluation loop.
  Status CheckCancelled() const {
    if (!cancelled()) return Status::OK();
    std::lock_guard<std::mutex> lock(mu_);
    return status_;
  }

  /// Remaining budget in micros (INT64_MAX when no deadline is armed,
  /// 0 once expired). What nested relocation hops stamp on the wire.
  int64_t RemainingMicros() const {
    if (deadline_us_ <= 0 || !now_) {
      return std::numeric_limits<int64_t>::max();
    }
    int64_t left = deadline_us_ - now_();
    return left > 0 ? left : 0;
  }

  int64_t deadline_us() const { return deadline_us_; }

 private:
  mutable std::mutex mu_;  ///< guards status_
  std::atomic<bool> tripped_{false};
  Status status_;
  int64_t deadline_us_ = 0;  ///< 0 = no deadline armed
  NowFn now_;
};

/// Amortized cancellation polling for tight per-row loops: Tick() consults
/// the token only every `stride` calls, keeping the poll (an atomic load
/// plus, for armed deadlines, a clock read through std::function) off the
/// per-row fast path. Every per-row operator loop ticks a gate.
///
/// Null-token tolerant, so call sites need no guard. Not thread-safe —
/// each loop owns its gate.
class PollGate {
 public:
  explicit PollGate(const CancellationToken* token, uint32_t stride = 256)
      : token_(token), stride_(stride == 0 ? 1 : stride) {}

  /// True once the token tripped (checked every `stride` ticks).
  bool Tick() {
    if (token_ == nullptr) return false;
    if (tripped_) return true;
    if (++count_ % stride_ != 0) return false;
    tripped_ = token_->cancelled();
    return tripped_;
  }

  /// The trip status after Tick() returned true (OK before that).
  Status status() const {
    return token_ == nullptr ? Status::OK() : token_->CheckCancelled();
  }

 private:
  const CancellationToken* token_;
  const uint32_t stride_;
  uint32_t count_ = 0;
  bool tripped_ = false;
};

}  // namespace xrpc

#endif  // XRPC_BASE_CANCELLATION_H_
