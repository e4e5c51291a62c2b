#ifndef XRPC_BASE_STATUSOR_H_
#define XRPC_BASE_STATUSOR_H_

#include <cassert>
#include <optional>
#include <utility>

#include "base/status.h"

namespace xrpc {

/// A value-or-error carrier: either holds a `T` or a non-OK Status.
///
/// Construction from a value yields an OK StatusOr; construction from a
/// non-OK Status yields an error. Constructing from an OK Status is a
/// programming error (asserted).
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT(runtime/explicit)
    assert(!status_.ok() && "StatusOr constructed from OK Status");
    if (status_.ok()) {
      status_ = Status::Internal("StatusOr constructed from OK Status");
    }
  }
  StatusOr(T value)  // NOLINT(runtime/explicit)
      : status_(Status::OK()), value_(std::move(value)) {}

  StatusOr(const StatusOr&) = default;
  StatusOr& operator=(const StatusOr&) = default;
  StatusOr(StatusOr&&) = default;
  StatusOr& operator=(StatusOr&&) = default;

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }
  /// The value, or `fallback` when this holds an error.
  T value_or(T fallback) && {
    return ok() ? std::move(*value_) : std::move(fallback);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace xrpc

#endif  // XRPC_BASE_STATUSOR_H_
