#ifndef XRPC_NET_TRANSPORT_H_
#define XRPC_NET_TRANSPORT_H_

#include <cstdint>
#include <string>

#include "base/statusor.h"

namespace xrpc::net {

/// Result of an HTTP POST exchange.
struct PostResult {
  std::string body;           ///< response entity body (a SOAP envelope)
  int64_t network_micros = 0; ///< modeled wire time (simulated transports)
  int64_t server_micros = 0;  ///< measured handler time at the destination
};

/// Abstract request/response transport carrying SOAP messages over HTTP
/// POST. Implementations: SimulatedNetwork (in-process, virtual-time cost
/// model) and HttpTransport (real sockets).
class Transport {
 public:
  virtual ~Transport() = default;

  /// POSTs `body` to the peer addressed by `dest_uri` (an xrpc:// URI) and
  /// returns the response body. A non-2xx HTTP status or connectivity
  /// failure yields a kNetworkError status; SOAP Faults travel as ordinary
  /// 200 responses and are decoded by the SOAP layer.
  virtual StatusOr<PostResult> Post(const std::string& dest_uri,
                                    const std::string& body) = 0;

  /// Post that also reports in `*retries` how many re-sends a retrying
  /// decorator made, whether the exchange succeeded or not. A plain
  /// transport makes none.
  virtual StatusOr<PostResult> PostWithRetries(const std::string& dest_uri,
                                               const std::string& body,
                                               int* retries) {
    *retries = 0;
    return Post(dest_uri, body);
  }

  /// Brackets a group of Posts that are LOGICALLY CONCURRENT (one
  /// multi-destination fan-out). Real transports ignore this — genuine
  /// parallelism makes wall-clock time the max over destinations by itself.
  /// Virtual-time transports (SimulatedNetwork) use it to advance their
  /// clock by the maximum per-destination cost instead of the sum, so the
  /// simulated clock agrees with what the real loopback path measures.
  /// Decorators must forward both calls to the wrapped transport.
  virtual void BeginParallelGroup() {}
  virtual void EndParallelGroup() {}
};

/// RAII bracket for Transport::Begin/EndParallelGroup.
class ParallelGroupScope {
 public:
  explicit ParallelGroupScope(Transport* transport) : transport_(transport) {
    transport_->BeginParallelGroup();
  }
  ~ParallelGroupScope() { transport_->EndParallelGroup(); }

  ParallelGroupScope(const ParallelGroupScope&) = delete;
  ParallelGroupScope& operator=(const ParallelGroupScope&) = delete;

 private:
  Transport* transport_;
};

/// Server-side request handler: receives the POSTed SOAP envelope (and the
/// request path) and produces the SOAP reply body.
class SoapEndpoint {
 public:
  virtual ~SoapEndpoint() = default;
  virtual StatusOr<std::string> Handle(const std::string& path,
                                       const std::string& body) = 0;
};

}  // namespace xrpc::net

#endif  // XRPC_NET_TRANSPORT_H_
