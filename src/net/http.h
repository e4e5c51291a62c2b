#ifndef XRPC_NET_HTTP_H_
#define XRPC_NET_HTTP_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "base/statusor.h"
#include "net/connection_pool.h"
#include "net/rpc_metrics.h"
#include "net/transport.h"
#include "net/uri.h"

namespace xrpc::net {

/// One parsed HTTP/1.1 message (request or response): start line, headers
/// (names lower-cased, values whitespace-trimmed, wire order preserved) and
/// the Content-Length-delimited body.
struct HttpMessage {
  std::string start_line;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Value of the first header named `name` (must be given lower-case);
  /// "" when absent.
  std::string Header(const std::string& name) const;

  /// True when the peer asked for the connection to be torn down after this
  /// message (a Connection header containing the "close" token).
  bool WantsClose() const;
};

/// Reads one HTTP/1.1 message from `fd`. `carry` holds bytes received past
/// the end of the previous message on the same connection (keep-alive /
/// pipelining); it is consumed first and refilled with any over-read.
///
/// Header parsing is strict and line-by-line: the Content-Length *name*
/// must match exactly (case-insensitive) — an "X-Content-Length" header is
/// somebody else's header, not a body length — and a duplicated or
/// unparsable Content-Length is rejected as kInvalidArgument (servers
/// answer 400: with two lengths on record the body boundary is ambiguous
/// and request smuggling becomes possible).
///
/// Disconnect taxonomy (all kNetworkError):
///  - "connection closed before message": EOF before the first byte — how a
///    kept-alive connection looks when the peer closed it while idle.
///  - "truncated HTTP message" / "truncated body: got X of Y bytes": EOF
///    mid-headers / mid-body — a real broken exchange.
///  - "recv timed out": the armed SO_RCVTIMEO expired.
StatusOr<HttpMessage> ReadHttpMessage(int fd, std::string* carry);

/// Minimal embedded HTTP/1.1 server (the paper uses the ultra-light SHTTPD
/// daemon; this plays the same role). Accepts POST requests, hands the body
/// to a SoapEndpoint, and replies with the SOAP response body.
///
/// Concurrency model: one accept thread feeds a bounded queue drained by a
/// fixed pool of `workers` connection-serving threads. When the queue is
/// full, new connections are answered "503 Service Unavailable" and closed
/// (admission control) instead of growing an unbounded thread set.
///
/// Connections are persistent (HTTP/1.1 keep-alive): a worker serves
/// requests off one connection until the client sends Connection: close,
/// the idle timeout expires, or the request is malformed. Teardown is
/// graceful — shutdown(SHUT_WR), then drain until the peer's EOF, then
/// close — so the last response is never destroyed by a RST racing unread
/// input.
class HttpServer {
 public:
  struct Options {
    int workers = 8;                 ///< connection-serving threads
    int accept_queue_capacity = 64;  ///< pending connections before 503
    /// recv timeout while waiting for the next request on a kept-alive
    /// connection; an idle client past this is silently disconnected.
    int64_t keep_alive_idle_millis = 5000;
    /// Bound on the post-shutdown drain-for-peer-EOF wait during graceful
    /// connection teardown (both 503 rejections and normal keep-alive
    /// closes). Small keeps worker threads responsive; large tolerates
    /// slow clients still flushing pipelined bytes.
    int64_t drain_timeout_millis = 200;
  };

  explicit HttpServer(SoapEndpoint* endpoint)
      : endpoint_(endpoint), options_(Options()) {}
  HttpServer(SoapEndpoint* endpoint, Options options)
      : endpoint_(endpoint), options_(options) {}
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds and listens on 127.0.0.1:`port` (0 = pick a free port), starts
  /// the worker pool and the accept loop. Returns the bound port.
  StatusOr<int> Start(int port = 0);

  /// Stops accepting, wakes and joins all threads, closes every connection.
  void Stop();

  int port() const { return port_; }
  const Options& options() const { return options_; }

  /// Optional registry receiving accept-queue depth and overload events.
  void set_metrics(RpcMetrics* metrics) { metrics_ = metrics; }

  /// Observability: totals since Start().
  int64_t connections_accepted() const { return connections_accepted_; }
  int64_t requests_served() const { return requests_served_; }
  int64_t overload_rejections() const { return overload_rejections_; }

 private:
  void AcceptLoop();
  void WorkerLoop();
  /// Serves requests off `fd` until the connection ends. Does NOT close the
  /// fd (the worker does, under mu_). Returns true when a response was sent
  /// and the teardown should be graceful (shutdown + drain).
  bool ServeConnection(int fd);
  /// Answers a connection the accept queue cannot hold.
  void RejectOverload(int fd);

  SoapEndpoint* endpoint_;
  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::thread accept_thread_;
  std::vector<std::thread> worker_threads_;

  std::mutex mu_;  ///< guards queue_, active_fds_, stopping_
  std::condition_variable queue_cv_;
  std::deque<int> queue_;      ///< accepted fds awaiting a worker
  std::set<int> active_fds_;   ///< fds currently owned by a worker
  bool stopping_ = false;

  std::atomic<int64_t> connections_accepted_{0};
  std::atomic<int64_t> requests_served_{0};
  std::atomic<int64_t> overload_rejections_{0};
  RpcMetrics* metrics_ = nullptr;
};

/// Transport that POSTs over real loopback/host TCP sockets, with HTTP/1.1
/// keep-alive: completed exchanges park their socket in a per-peer
/// HttpConnectionPool and later Posts reuse it, skipping the TCP handshake
/// (the per-call latency the paper's Table 2 amortises with bulk; pooling
/// removes the per-*message* setup cost on top).
///
/// Stale-connection re-dial rule (composes with RetryingTransport's
/// at-most-once rule for updating calls):
///  - send failed on a reused socket: an incomplete request cannot have
///    been executed, so re-dialing is safe for ANY body, updating included.
///  - zero-byte EOF (no response bytes at all) on a reused socket: the peer
///    closed the idle connection under us. Re-dial only for non-updating
///    bodies — for an updating call the request may have been consumed just
///    before the close, and re-sending could apply the update twice.
///  - any partial response, or any failure on a freshly dialed socket:
///    surfaced to the caller; the retry policy above this layer decides.
class HttpTransport : public Transport {
 public:
  HttpTransport() = default;
  explicit HttpTransport(HttpConnectionPool::Options pool_options)
      : pool_(pool_options) {}

  StatusOr<PostResult> Post(const std::string& dest_uri,
                            const std::string& body) override;

  /// Socket send/receive timeout applied to every exchange (0 = none).
  void set_timeout_millis(int64_t millis) { timeout_millis_ = millis; }
  int64_t timeout_millis() const { return timeout_millis_; }

  /// Keep-alive on/off (default on). Off = Connection: close per request —
  /// the pre-pooling behavior, kept selectable for A/B benchmarks.
  void set_keep_alive(bool on) { keep_alive_ = on; }
  bool keep_alive() const { return keep_alive_; }

  /// Optional registry receiving connection reuse / expiry events.
  void set_metrics(RpcMetrics* metrics) {
    metrics_ = metrics;
    pool_.set_metrics(metrics);
  }

  HttpConnectionPool& pool() { return pool_; }

 private:
  StatusOr<std::string> Exchange(const XrpcUri& uri, const std::string& body);

  int64_t timeout_millis_ = 0;
  std::atomic<bool> keep_alive_{true};
  HttpConnectionPool pool_;
  RpcMetrics* metrics_ = nullptr;
};

/// Low-level helper: POST `body` to host:port/path on a one-shot
/// (Connection: close) socket, return the response body.
/// `timeout_millis` > 0 arms SO_RCVTIMEO/SO_SNDTIMEO on the socket; a
/// stalled peer then yields a NetworkError mentioning "timed out".
StatusOr<std::string> HttpPost(const std::string& host, int port,
                               const std::string& path,
                               const std::string& body,
                               int64_t timeout_millis = 0);

}  // namespace xrpc::net

#endif  // XRPC_NET_HTTP_H_
