// In-memory span recorder of the traced benchmark run, plus the SoapEndpoint
// decorators that time calls into the library from outside it.
//
// Nothing here instruments the library: spans are opened around calls into
// its public functions (PeerNetwork::Execute, XrpcService::Handle,
// HttpTransport::Post). A span's parent is the innermost open span on the
// calling thread; a server-side span reached over a real HTTP hop (on an
// HttpServer worker thread) links to the forwarder span of the same message.

#ifndef XRPC_PERFBENCH_TRACE_H_
#define XRPC_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/statusor.h"
#include "net/http.h"
#include "net/transport.h"

namespace xrpc::perfbench {

/// Monotonic microseconds since the first call in this process.
int64_t NowMicros();

struct Span {
  std::string name;  ///< "op", "http.post", "server.handle", "replay.*"
  std::string peer;  ///< peer whose layer the span times ("" for p0-side)
  std::string path;  ///< SOAP endpoint path ("" = xrpc, "wsat" = 2PC)
  int64_t id = 0;
  int64_t parent = -1;  ///< span id, -1 = root
  int64_t op = -1;      ///< op sequence number
  int thread = 0;       ///< small per-run thread number
  int64_t start_us = 0;
  int64_t dur_us = 0;
};

/// One xrpc or wsat message handled while an op was traced, kept so it can
/// be replayed through the SOAP layer after the op's timed window.
struct Capture {
  std::string peer;
  std::string path;
  std::string request;
  std::string response;
  int64_t handle_us = 0;
};

class Tracer {
 public:
  Tracer() = default;
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Spans are recorded only while enabled; ops alternate on and off so one
  /// run measures both traced and untraced latency.
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_release); }
  bool enabled() const { return enabled_.load(std::memory_order_acquire); }
  void set_op(int64_t op) { op_.store(op, std::memory_order_release); }

  /// Opens a span on the calling thread and returns its id.
  int64_t Open(const std::string& name, const std::string& peer,
               const std::string& path);
  /// Closes the innermost open span of the calling thread (which must be
  /// `id`) and returns its duration.
  int64_t Close(int64_t id);

  /// Parent of a span opened on a thread with no open span: the forwarder
  /// sets it around an HTTP post so the server side links across the hop.
  void set_remote_parent(int64_t id) {
    remote_parent_.store(id, std::memory_order_release);
  }

  void AddCapture(Capture capture);
  std::vector<Capture> TakeCaptures();

  std::vector<Span> spans() const;

  /// Writes every span as Chrome trace-event JSON ("X" complete events).
  Status WriteChromeJson(const std::string& path) const;

 private:
  int ThreadNumberLocked();

  std::atomic<bool> enabled_{false};
  std::atomic<int64_t> op_{-1};
  std::atomic<int64_t> remote_parent_{-1};
  mutable std::mutex mu_;  ///< guards everything below
  std::vector<Span> spans_;
  std::vector<Capture> captures_;
  std::map<std::thread::id, int> threads_;
};

/// Decorator timing XrpcService::Handle of one peer: "server.handle" spans
/// plus a Capture of every message it answers while tracing is enabled.
class TimingEndpoint : public net::SoapEndpoint {
 public:
  TimingEndpoint(net::SoapEndpoint* inner, std::string peer, Tracer* tracer)
      : inner_(inner), peer_(std::move(peer)), tracer_(tracer) {}

  StatusOr<std::string> Handle(const std::string& path,
                               const std::string& body) override;

 private:
  net::SoapEndpoint* inner_;
  std::string peer_;
  Tracer* tracer_;
};

/// The simulated network's endpoint for a peer that really listens on a
/// loopback HttpServer: every message is re-posted through one shared
/// keep-alive HttpTransport. With a tracer it records "http.post" spans.
/// With set_fault_every(n > 0), every n-th message is answered with a SOAP
/// Fault instead of being forwarded (self-test sabotage).
class HttpForwarder : public net::SoapEndpoint {
 public:
  HttpForwarder(net::HttpTransport* http, int port, std::string peer,
                Tracer* tracer)
      : http_(http), base_uri_("xrpc://127.0.0.1:" + std::to_string(port)),
        peer_(std::move(peer)), tracer_(tracer) {}

  StatusOr<std::string> Handle(const std::string& path,
                               const std::string& body) override;

  void set_fault_every(int n) { fault_every_ = n; }

 private:
  net::HttpTransport* http_;
  std::string base_uri_;
  std::string peer_;
  Tracer* tracer_;
  int fault_every_ = 0;
  int64_t messages_ = 0;
};

}  // namespace xrpc::perfbench

#endif  // XRPC_PERFBENCH_TRACE_H_
