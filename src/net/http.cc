#include "net/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

#include "base/clock.h"
#include "base/string_util.h"
#include "net/retrying_transport.h"
#include "net/uri.h"

namespace xrpc::net {

namespace {

constexpr char kClosedBeforeMessage[] = "connection closed before message";

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

// Parses start line + header lines out of buf[0, header_end). Strict:
// every header line needs a nonempty name before the colon, and
// Content-Length must be unique and a valid nonnegative integer.
Status ParseHeaderBlock(std::string_view block, HttpMessage* msg,
                        size_t* content_length) {
  bool first = true;
  bool saw_content_length = false;
  size_t pos = 0;
  while (pos < block.size()) {
    size_t eol = block.find("\r\n", pos);
    size_t end = eol == std::string_view::npos ? block.size() : eol;
    std::string_view line = block.substr(pos, end - pos);
    pos = eol == std::string_view::npos ? block.size() : eol + 2;
    if (first) {
      msg->start_line = std::string(line);
      first = false;
      continue;
    }
    if (line.empty()) continue;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0) {
      return Status::InvalidArgument("malformed header line: " +
                                     std::string(line));
    }
    // No trimming of the name: "Content-Length " (trailing space) or a
    // folded name is not the Content-Length header.
    std::string name = ToLower(line.substr(0, colon));
    std::string value(TrimWhitespace(line.substr(colon + 1)));
    if (name == "content-length") {
      if (saw_content_length) {
        return Status::InvalidArgument(
            "duplicate Content-Length header: body boundary is ambiguous");
      }
      saw_content_length = true;
      auto len = ParseInt64(value);
      if (!len.ok() || len.value() < 0) {
        return Status::InvalidArgument("bad Content-Length");
      }
      *content_length = static_cast<size_t>(len.value());
    }
    if (name == "transfer-encoding" && ToLower(value) != "identity") {
      // This server frames bodies by Content-Length only. Acting on the
      // length header while ignoring Transfer-Encoding: chunked would
      // desynchronize framing (a smuggling vector), so the message is
      // refused before any body byte is consumed; the server maps this to
      // 501 Not Implemented.
      return Status::Unsupported("Transfer-Encoding '" + value +
                                 "' not implemented; frame the body with "
                                 "Content-Length");
    }
    msg->headers.emplace_back(std::move(name), std::move(value));
  }
  return Status::OK();
}

Status SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return Status::NetworkError("send timed out");
      }
      return Status::NetworkError("send failed");
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Parses the status code out of "HTTP/1.1 <code> <reason>". Returns -1 on a
// malformed status line. Only the start line is considered, so a " 200 "
// inside the response body cannot masquerade as success.
int ParseStatusCode(const std::string& line) {
  if (line.rfind("HTTP/", 0) != 0) return -1;
  size_t sp = line.find(' ');
  if (sp == std::string::npos) return -1;
  size_t code_end = line.find(' ', sp + 1);
  auto code = ParseInt64(std::string_view(line).substr(
      sp + 1,
      code_end == std::string::npos ? std::string::npos : code_end - sp - 1));
  if (!code.ok() || code.value() < 100 || code.value() > 599) return -1;
  return static_cast<int>(code.value());
}

void SetSocketTimeout(int fd, int64_t timeout_millis) {
  if (timeout_millis <= 0) return;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_millis / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_millis % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void SetRecvTimeout(int fd, int64_t timeout_millis) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_millis / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_millis % 1000) * 1000);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

// Graceful sender-side teardown: signal EOF, then wait (bounded by
// `drain_timeout_millis`) for the peer's own EOF before closing. Closing
// with unread bytes in the receive buffer makes the kernel send RST, which
// can destroy the response we just wrote before the peer reads it — the
// classic lost-last-reply bug.
void GracefulClose(int fd, int64_t drain_timeout_millis) {
  ::shutdown(fd, SHUT_WR);
  SetRecvTimeout(fd, drain_timeout_millis);
  char buf[1024];
  while (::recv(fd, buf, sizeof(buf), 0) > 0) {
  }
  ::close(fd);
}

StatusOr<int> DialHost(const std::string& host, int port,
                       int64_t timeout_millis) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::NetworkError("socket() failed");
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  SetSocketTimeout(fd, timeout_millis);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  std::string ip = (host == "localhost" || host.empty()) ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, ip.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::NetworkError("unresolvable host: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return Status::NetworkError("connect failed: " + host + ":" +
                                std::to_string(port));
  }
  return fd;
}

std::string BuildRequest(const std::string& host, const std::string& path,
                         const std::string& body, bool keep_alive) {
  return "POST /" + PercentEncodePath(path) + " HTTP/1.1\r\nHost: " + host +
         "\r\nContent-Type: application/soap+xml"
         "\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\nConnection: " +
         (keep_alive ? "keep-alive" : "close") + "\r\n\r\n" + body;
}

std::string BuildResponse(const std::string& status_line,
                          const std::string& body, bool keep_alive) {
  return status_line +
         "\r\nContent-Type: application/soap+xml"
         "\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\nConnection: " +
         (keep_alive ? "keep-alive" : "close") + "\r\n\r\n" + body;
}

// Maps a parsed HTTP response to the caller-visible outcome: 2xx body,
// SOAP Fault recognition in 500 bodies, NetworkError otherwise.
StatusOr<std::string> InterpretResponse(const HttpMessage& message) {
  int code = ParseStatusCode(message.start_line);
  if (code < 0) {
    return Status::NetworkError("malformed HTTP status line: " +
                                message.start_line);
  }
  if (code >= 200 && code < 300) return message.body;
  if (code == 500) {
    // The embedded server reports handler errors as Status::ToString() in
    // the 500 body; a SOAP Fault among them is an application-level
    // outcome, not a transport failure, and must not look retryable.
    const std::string& err_body = message.body;
    constexpr std::string_view kFaultPrefix = "SoapFault: ";
    if (err_body.rfind(kFaultPrefix, 0) == 0) {
      return Status::SoapFault(err_body.substr(kFaultPrefix.size()));
    }
    size_t fs = err_body.find("<faultstring>");
    if (fs != std::string::npos) {
      size_t start = fs + 13;
      size_t end = err_body.find("</faultstring>", start);
      if (end != std::string::npos) {
        return Status::SoapFault(err_body.substr(start, end - start));
      }
    }
  }
  return Status::NetworkError("HTTP error: " + message.start_line);
}

bool IsClosedBeforeMessage(const Status& status) {
  return status.code() == StatusCode::kNetworkError &&
         status.message() == kClosedBeforeMessage;
}

}  // namespace

std::string HttpMessage::Header(const std::string& name) const {
  for (const auto& [n, v] : headers) {
    if (n == name) return v;
  }
  return "";
}

bool HttpMessage::WantsClose() const {
  return ToLower(Header("connection")).find("close") != std::string::npos;
}

StatusOr<HttpMessage> ReadHttpMessage(int fd, std::string* carry) {
  std::string buf = std::move(*carry);
  carry->clear();
  size_t header_end = std::string::npos;
  size_t content_length = 0;
  HttpMessage msg;
  char chunk[4096];
  while (true) {
    if (header_end == std::string::npos) {
      header_end = buf.find("\r\n\r\n");
      if (header_end != std::string::npos) {
        XRPC_RETURN_IF_ERROR(ParseHeaderBlock(
            std::string_view(buf).substr(0, header_end), &msg,
            &content_length));
      }
    }
    if (header_end != std::string::npos &&
        buf.size() >= header_end + 4 + content_length) {
      break;
    }
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return Status::NetworkError("recv timed out");
      }
      return Status::NetworkError("recv failed");
    }
    if (n == 0) {
      if (buf.empty()) return Status::NetworkError(kClosedBeforeMessage);
      if (header_end != std::string::npos) {
        return Status::NetworkError(
            "truncated body: got " +
            std::to_string(buf.size() - header_end - 4) + " of " +
            std::to_string(content_length) + " bytes");
      }
      return Status::NetworkError("truncated HTTP message");
    }
    buf.append(chunk, static_cast<size_t>(n));
  }
  msg.body = buf.substr(header_end + 4, content_length);
  *carry = buf.substr(header_end + 4 + content_length);
  return msg;
}

HttpServer::~HttpServer() { Stop(); }

StatusOr<int> HttpServer::Start(int port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) return Status::NetworkError("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    ::close(listen_fd_);
    return Status::NetworkError("bind() failed on port " +
                                std::to_string(port));
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 64) < 0) {
    ::close(listen_fd_);
    return Status::NetworkError("listen() failed");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = false;
  }
  running_ = true;
  int workers = options_.workers > 0 ? options_.workers : 1;
  worker_threads_.reserve(static_cast<size_t>(workers));
  for (int i = 0; i < workers; ++i) {
    worker_threads_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return port_;
}

void HttpServer::Stop() {
  if (!running_.exchange(false)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  ::close(listen_fd_);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // Queued connections never reached a worker: just close them. Active
    // ones are shut down (not closed — the owning worker closes, avoiding
    // an fd-reuse race) which wakes any recv() block immediately.
    for (int fd : queue_) ::close(fd);
    queue_.clear();
    for (int fd : active_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  queue_cv_.notify_all();
  for (std::thread& t : worker_threads_) {
    if (t.joinable()) t.join();
  }
  worker_threads_.clear();
}

void HttpServer::RejectOverload(int fd) {
  overload_rejections_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_) metrics_->Add(Metric::kServerOverloads);
  const std::string body = "server overloaded: accept queue full";
  (void)SendAll(fd,
                BuildResponse("HTTP/1.1 503 Service Unavailable", body,
                              /*keep_alive=*/false));
  GracefulClose(fd, options_.drain_timeout_millis);
}

void HttpServer::AcceptLoop() {
  while (running_) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (!running_) return;
      continue;
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    bool rejected = false;
    size_t depth = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (static_cast<int>(queue_.size()) >= options_.accept_queue_capacity) {
        rejected = true;
      } else {
        queue_.push_back(fd);
        depth = queue_.size();
      }
    }
    if (rejected) {
      RejectOverload(fd);
      continue;
    }
    if (metrics_) {
      metrics_->Add(Metric::kAcceptQueueMaxDepth, static_cast<int64_t>(depth));
    }
    queue_cv_.notify_one();
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping, queue drained by Stop()
      fd = queue_.front();
      queue_.pop_front();
      active_fds_.insert(fd);
    }
    bool graceful = ServeConnection(fd);
    if (graceful) {
      ::shutdown(fd, SHUT_WR);
      SetRecvTimeout(fd, options_.drain_timeout_millis);
      char buf[1024];
      while (::recv(fd, buf, sizeof(buf), 0) > 0) {
      }
    }
    {
      // close under mu_, after deregistering: Stop() only shuts down fds it
      // still finds in active_fds_, so it can never touch a number the
      // kernel has already reassigned.
      std::lock_guard<std::mutex> lock(mu_);
      active_fds_.erase(fd);
      ::close(fd);
    }
  }
}

bool HttpServer::ServeConnection(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  std::string carry;
  bool responded = false;
  int served = 0;
  while (running_) {
    SetRecvTimeout(fd, options_.keep_alive_idle_millis);
    auto message = ReadHttpMessage(fd, &carry);
    if (!message.ok()) {
      const Status& st = message.status();
      // A client that went away between requests (clean close or idle
      // expiry) is normal keep-alive lifecycle: disconnect silently. A
      // half-delivered or malformed request is answered 400.
      if (IsClosedBeforeMessage(st) ||
          st.message().find("timed out") != std::string::npos ||
          st.message() == "recv failed") {
        break;
      }
      // A request the parser understood but refuses to serve (chunked
      // Transfer-Encoding) is answered 501; malformed requests get 400.
      const char* reject_line = st.code() == StatusCode::kUnsupported
                                    ? "HTTP/1.1 501 Not Implemented"
                                    : "HTTP/1.1 400 Bad Request";
      (void)SendAll(fd, BuildResponse(reject_line, st.ToString(),
                                      /*keep_alive=*/false));
      responded = true;
      break;
    }
    ++served;
    requests_served_.fetch_add(1, std::memory_order_relaxed);

    std::string reply_body;
    std::string status_line = "HTTP/1.1 200 OK";
    bool keep = running_ && !message->WantsClose() &&
                !(options_.max_requests_per_connection > 0 &&
                  served >= options_.max_requests_per_connection);
    // Request line: METHOD SP path SP version. A request line without both
    // separators is malformed — answer 400 instead of indexing garbage.
    const std::string& line = message->start_line;
    size_t sp1 = line.find(' ');
    size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      status_line = "HTTP/1.1 400 Bad Request";
      keep = false;
    } else {
      std::string method = line.substr(0, sp1);
      std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
      if (method != "POST") {
        status_line = "HTTP/1.1 405 Method Not Allowed";
      } else {
        if (!path.empty() && path[0] == '/') path = path.substr(1);
        // The wire carries the percent-encoded form; handlers see the
        // decoded path. Malformed escapes are a client error.
        auto decoded = PercentDecode(path);
        if (!decoded.ok()) {
          status_line = "HTTP/1.1 400 Bad Request";
          reply_body = decoded.status().ToString();
        } else {
          auto handled = endpoint_->Handle(decoded.value(), message->body);
          if (handled.ok()) {
            reply_body = std::move(handled).value();
          } else {
            status_line = "HTTP/1.1 500 Internal Server Error";
            reply_body = handled.status().ToString();
          }
        }
      }
    }
    if (!SendAll(fd, BuildResponse(status_line, reply_body, keep)).ok()) {
      break;
    }
    responded = true;
    if (!keep) break;
  }
  return responded;
}

StatusOr<std::string> HttpTransport::Exchange(const XrpcUri& uri,
                                              const std::string& body) {
  const std::string peer_key = uri.PeerKey();
  const bool keep_alive = keep_alive_.load(std::memory_order_relaxed);
  // At most one extra attempt, and only for failures that prove the pooled
  // connection was stale (see class comment) — never after a fresh dial.
  for (int attempt = 0; attempt < 2; ++attempt) {
    int fd = keep_alive ? pool_.Acquire(peer_key) : -1;
    const bool reused = fd >= 0;
    if (!reused) {
      XRPC_ASSIGN_OR_RETURN(fd, DialHost(uri.host, uri.port, timeout_millis_));
    } else {
      SetSocketTimeout(fd, timeout_millis_);
    }

    Status sent = SendAll(fd, BuildRequest(uri.host, uri.path, body,
                                           keep_alive));
    if (!sent.ok()) {
      ::close(fd);
      if (reused) {
        // The request did not fully reach the peer, so it cannot have been
        // executed — re-dialing is safe even for an updating call.
        if (metrics_) metrics_->Add(Metric::kConnStaleRetries);
        continue;
      }
      return sent;
    }

    std::string carry;
    auto message = ReadHttpMessage(fd, &carry);
    if (!message.ok()) {
      ::close(fd);
      if (reused && IsClosedBeforeMessage(message.status()) &&
          !RetryingTransport::IsUpdatingEnvelope(body)) {
        // Zero response bytes: the peer closed the pooled connection while
        // it sat idle. Replaying a read-only request is harmless; an
        // updating one might have been consumed right before the close, so
        // it falls through to the caller (at-most-once).
        if (metrics_) metrics_->Add(Metric::kConnStaleRetries);
        continue;
      }
      return message.status();
    }

    // Pool the socket again only when the exchange left it in a known-clean
    // state: keep-alive granted by the peer and no stray bytes beyond the
    // response (anything in `carry` means framing is off — don't reuse).
    if (keep_alive && carry.empty() && !message->WantsClose()) {
      pool_.Release(peer_key, fd);
    } else {
      ::close(fd);
    }
    return InterpretResponse(*message);
  }
  return Status::NetworkError("stale pooled connection to " + peer_key +
                              ": re-dial failed");
}

StatusOr<PostResult> HttpTransport::Post(const std::string& dest_uri,
                                         const std::string& body) {
  XRPC_ASSIGN_OR_RETURN(XrpcUri uri, ParseXrpcUri(dest_uri));
  StopWatch watch;
  XRPC_ASSIGN_OR_RETURN(std::string reply, Exchange(uri, body));
  PostResult result;
  result.network_micros = watch.ElapsedMicros();
  result.body = std::move(reply);
  return result;
}

StatusOr<std::string> HttpPost(const std::string& host, int port,
                               const std::string& path,
                               const std::string& body,
                               int64_t timeout_millis) {
  XRPC_ASSIGN_OR_RETURN(int fd, DialHost(host, port, timeout_millis));
  Status st = SendAll(fd, BuildRequest(host, path, body,
                                       /*keep_alive=*/false));
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  std::string carry;
  auto message = ReadHttpMessage(fd, &carry);
  ::close(fd);
  XRPC_RETURN_IF_ERROR(message.status());
  return InterpretResponse(*message);
}

}  // namespace xrpc::net
