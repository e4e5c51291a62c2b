// Tests for the network substrate: xrpc:// URI parsing, the simulated
// network (routing, virtual-time cost model, failure injection) and the
// real HTTP/1.1 loopback transport.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "net/http.h"
#include "net/simulated_network.h"
#include "net/thread_pool.h"
#include "net/uri.h"

namespace xrpc::net {
namespace {

// Sends `raw` verbatim to 127.0.0.1:port and returns everything the peer
// sends back until it closes — for wire-level tests the HttpPost client
// cannot express (malformed request lines etc.).
std::string RawExchange(int port, const std::string& raw) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  size_t sent = 0;
  while (sent < raw.size()) {
    ssize_t n = ::send(fd, raw.data() + sent, raw.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string reply;
  char chunk[4096];
  ssize_t n;
  while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
    reply.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return reply;
}

// One-shot fake HTTP server: accepts a single connection, reads (and
// discards) whatever arrives, answers with the canned `response` bytes and
// closes. Lets tests exercise HttpPost against arbitrary server behavior.
class CannedServer {
 public:
  explicit CannedServer(std::string response)
      : response_(std::move(response)) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    EXPECT_EQ(::listen(listen_fd_, 1), 0);
    thread_ = std::thread([this] {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;
      char buf[4096];
      // Read until the request's blank line so the client finishes sending.
      std::string got;
      while (got.find("\r\n\r\n") == std::string::npos) {
        ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        got.append(buf, static_cast<size_t>(n));
      }
      (void)!::send(fd, response_.data(), response_.size(), 0);
      ::close(fd);
    });
  }

  ~CannedServer() {
    thread_.join();
    ::close(listen_fd_);
  }

  int port() const { return port_; }

 private:
  std::string response_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
};

TEST(Uri, ParsesFullForm) {
  auto uri = ParseXrpcUri("xrpc://y.example.org:6123/some/path");
  ASSERT_TRUE(uri.ok()) << uri.status();
  EXPECT_EQ(uri->host, "y.example.org");
  EXPECT_EQ(uri->port, 6123);
  EXPECT_EQ(uri->path, "some/path");
  EXPECT_EQ(uri->ToString(), "xrpc://y.example.org:6123/some/path");
}

TEST(Uri, DefaultsPortAndPath) {
  auto uri = ParseXrpcUri("xrpc://y.example.org");
  ASSERT_TRUE(uri.ok());
  EXPECT_EQ(uri->port, kDefaultXrpcPort);
  EXPECT_EQ(uri->path, "");
}

TEST(Uri, AcceptsBareHost) {
  // The paper writes execute at {"B"} in Section 5 examples.
  auto uri = ParseXrpcUri("B");
  ASSERT_TRUE(uri.ok());
  EXPECT_EQ(uri->host, "B");
}

TEST(Uri, RejectsJunk) {
  EXPECT_FALSE(ParseXrpcUri("").ok());
  EXPECT_FALSE(ParseXrpcUri("http://other.scheme/").ok());
  EXPECT_FALSE(ParseXrpcUri("xrpc://host:notaport").ok());
  EXPECT_FALSE(ParseXrpcUri("xrpc://host:99999").ok());
  EXPECT_FALSE(ParseXrpcUri("xrpc://").ok());
}

class EchoEndpoint : public SoapEndpoint {
 public:
  StatusOr<std::string> Handle(const std::string& path,
                               const std::string& body) override {
    ++requests;
    last_path = path;
    return "echo:" + body;
  }
  int requests = 0;
  std::string last_path;
};

TEST(SimulatedNetwork, RoutesToRegisteredPeer) {
  SimulatedNetwork net;
  EchoEndpoint peer;
  net.RegisterPeer(ParseXrpcUri("xrpc://y.example.org").value(), &peer);
  auto result = net.Post("xrpc://y.example.org/svc", "hello");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->body, "echo:hello");
  EXPECT_EQ(peer.last_path, "svc");
  EXPECT_EQ(net.messages_sent(), 1);
  EXPECT_EQ(net.bytes_sent(), 5);
}

TEST(SimulatedNetwork, UnknownPeerIsConnectionRefused) {
  SimulatedNetwork net;
  auto result = net.Post("xrpc://nobody", "x");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNetworkError);
}

TEST(SimulatedNetwork, CostModelChargesLatencyAndBandwidth) {
  NetworkProfile profile;
  profile.latency_us = 1000;
  profile.bandwidth_bytes_per_us = 10.0;
  SimulatedNetwork net(profile);
  EchoEndpoint peer;
  net.RegisterPeer(ParseXrpcUri("xrpc://p").value(), &peer);
  std::string body(1000, 'x');  // 100 us of wire time
  auto result = net.Post("xrpc://p", body);
  ASSERT_TRUE(result.ok());
  // request: 1000 + 100; response ("echo:" + 1000 bytes): 1000 + 100.5
  EXPECT_GE(result->network_micros, 2200);
  EXPECT_LE(result->network_micros, 2202);
  EXPECT_EQ(net.clock().NowMicros(), result->network_micros);
}

TEST(SimulatedNetwork, LatencyDominatesSmallMessages) {
  // The premise of Bulk RPC: n messages cost ~n*latency, one bulk message
  // of the same total size costs ~1*latency.
  NetworkProfile profile;
  profile.latency_us = 500;
  SimulatedNetwork net(profile);
  EchoEndpoint peer;
  net.RegisterPeer(ParseXrpcUri("xrpc://p").value(), &peer);
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(net.Post("xrpc://p", "tiny").ok());
  }
  int64_t ten_small = net.clock().NowMicros();
  net.ResetStats();
  ASSERT_TRUE(net.Post("xrpc://p", std::string(40, 'x')).ok());
  int64_t one_bulk = net.clock().NowMicros();
  EXPECT_GT(ten_small, 5 * one_bulk);
}

TEST(SimulatedNetwork, FailureInjection) {
  SimulatedNetwork net;
  EchoEndpoint peer;
  net.RegisterPeer(ParseXrpcUri("xrpc://p").value(), &peer);
  net.FailNextPost(Status::NetworkError("cable cut"));
  auto r1 = net.Post("xrpc://p", "x");
  EXPECT_FALSE(r1.ok());
  auto r2 = net.Post("xrpc://p", "x");  // one-shot: next call succeeds
  EXPECT_TRUE(r2.ok());
}

TEST(SimulatedNetwork, DisconnectPeer) {
  SimulatedNetwork net;
  EchoEndpoint peer;
  XrpcUri uri = ParseXrpcUri("xrpc://p").value();
  net.RegisterPeer(uri, &peer);
  net.DisconnectPeer(uri);
  EXPECT_FALSE(net.Post("xrpc://p", "x").ok());
}

TEST(HttpServer, ServesPostOverLoopback) {
  EchoEndpoint endpoint;
  HttpServer server(&endpoint);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status();
  auto reply = HttpPost("127.0.0.1", port.value(), "the/path", "ping");
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply.value(), "echo:ping");
  EXPECT_EQ(endpoint.last_path, "the/path");
  server.Stop();
}

TEST(HttpServer, HandlesLargeBodies) {
  EchoEndpoint endpoint;
  HttpServer server(&endpoint);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok());
  std::string big(1 << 20, 'z');
  auto reply = HttpPost("127.0.0.1", port.value(), "", big);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply->size(), big.size() + 5);
  server.Stop();
}

TEST(HttpTransport, PostsViaXrpcUri) {
  EchoEndpoint endpoint;
  HttpServer server(&endpoint);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok());
  HttpTransport transport;
  auto result = transport.Post(
      "xrpc://127.0.0.1:" + std::to_string(port.value()) + "/x", "hello");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->body, "echo:hello");
  server.Stop();
}

TEST(HttpTransport, ConnectionRefused) {
  HttpTransport transport;
  // Port 1 on loopback is almost certainly closed.
  auto result = transport.Post("xrpc://127.0.0.1:1/", "x");
  EXPECT_FALSE(result.ok());
}

TEST(HttpServer, MalformedRequestLineAnswers400) {
  EchoEndpoint endpoint;
  HttpServer server(&endpoint);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok());
  // No spaces at all in the request line used to index npos into substr.
  std::string reply = RawExchange(port.value(), "GARBAGE\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.1 400 Bad Request", 0), 0u) << reply;
  // One space only is equally malformed.
  reply = RawExchange(port.value(), "POST /x\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.1 400 Bad Request", 0), 0u) << reply;
  EXPECT_EQ(endpoint.requests, 0);
  server.Stop();
}

TEST(HttpServer, DuplicateContentLengthRejected) {
  // Two Content-Length headers on record make the body boundary ambiguous
  // (the request-smuggling vector); the server must answer 400 without
  // invoking the endpoint, even when the values agree.
  EchoEndpoint endpoint;
  HttpServer server(&endpoint);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok());
  std::string reply = RawExchange(
      port.value(),
      "POST /p HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\n"
      "ping");
  EXPECT_EQ(reply.rfind("HTTP/1.1 400 Bad Request", 0), 0u) << reply;
  EXPECT_NE(reply.find("duplicate Content-Length"), std::string::npos)
      << reply;
  EXPECT_EQ(endpoint.requests, 0);
  server.Stop();
}

TEST(HttpServer, XContentLengthHeaderIsNotContentLength) {
  // The old substring scan matched any header whose *name* merely contained
  // "content-length:" — an X-Content-Length: 999 would have set the body
  // length to 999 and left the server waiting for bytes that never come.
  // Strict line-by-line parsing takes only the exactly-named header.
  EchoEndpoint endpoint;
  HttpServer server(&endpoint);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok());
  std::string reply = RawExchange(
      port.value(),
      "POST /p HTTP/1.1\r\nX-Content-Length: 999\r\nContent-Length: 4\r\n"
      "Connection: close\r\n\r\nping");
  EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK", 0), 0u) << reply;
  EXPECT_NE(reply.find("echo:ping"), std::string::npos) << reply;
  EXPECT_EQ(endpoint.requests, 1);
  server.Stop();
}

TEST(HttpServer, UnparsableContentLengthRejected) {
  EchoEndpoint endpoint;
  HttpServer server(&endpoint);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok());
  std::string reply = RawExchange(
      port.value(),
      "POST /p HTTP/1.1\r\nContent-Length: four\r\n\r\nping");
  EXPECT_EQ(reply.rfind("HTTP/1.1 400 Bad Request", 0), 0u) << reply;
  EXPECT_EQ(endpoint.requests, 0);
  server.Stop();
}

TEST(HttpPost, DuplicateContentLengthInResponseIsAnError) {
  // The client-side reader applies the same strictness to responses.
  CannedServer server(
      "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok");
  auto reply = HttpPost("127.0.0.1", server.port(), "p", "x");
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.status().message().find("duplicate Content-Length"),
            std::string::npos)
      << reply.status();
}

TEST(HttpServer, SurvivesManySequentialConnections) {
  // The accept loop reaps finished worker threads; the worker set must not
  // grow without bound (and Stop must join whatever is left).
  EchoEndpoint endpoint;
  HttpServer server(&endpoint);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok());
  for (int i = 0; i < 50; ++i) {
    auto reply = HttpPost("127.0.0.1", port.value(), "p", "x");
    ASSERT_TRUE(reply.ok()) << reply.status();
  }
  EXPECT_EQ(endpoint.requests, 50);
  server.Stop();
}

TEST(HttpPost, TruncatedBodyIsAnError) {
  // Server promises 100 bytes but closes after 5: the partial buffer must
  // not be handed to the SOAP layer as a complete message.
  CannedServer server(
      "HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\nshort");
  auto reply = HttpPost("127.0.0.1", server.port(), "p", "x");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNetworkError);
  EXPECT_NE(reply.status().message().find("truncated body"),
            std::string::npos);
}

TEST(HttpPost, BodyContaining200DoesNotMaskHttpError) {
  // The old substring check matched " 200 " anywhere in the message; an
  // error body quoting a 200 must still be an error.
  std::string body = "failed while proxying a 200 OK response";
  CannedServer server("HTTP/1.1 502 Bad Gateway\r\nContent-Length: " +
                      std::to_string(body.size()) + "\r\n\r\n" + body);
  auto reply = HttpPost("127.0.0.1", server.port(), "p", "x");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNetworkError);
  EXPECT_NE(reply.status().message().find("502"), std::string::npos);
}

TEST(HttpPost, Accepts204WithoutBody) {
  CannedServer server("HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n");
  auto reply = HttpPost("127.0.0.1", server.port(), "p", "x");
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_EQ(reply.value(), "");
}

TEST(HttpPost, MalformedStatusLineIsAnError) {
  CannedServer server("BANANA\r\nContent-Length: 0\r\n\r\n");
  auto reply = HttpPost("127.0.0.1", server.port(), "p", "x");
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.status().message().find("malformed HTTP status line"),
            std::string::npos);
}

TEST(HttpPost, ServerFaultBodySurfacesAsSoapFault) {
  // A 500 whose body is a serialized SoapFault status is an application
  // outcome, not a transport failure.
  std::string body = "SoapFault: could not load module films";
  CannedServer server("HTTP/1.1 500 Internal Server Error\r\n"
                      "Content-Length: " + std::to_string(body.size()) +
                      "\r\n\r\n" + body);
  auto reply = HttpPost("127.0.0.1", server.port(), "p", "x");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kSoapFault);
  EXPECT_EQ(reply.status().message(), "could not load module films");
}

TEST(HttpPost, FaultstringElementSurfacesAsSoapFault) {
  std::string body =
      "<env:Fault><faultstring>peer exploded</faultstring></env:Fault>";
  CannedServer server("HTTP/1.1 500 Internal Server Error\r\n"
                      "Content-Length: " + std::to_string(body.size()) +
                      "\r\n\r\n" + body);
  auto reply = HttpPost("127.0.0.1", server.port(), "p", "x");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kSoapFault);
  EXPECT_EQ(reply.status().message(), "peer exploded");
}

TEST(HttpPost, GenericServerErrorStaysNetworkError) {
  std::string body = "Internal: invariant violated";
  CannedServer server("HTTP/1.1 500 Internal Server Error\r\n"
                      "Content-Length: " + std::to_string(body.size()) +
                      "\r\n\r\n" + body);
  auto reply = HttpPost("127.0.0.1", server.port(), "p", "x");
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNetworkError);
}

TEST(Uri, PercentDecodeValidEscapes) {
  EXPECT_EQ(PercentDecode("no-escapes").value(), "no-escapes");
  EXPECT_EQ(PercentDecode("").value(), "");
  EXPECT_EQ(PercentDecode("a%20b").value(), "a b");
  EXPECT_EQ(PercentDecode("%41%62%63").value(), "Abc");
  // Hex digits decode case-insensitively.
  EXPECT_EQ(PercentDecode("%2F%2f").value(), "//");
  // "%2541" means the five characters "%41", not "A".
  EXPECT_EQ(PercentDecode("%2541").value(), "%41");
}

TEST(Uri, PercentDecodeRejectsMalformedEscapes) {
  // A '%' not followed by two hex digits used to pass through silently,
  // making encoding ambiguous; now it is a typed parse error.
  EXPECT_FALSE(PercentDecode("%").ok());
  EXPECT_FALSE(PercentDecode("abc%2").ok());
  EXPECT_FALSE(PercentDecode("%GG").ok());
  EXPECT_FALSE(PercentDecode("%2x").ok());
  EXPECT_FALSE(PercentDecode("a%%20b").ok());
}

TEST(Uri, PercentEncodePathRoundTrips) {
  // Unreserved text and pchar extras pass through untouched ...
  EXPECT_EQ(PercentEncodePath("docs/filmDB.xml"), "docs/filmDB.xml");
  EXPECT_EQ(PercentEncodePath("a:b@c,d;e=f"), "a:b@c,d;e=f");
  // ... everything else round-trips through "%XX".
  const std::string nasty = "a b%c?d#e\x7f";
  std::string encoded = PercentEncodePath(nasty);
  EXPECT_EQ(encoded, "a%20b%25c%3Fd%23e%7F");
  EXPECT_EQ(PercentDecode(encoded).value(), nasty);
}

TEST(Uri, ParseDecodesEscapesAndToStringReEncodes) {
  auto uri = ParseXrpcUri("xrpc://B/docs/film%20DB.xml");
  ASSERT_TRUE(uri.ok()) << uri.status();
  EXPECT_EQ(uri->host, "B");
  EXPECT_EQ(uri->path, "docs/film DB.xml");
  EXPECT_EQ(uri->ToString(), "xrpc://B/docs/film%20DB.xml");

  // Malformed escapes anywhere in the URI are parse errors.
  EXPECT_FALSE(ParseXrpcUri("xrpc://B/bad%zzpath").ok());
  EXPECT_FALSE(ParseXrpcUri("xrpc://bad%GGhost/p").ok());
}

TEST(HttpServer, ChunkedTransferEncodingAnswers501) {
  // The server frames bodies by Content-Length only. A chunked request it
  // silently misframed before (treating the chunk stream as a body of
  // length 0 — the request-smuggling shape) must be refused up front with
  // 501 Not Implemented, before any body handling.
  EchoEndpoint endpoint;
  HttpServer server(&endpoint);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok());
  std::string reply = RawExchange(
      port.value(),
      "POST /p HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nping\r\n0\r\n\r\n");
  EXPECT_EQ(reply.rfind("HTTP/1.1 501 Not Implemented", 0), 0u) << reply;
  EXPECT_NE(reply.find("Transfer-Encoding"), std::string::npos) << reply;
  EXPECT_EQ(endpoint.requests, 0);
  server.Stop();
}

TEST(HttpServer, ChunkedBesideContentLengthStillRejected) {
  // Transfer-Encoding wins over Content-Length per RFC 9112 §6.3, so the
  // pair is exactly the smuggling vector: refuse it even though a
  // Content-Length is present.
  EchoEndpoint endpoint;
  HttpServer server(&endpoint);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok());
  std::string reply = RawExchange(
      port.value(),
      "POST /p HTTP/1.1\r\nContent-Length: 4\r\n"
      "Transfer-Encoding: chunked\r\n\r\nping");
  EXPECT_EQ(reply.rfind("HTTP/1.1 501 Not Implemented", 0), 0u) << reply;
  EXPECT_EQ(endpoint.requests, 0);
  server.Stop();
}

TEST(HttpServer, IdentityTransferEncodingStillServed) {
  // "identity" is a no-op coding; the body is still framed by
  // Content-Length and the request goes through.
  EchoEndpoint endpoint;
  HttpServer server(&endpoint);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok());
  std::string reply = RawExchange(
      port.value(),
      "POST /p HTTP/1.1\r\nTransfer-Encoding: identity\r\n"
      "Content-Length: 4\r\nConnection: close\r\n\r\nping");
  EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK", 0), 0u) << reply;
  EXPECT_NE(reply.find("echo:ping"), std::string::npos) << reply;
  EXPECT_EQ(endpoint.requests, 1);
  server.Stop();
}

TEST(HttpServer, RequestPathIsPercentDecodedForTheEndpoint) {
  EchoEndpoint endpoint;
  HttpServer server(&endpoint);
  auto port = server.Start(0);
  ASSERT_TRUE(port.ok());
  std::string reply = RawExchange(
      port.value(),
      "POST /film%20DB.xml HTTP/1.1\r\nContent-Length: 4\r\n"
      "Connection: close\r\n\r\nping");
  EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK", 0), 0u) << reply;
  EXPECT_EQ(endpoint.last_path, "film DB.xml");

  // A malformed escape in the request target is a client error.
  reply = RawExchange(
      port.value(),
      "POST /bad%zz HTTP/1.1\r\nContent-Length: 4\r\n\r\nping");
  EXPECT_EQ(reply.rfind("HTTP/1.1 400 Bad Request", 0), 0u) << reply;
  server.Stop();
}

TEST(ThreadPool, SurvivesThrowingTasksAndRetainsTheException) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.Submit([] { throw std::runtime_error("task boom"); });
  // The pool must keep serving tasks after the throw — if the worker died,
  // a 2-thread pool could not finish 8 more tasks.
  for (int i = 0; i < 8; ++i) {
    pool.Submit([&ran] { ++ran; });
  }
  while (ran.load() < 8) std::this_thread::yield();
  while (pool.uncaught_exceptions() < 1) std::this_thread::yield();
  EXPECT_EQ(pool.uncaught_exceptions(), 1);
  std::exception_ptr ep = pool.TakeUncaughtException();
  ASSERT_TRUE(ep != nullptr);
  try {
    std::rethrow_exception(ep);
    FAIL() << "expected rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task boom");
  }
  EXPECT_TRUE(pool.TakeUncaughtException() == nullptr);
}

}  // namespace
}  // namespace xrpc::net
