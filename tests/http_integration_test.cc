// Integration test over REAL sockets: two XrpcService peers served by the
// embedded HTTP/1.1 daemon on loopback, exercised through HttpTransport —
// the full SOAP-over-HTTP wire path of the paper's implementation (its
// SHTTPD + message sender API).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include "net/http.h"
#include "net/retrying_transport.h"
#include "net/rpc_metrics.h"
#include "server/rpc_client.h"
#include "server/xrpc_service.h"
#include "xml/serializer.h"
#include "xmark/xmark.h"

namespace xrpc {
namespace {

using server::Database;
using server::InterpreterEngine;
using server::ModuleRegistry;
using server::RpcClient;
using server::XrpcService;

class HttpIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        db_.PutDocumentText("filmDB.xml", xmark::GenerateFilmDb()).ok());
    ASSERT_TRUE(registry_.RegisterModule(xmark::FilmModuleSource()).ok());
    service_ = std::make_unique<XrpcService>(
        XrpcService::Options{"xrpc://127.0.0.1"}, &db_, &registry_,
        &engine_, &transport_);
    http_server_ = std::make_unique<net::HttpServer>(service_.get());
    auto port = http_server_->Start(0);
    ASSERT_TRUE(port.ok()) << port.status();
    port_ = port.value();
  }

  void TearDown() override { http_server_->Stop(); }

  std::string PeerUri() {
    return "xrpc://127.0.0.1:" + std::to_string(port_);
  }

  Database db_;
  ModuleRegistry registry_;
  InterpreterEngine engine_;
  net::HttpTransport transport_;
  std::unique_ptr<XrpcService> service_;
  std::unique_ptr<net::HttpServer> http_server_;
  int port_ = 0;
};

TEST_F(HttpIntegrationTest, SingleCallOverRealSockets) {
  RpcClient client(&transport_, {});
  xquery::RpcCall call;
  call.dest_uri = PeerUri();
  call.module_ns = "films";
  call.function = xml::QName("films", "filmsByActor");
  call.args = {xdm::Sequence{
      xdm::Item(xdm::AtomicValue::String("Sean Connery"))}};
  auto result = client.Execute(call);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ(xml::SerializeNode(*result.value()[0].node()),
            "<name>The Rock</name>");
}

TEST_F(HttpIntegrationTest, BulkCallOverRealSockets) {
  RpcClient client(&transport_, {});
  soap::XrpcRequest req;
  req.module_ns = "films";
  req.method = "filmsByActor";
  req.arity = 1;
  for (const char* actor :
       {"Sean Connery", "Gerard Depardieu", "Julie Andrews"}) {
    req.calls.push_back(
        {xdm::Sequence{xdm::Item(xdm::AtomicValue::String(actor))}});
  }
  auto response = client.ExecuteBulk(PeerUri(), std::move(req));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->results.size(), 3u);
  EXPECT_EQ(response->results[0].size(), 2u);
  EXPECT_EQ(response->results[1].size(), 1u);
  EXPECT_TRUE(response->results[2].empty());
}

TEST_F(HttpIntegrationTest, FaultTravelsOverHttp) {
  RpcClient client(&transport_, {});
  xquery::RpcCall call;
  call.dest_uri = PeerUri();
  call.module_ns = "no-such-module";
  call.function = xml::QName("no-such-module", "f");
  auto result = client.Execute(call);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSoapFault);
  EXPECT_NE(result.status().message().find("could not load module"),
            std::string::npos);
}

TEST_F(HttpIntegrationTest, WsatEndpointOverHttp) {
  // Prepare for an unknown query id answers an abort vote over the wire.
  server::WsatMessage msg;
  msg.op = server::WsatOp::kPrepare;
  msg.query_id = "no-such-query";
  auto posted = transport_.Post(PeerUri() + "/" + server::kWsatPath,
                                server::SerializeWsatRequest(msg));
  ASSERT_TRUE(posted.ok()) << posted.status();
  auto reply = server::ParseWsatMessage(posted->body);
  ASSERT_TRUE(reply.ok()) << reply.status();
  EXPECT_FALSE(reply->ok);
}

TEST_F(HttpIntegrationTest, RetryingTransportOverRealSockets) {
  // The full resilient stack on real sockets: RetryingTransport →
  // HttpTransport → HttpServer → XrpcService, with metrics recorded at the
  // wire level.
  net::RpcMetrics metrics;
  net::RetryingTransport retrying(&transport_,
                                  net::RetryPolicy{.max_attempts = 3},
                                  &metrics);
  RpcClient client(&retrying, {});
  xquery::RpcCall call;
  call.dest_uri = PeerUri();
  call.module_ns = "films";
  call.function = xml::QName("films", "filmsByActor");
  call.args = {xdm::Sequence{
      xdm::Item(xdm::AtomicValue::String("Sean Connery"))}};
  auto result = client.Execute(call);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->size(), 2u);
  EXPECT_EQ(metrics.Get(net::Metric::kRequests), 1);
  EXPECT_EQ(metrics.Get(net::Metric::kRetries), 0);
  EXPECT_GT(metrics.Get(net::Metric::kBytesReceived), 0);
}

TEST_F(HttpIntegrationTest, RetryRecoversFromTransientServerOutage) {
  // First attempt goes to a closed port; the retry hits the live server.
  // Simulates a connection-refused blip without real clock dependence.
  class FailoverTransport : public net::Transport {
   public:
    FailoverTransport(net::Transport* real, std::string good_uri)
        : real_(real), good_uri_(std::move(good_uri)) {}
    StatusOr<net::PostResult> Post(const std::string& dest_uri,
                                   const std::string& body) override {
      ++attempts_;
      if (attempts_ == 1) {
        return real_->Post("xrpc://127.0.0.1:1/", body);  // refused
      }
      return real_->Post(dest_uri, body);
    }
    int attempts_ = 0;

   private:
    net::Transport* real_;
    std::string good_uri_;
  };
  FailoverTransport flaky(&transport_, PeerUri());
  net::RpcMetrics metrics;
  net::RetryingTransport retrying(
      &flaky,
      net::RetryPolicy{.max_attempts = 3, .initial_backoff_us = 100},
      &metrics);
  RpcClient client(&retrying, {});
  xquery::RpcCall call;
  call.dest_uri = PeerUri();
  call.module_ns = "films";
  call.function = xml::QName("films", "filmsByActor");
  call.args = {xdm::Sequence{
      xdm::Item(xdm::AtomicValue::String("Sean Connery"))}};
  auto result = client.Execute(call);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(flaky.attempts_, 2);
  EXPECT_EQ(metrics.Get(net::Metric::kRetries), 1);
  EXPECT_EQ(metrics.Get(net::Metric::kFailures), 1);
}

TEST_F(HttpIntegrationTest, SocketTimeoutSurfacesAsNetworkError) {
  // A transport-level receive timeout against a server that accepts but
  // never replies. Bind a bare listening socket: connect succeeds, then
  // the 50ms SO_RCVTIMEO fires.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ASSERT_EQ(::listen(fd, 1), 0);

  auto reply = net::HttpPost("127.0.0.1", ntohs(addr.sin_port), "p", "x",
                             /*timeout_millis=*/50);
  ASSERT_FALSE(reply.ok());
  EXPECT_EQ(reply.status().code(), StatusCode::kNetworkError);
  EXPECT_NE(reply.status().message().find("timed out"), std::string::npos);
  ::close(fd);
}

TEST_F(HttpIntegrationTest, KeepAliveReusesOneConnection) {
  // Five sequential calls through one transport ride one TCP connection:
  // the first exchange dials, the rest hit the pool.
  RpcClient client(&transport_, {});
  for (int i = 0; i < 5; ++i) {
    xquery::RpcCall call;
    call.dest_uri = PeerUri();
    call.module_ns = "films";
    call.function = xml::QName("films", "filmsByActor");
    call.args = {xdm::Sequence{
        xdm::Item(xdm::AtomicValue::String("Sean Connery"))}};
    auto result = client.Execute(call);
    ASSERT_TRUE(result.ok()) << result.status();
  }
  EXPECT_EQ(transport_.pool().misses(), 1);
  EXPECT_EQ(transport_.pool().hits(), 4);
  EXPECT_EQ(http_server_->connections_accepted(), 1);
  EXPECT_EQ(http_server_->requests_served(), 5);
}

TEST_F(HttpIntegrationTest, KeepAliveDisabledDialsPerRequest) {
  net::HttpTransport transport;
  transport.set_keep_alive(false);
  RpcClient client(&transport, {});
  for (int i = 0; i < 3; ++i) {
    xquery::RpcCall call;
    call.dest_uri = PeerUri();
    call.module_ns = "films";
    call.function = xml::QName("films", "filmsByActor");
    call.args = {xdm::Sequence{
        xdm::Item(xdm::AtomicValue::String("Sean Connery"))}};
    ASSERT_TRUE(client.Execute(call).ok());
  }
  EXPECT_EQ(transport.pool().hits(), 0);
  EXPECT_EQ(http_server_->connections_accepted(), 3);
}

TEST_F(HttpIntegrationTest, IdlePooledConnectionExpiresAndRedials) {
  net::HttpConnectionPool::Options pool_options;
  pool_options.idle_timeout_millis = 50;
  net::HttpTransport transport(pool_options);
  net::RpcMetrics metrics;
  transport.set_metrics(&metrics);

  server::WsatMessage msg;
  msg.op = server::WsatOp::kPrepare;
  msg.query_id = "q";
  auto post = [&] {
    return transport.Post(PeerUri() + "/" + server::kWsatPath,
                          server::SerializeWsatRequest(msg));
  };
  ASSERT_TRUE(post().ok());
  EXPECT_EQ(transport.pool().idle_count(), 1u);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  ASSERT_TRUE(post().ok());
  EXPECT_EQ(transport.pool().expired(), 1);
  EXPECT_EQ(metrics.Get(net::Metric::kConnExpired), 1);
  EXPECT_EQ(metrics.Get(net::Metric::kConnDials), 2);
  EXPECT_EQ(http_server_->connections_accepted(), 2);
}

TEST_F(HttpIntegrationTest, StaleConnectionIsRedialedForReadOnlyCalls) {
  // A server that tears down idle connections after 50ms: the client's
  // pooled socket goes stale underneath it. The next read-only POST must
  // transparently re-dial instead of failing.
  net::HttpServer::Options server_options;
  server_options.keep_alive_idle_millis = 50;
  net::HttpServer short_idle_server(service_.get(), server_options);
  auto port = short_idle_server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status();
  std::string uri = "xrpc://127.0.0.1:" + std::to_string(port.value());

  net::HttpTransport transport;
  net::RpcMetrics metrics;
  transport.set_metrics(&metrics);
  server::WsatMessage msg;
  msg.op = server::WsatOp::kPrepare;
  msg.query_id = "q";
  auto body = server::SerializeWsatRequest(msg);
  ASSERT_TRUE(
      transport.Post(uri + "/" + server::kWsatPath, body).ok());
  // Let the server expire the connection (its side closes; ours is pooled).
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto second = transport.Post(uri + "/" + server::kWsatPath, body);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(metrics.Get(net::Metric::kConnStaleRetries), 1);
  short_idle_server.Stop();
}

TEST_F(HttpIntegrationTest, StaleConnectionIsNotReplayedForUpdatingCalls) {
  // Same stale-socket situation, but the envelope carries updCall="true":
  // a zero-byte EOF leaves "did the peer consume it?" unknowable, so the
  // transport must surface the failure instead of re-sending (at-most-once
  // composes across the keep-alive layer).
  net::HttpServer::Options server_options;
  server_options.keep_alive_idle_millis = 50;
  net::HttpServer short_idle_server(service_.get(), server_options);
  auto port = short_idle_server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status();
  std::string uri = "xrpc://127.0.0.1:" + std::to_string(port.value());

  net::HttpTransport transport;
  net::RpcMetrics metrics;
  transport.set_metrics(&metrics);
  std::string updating_body = "<x updCall=\"true\"/>";
  // Prime the pool with a successful (read-only) exchange.
  server::WsatMessage msg;
  msg.op = server::WsatOp::kPrepare;
  msg.query_id = "q";
  ASSERT_TRUE(transport
                  .Post(uri + "/" + server::kWsatPath,
                        server::SerializeWsatRequest(msg))
                  .ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  auto second = transport.Post(uri, updating_body);
  // Either the stale socket surfaces as a closed/reset connection error —
  // never a silent replay.
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kNetworkError);
  EXPECT_EQ(metrics.Get(net::Metric::kConnStaleRetries), 0);
  short_idle_server.Stop();
}

TEST_F(HttpIntegrationTest, OverloadedServerAnswers503) {
  // One worker, queue capacity one: a connection parked mid-request pins
  // the worker, a second fills the queue, the third must be shed with 503.
  net::HttpServer::Options server_options;
  server_options.workers = 1;
  server_options.accept_queue_capacity = 1;
  server_options.keep_alive_idle_millis = 10'000;
  net::HttpServer tiny_server(service_.get(), server_options);
  net::RpcMetrics metrics;
  tiny_server.set_metrics(&metrics);
  auto port = tiny_server.Start(0);
  ASSERT_TRUE(port.ok()) << port.status();

  auto open_conn = [&](const char* bytes) {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port.value()));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    if (bytes != nullptr) {
      (void)!::send(fd, bytes, strlen(bytes), 0);
    }
    return fd;
  };
  // Pin the worker with an incomplete request (no terminating blank line).
  int pinned = open_conn("POST /p HTTP/1.1\r\nContent-Length: 10\r\n");
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Fill the single queue slot.
  int queued = open_conn(nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Next connection must be shed.
  auto reply = net::HttpPost("127.0.0.1", port.value(), "p", "x",
                             /*timeout_millis=*/2000);
  ASSERT_FALSE(reply.ok());
  EXPECT_NE(reply.status().message().find("503"), std::string::npos)
      << reply.status();
  EXPECT_EQ(tiny_server.overload_rejections(), 1);
  EXPECT_EQ(metrics.Get(net::Metric::kServerOverloads), 1);
  EXPECT_GE(metrics.Get(net::Metric::kAcceptQueueMaxDepth), 1);
  ::close(pinned);
  ::close(queued);
  tiny_server.Stop();
}

TEST_F(HttpIntegrationTest, ParallelFanoutOverRealSockets) {
  // Three HTTP daemons on loopback, one RpcClient fanning out on a real
  // thread pool through one keep-alive transport: responses must map back
  // to their destination index whatever the completion order.
  std::vector<std::unique_ptr<net::HttpServer>> servers;
  std::vector<std::string> uris;
  for (int i = 0; i < 3; ++i) {
    servers.push_back(std::make_unique<net::HttpServer>(service_.get()));
    auto port = servers.back()->Start(0);
    ASSERT_TRUE(port.ok()) << port.status();
    uris.push_back("xrpc://127.0.0.1:" + std::to_string(port.value()));
  }
  net::ThreadPool pool(3);
  RpcClient::Options opts;
  opts.dispatch_pool = &pool;
  net::RpcMetrics metrics;
  opts.metrics = &metrics;
  RpcClient client(&transport_, opts);
  const char* actors[] = {"Sean Connery", "Gerard Depardieu",
                          "Julie Andrews"};
  const size_t expected[] = {2, 1, 0};
  std::vector<RpcClient::Destination> dests;
  for (int i = 0; i < 3; ++i) {
    soap::XrpcRequest req;
    req.module_ns = "films";
    req.method = "filmsByActor";
    req.arity = 1;
    req.calls.push_back(
        {xdm::Sequence{xdm::Item(xdm::AtomicValue::String(actors[i]))}});
    dests.push_back({uris[i], std::move(req)});
  }
  auto responses = client.ExecuteBulkAll(std::move(dests));
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ((*responses)[i].results[0].size(), expected[i]) << actors[i];
  }
  EXPECT_EQ(metrics.Get(net::Metric::kFanoutGroups), 1);
  EXPECT_EQ(metrics.Get(net::Metric::kFanoutDestinations), 3);
  for (auto& s : servers) s->Stop();
}

TEST_F(HttpIntegrationTest, ConcurrentClients) {
  // Several threads issuing calls against the same HTTP daemon.
  std::vector<std::thread> threads;
  std::atomic<int> successes{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&] {
      net::HttpTransport transport;
      RpcClient client(&transport, {});
      xquery::RpcCall call;
      call.dest_uri = PeerUri();
      call.module_ns = "films";
      call.function = xml::QName("films", "filmsByActor");
      call.args = {xdm::Sequence{
          xdm::Item(xdm::AtomicValue::String("Sean Connery"))}};
      auto result = client.Execute(call);
      if (result.ok() && result->size() == 2) ++successes;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(successes.load(), 8);
}

}  // namespace
}  // namespace xrpc
