// Parallel-dispatch benchmark, two claims:
//
//  1. Multi-destination Bulk RPC fan-out costs the *maximum* over
//     destinations, not the sum (the paper's Table 4 premise: MonetDB
//     dispatches the per-destination requests concurrently). Modeled over
//     the simulated network: group cost stays flat as destinations grow,
//     the serial sum grows linearly.
//
//  2. HTTP/1.1 keep-alive amortizes connection setup the way Bulk RPC
//     amortizes message latency (Table 2 re-run at x=1000 over real
//     loopback sockets): one dialed connection carries all requests
//     instead of one TCP handshake per request.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/http.h"
#include "net/simulated_network.h"
#include "net/thread_pool.h"
#include "server/rpc_client.h"
#include "soap/message.h"

namespace {

using xrpc::StatusOr;
using xrpc::server::RpcClient;
using Destination = xrpc::server::RpcClient::Destination;

// Minimal SOAP peer: answers every call in the request with one integer.
class OnePeer : public xrpc::net::SoapEndpoint {
 public:
  StatusOr<std::string> Handle(const std::string& /*path*/,
                               const std::string& body) override {
    XRPC_ASSIGN_OR_RETURN(xrpc::soap::XrpcRequest req,
                          xrpc::soap::ParseRequest(body));
    xrpc::soap::XrpcResponse resp;
    resp.module_ns = req.module_ns;
    resp.method = req.method;
    for (size_t c = 0; c < req.calls.size(); ++c) {
      resp.results.push_back(xrpc::xdm::Sequence{
          xrpc::xdm::Item(xrpc::xdm::AtomicValue::Integer(42))});
    }
    return xrpc::soap::SerializeResponse(resp);
  }
};

xrpc::soap::XrpcRequest MakeRequest() {
  xrpc::soap::XrpcRequest req;
  req.module_ns = "m";
  req.method = "f";
  req.arity = 1;
  req.calls.push_back({xrpc::xdm::Sequence{
      xrpc::xdm::Item(xrpc::xdm::AtomicValue::String("arg"))}});
  return req;
}

void BenchFanout() {
  std::printf(
      "Fan-out critical path (simulated network, 1ms latency/peer):\n"
      "modeled group cost must track the slowest destination, not the\n"
      "serial sum.\n\n");
  xrpc::bench::TablePrinter table({"destinations", "serial sum ms",
                                   "fan-out ms", "speedup"});
  for (int n : {1, 2, 4, 8, 16}) {
    xrpc::net::NetworkProfile profile;
    profile.latency_us = 1000;
    xrpc::net::SimulatedNetwork net(profile);
    std::vector<std::unique_ptr<OnePeer>> peers;
    std::vector<Destination> dests;
    for (int i = 0; i < n; ++i) {
      peers.push_back(std::make_unique<OnePeer>());
      std::string uri = "xrpc://p" + std::to_string(i);
      net.RegisterPeer(xrpc::net::ParseXrpcUri(uri).value(),
                       peers.back().get());
      dests.push_back({uri, MakeRequest()});
    }
    // Serial sum: one ExecuteBulk per destination, costs accumulate.
    RpcClient serial(&net, {});
    for (int i = 0; i < n; ++i) {
      (void)serial.ExecuteBulk("xrpc://p" + std::to_string(i), MakeRequest());
    }
    int64_t sum_us = net.clock().NowMicros();
    net.ResetStats();
    // Fan-out: one ExecuteBulkAll group, cost = critical path.
    RpcClient fanout(&net, {});
    (void)fanout.ExecuteBulkAll(std::move(dests));
    int64_t group_us = net.clock().NowMicros();
    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.1fx",
                  group_us > 0 ? static_cast<double>(sum_us) / group_us : 0.0);
    table.AddRow({std::to_string(n), xrpc::bench::Ms(sum_us),
                  xrpc::bench::Ms(group_us), speedup});
  }
  table.Print();
}

// SOAP peer that models per-request server work with a real sleep, making
// the serial-vs-parallel wall-clock difference visible over loopback.
class SlowPeer : public xrpc::net::SoapEndpoint {
 public:
  explicit SlowPeer(int delay_millis) : delay_millis_(delay_millis) {}

  StatusOr<std::string> Handle(const std::string& path,
                               const std::string& body) override {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_millis_));
    return inner_.Handle(path, body);
  }

 private:
  int delay_millis_;
  OnePeer inner_;
};

void BenchFanoutWallClock() {
  const int kDelayMillis = 5;
  std::printf(
      "\nFan-out wall-clock (real loopback sockets, %d ms of work per\n"
      "destination): pooled dispatch stays ~flat, serial grows linearly.\n\n",
      kDelayMillis);
  xrpc::bench::TablePrinter table(
      {"destinations", "serial ms", "parallel ms"});
  for (int n : {1, 2, 4, 8}) {
    SlowPeer peer(kDelayMillis);
    std::vector<std::unique_ptr<xrpc::net::HttpServer>> servers;
    std::vector<std::string> uris;
    for (int i = 0; i < n; ++i) {
      servers.push_back(std::make_unique<xrpc::net::HttpServer>(&peer));
      auto port = servers.back()->Start(0);
      if (!port.ok()) return;
      uris.push_back("xrpc://127.0.0.1:" + std::to_string(port.value()));
    }
    auto run = [&](xrpc::net::ThreadPool* pool) {
      xrpc::net::HttpTransport transport;
      RpcClient::Options opts;
      opts.dispatch_pool = pool;
      RpcClient client(&transport, opts);
      std::vector<Destination> dests;
      for (const std::string& uri : uris) dests.push_back({uri, MakeRequest()});
      auto start = std::chrono::steady_clock::now();
      (void)client.ExecuteBulkAll(std::move(dests));
      return std::chrono::duration_cast<std::chrono::microseconds>(
                 std::chrono::steady_clock::now() - start)
          .count();
    };
    int64_t serial_us = run(nullptr);
    xrpc::net::ThreadPool pool(n);
    int64_t parallel_us = run(&pool);
    table.AddRow({std::to_string(n), xrpc::bench::Ms(serial_us),
                  xrpc::bench::Ms(parallel_us)});
    for (auto& s : servers) s->Stop();
  }
  table.Print();
}

void BenchKeepAlive() {
  const int kRequests = 1000;
  std::printf(
      "\nConnection-setup amortization (real loopback sockets, %d small\n"
      "POSTs): keep-alive dials once; Connection: close dials per request.\n\n",
      kRequests);
  OnePeer peer;
  xrpc::bench::TablePrinter table({"transport", "total ms", "us/request",
                                   "connections", "pool hits"});
  for (bool keep_alive : {false, true}) {
    xrpc::net::HttpServer server(&peer);
    auto port = server.Start(0);
    if (!port.ok()) {
      std::printf("server start failed: %s\n",
                  port.status().ToString().c_str());
      return;
    }
    xrpc::net::HttpTransport transport;
    transport.set_keep_alive(keep_alive);
    std::string uri = "xrpc://127.0.0.1:" + std::to_string(port.value());
    std::string body = xrpc::soap::SerializeRequest(MakeRequest());
    auto start = std::chrono::steady_clock::now();
    int failures = 0;
    for (int i = 0; i < kRequests; ++i) {
      if (!transport.Post(uri, body).ok()) ++failures;
    }
    auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (failures > 0) std::printf("(%d requests failed)\n", failures);
    table.AddRow({keep_alive ? "keep-alive" : "close-per-request",
                  xrpc::bench::Ms(elapsed),
                  std::to_string(elapsed / kRequests),
                  std::to_string(server.connections_accepted()),
                  std::to_string(transport.pool().hits())});
    server.Stop();
  }
  table.Print();
}

}  // namespace

int main() {
  std::printf(
      "Parallel multi-destination dispatch + keep-alive connection reuse\n\n");
  BenchFanout();
  BenchFanoutWallClock();
  BenchKeepAlive();
  std::printf(
      "\nShape checks: modeled and wall-clock fan-out stay ~flat as\n"
      "destinations grow (max-over-destinations, not sum); keep-alive\n"
      "accepts 1 connection for all requests and beats close-per-request\n"
      "on us/request.\n");
  return 0;
}
