// Tests for the resilient-transport layer: RetryingTransport backoff and
// at-most-once semantics, SimulatedNetwork fault-injection profiles, and
// the RpcMetrics observability registry (the ISSUE-1 tentpole).

#include <gtest/gtest.h>

#include <vector>

#include "net/circuit_breaker.h"
#include "net/retrying_transport.h"
#include "net/rpc_metrics.h"
#include "net/simulated_network.h"
#include "net/uri.h"
#include "server/rpc_client.h"
#include "server/wsat.h"
#include "server/xrpc_service.h"
#include "soap/message.h"
#include "xmark/xmark.h"

namespace xrpc {
namespace {

using net::FaultProfile;
using net::LatencyHistogram;
using net::Metric;
using net::PostResult;
using net::RetryingTransport;
using net::RetryPolicy;
using net::RpcMetrics;
using net::SimulatedNetwork;
using net::Transport;

/// Scripted transport: fails the first `failures_remaining` posts with a
/// NetworkError (or a custom status), then succeeds; records every attempt.
class FlakyTransport : public Transport {
 public:
  StatusOr<PostResult> Post(const std::string& dest_uri,
                            const std::string& body) override {
    attempts.push_back(body);
    (void)dest_uri;
    if (failures_remaining > 0) {
      --failures_remaining;
      return failure;
    }
    PostResult result;
    result.body = "ok";
    result.network_micros = reply_latency_us;
    return result;
  }

  int failures_remaining = 0;
  Status failure = Status::NetworkError("flaky");
  int64_t reply_latency_us = 100;
  std::vector<std::string> attempts;
};

TEST(RetryingTransport, ReadOnlySucceedsAfterTransientFailures) {
  FlakyTransport inner;
  inner.failures_remaining = 2;
  RpcMetrics metrics;
  std::vector<int64_t> slept;
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_us = 1000;
  policy.jitter_fraction = 0;  // exact backoffs for the assertion below
  RetryingTransport transport(
      &inner, policy, &metrics,
      [&slept](int64_t us) { slept.push_back(us); });
  auto result = transport.Post("xrpc://p", "read-only body");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->body, "ok");
  EXPECT_EQ(inner.attempts.size(), 3u);
  // Exponential backoff: 1000us then 2000us, both slept and accounted on
  // the returned wire time (100us reply + 3000us of waiting).
  ASSERT_EQ(slept.size(), 2u);
  EXPECT_EQ(slept[0], 1000);
  EXPECT_EQ(slept[1], 2000);
  EXPECT_EQ(result->network_micros, 100 + 3000);
  EXPECT_EQ(metrics.Get(Metric::kRetries), 2);
  // 2 failed attempts + 1 success
  EXPECT_EQ(metrics.Get(Metric::kRequests), 3);
  EXPECT_EQ(metrics.Get(Metric::kFailures), 2);
  EXPECT_EQ(metrics.Get(Metric::kBackoffMicros), 3000);
}

TEST(RetryingTransport, PeerEndpointsShareOneCircuitAndOneMetricsRow) {
  // A peer's XRPC endpoint and its WS-AT endpoint (".../wsat") are one
  // destination: Bulk RPC failures that open the peer's circuit also
  // short-circuit a Prepare to it, and the report keeps one row for it.
  FlakyTransport inner;
  inner.failures_remaining = 2;
  RpcMetrics metrics;
  int64_t now_us = 0;
  net::CircuitBreaker breaker({/*failure_threshold=*/2, /*cooldown_us=*/1000},
                              [&now_us] { return now_us; });
  RetryingTransport transport(&inner, RetryPolicy{.max_attempts = 1},
                              &metrics);
  transport.set_circuit_breaker(&breaker);
  EXPECT_FALSE(transport.Post("xrpc://y", "bulk rpc").ok());
  EXPECT_FALSE(transport.Post("xrpc://y", "bulk rpc").ok());
  ASSERT_EQ(breaker.GetState("xrpc://y"), net::CircuitBreaker::State::kOpen);

  auto vote = server::SendWsatMessage(&transport, "xrpc://y",
                                      server::WsatOp::kPrepare, "q1");
  ASSERT_FALSE(vote.ok());
  EXPECT_NE(vote.status().message().find("circuit open"), std::string::npos);
  EXPECT_EQ(inner.attempts.size(), 2u);  // the Prepare was never dialed

  // Past the cooldown the next Prepare is the probe; its reply closes the
  // same circuit the Bulk RPCs opened.
  now_us = 2000;
  (void)server::SendWsatMessage(&transport, "xrpc://y",
                                server::WsatOp::kPrepare, "q1");
  EXPECT_EQ(inner.attempts.size(), 3u);
  EXPECT_EQ(breaker.GetState("xrpc://y"), net::CircuitBreaker::State::kClosed);
  EXPECT_EQ(metrics.Get(Metric::kRequests, "xrpc://y"), 3);
  EXPECT_EQ(metrics.Get(Metric::kRequests, "xrpc://y/wsat"), 0);
  const std::string report = metrics.Report();
  size_t rows = 0;
  for (size_t at = report.find("xrpc://y"); at != std::string::npos;
       at = report.find("xrpc://y", at + 1)) {
    ++rows;
  }
  EXPECT_EQ(rows, 1u) << report;
}

TEST(RetryingTransport, GivesUpAfterMaxAttempts) {
  FlakyTransport inner;
  inner.failures_remaining = 10;
  RpcMetrics metrics;
  RetryingTransport transport(&inner, RetryPolicy{.max_attempts = 3},
                              &metrics);
  auto result = transport.Post("xrpc://p", "body");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNetworkError);
  EXPECT_EQ(inner.attempts.size(), 3u);
  EXPECT_EQ(metrics.Get(Metric::kRetries), 2);
  EXPECT_EQ(metrics.Get(Metric::kFailures), 3);
}

TEST(RetryingTransport, UpdatingEnvelopeIsNeverRetransmitted) {
  FlakyTransport inner;
  inner.failures_remaining = 1;
  RpcMetrics metrics;
  RetryingTransport transport(&inner, RetryPolicy{.max_attempts = 5},
                              &metrics);
  // A real updating envelope, as the SOAP codec emits it.
  soap::XrpcRequest request;
  request.module_ns = "m";
  request.method = "f";
  request.updating = true;
  std::string body = soap::SerializeRequest(request);
  ASSERT_TRUE(RetryingTransport::IsUpdatingEnvelope(body));
  auto result = transport.Post("xrpc://p", body);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(inner.attempts.size(), 1u) << "updating call was retransmitted";
  EXPECT_EQ(metrics.Get(Metric::kRetries), 0);
}

TEST(RetryingTransport, NonTransientErrorsAreNotRetried) {
  FlakyTransport inner;
  inner.failures_remaining = 1;
  inner.failure = Status::SoapFault("application says no");
  RetryingTransport transport(&inner, RetryPolicy{.max_attempts = 5});
  auto result = transport.Post("xrpc://p", "body");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kSoapFault);
  EXPECT_EQ(inner.attempts.size(), 1u);
}

TEST(RetryingTransport, JitterIsDeterministicPerSeed) {
  RetryPolicy policy;
  policy.initial_backoff_us = 10000;
  policy.jitter_fraction = 0.5;
  FlakyTransport inner_a, inner_b, inner_c;
  RetryingTransport a(&inner_a, policy, nullptr, nullptr, /*jitter_seed=*/7);
  RetryingTransport b(&inner_b, policy, nullptr, nullptr, /*jitter_seed=*/7);
  RetryingTransport c(&inner_c, policy, nullptr, nullptr, /*jitter_seed=*/8);
  std::vector<int64_t> seq_a, seq_b, seq_c;
  for (int retry = 1; retry <= 4; ++retry) {
    seq_a.push_back(a.BackoffMicros(retry));
    seq_b.push_back(b.BackoffMicros(retry));
    seq_c.push_back(c.BackoffMicros(retry));
  }
  EXPECT_EQ(seq_a, seq_b) << "same seed must give the same schedule";
  EXPECT_NE(seq_a, seq_c) << "different seed should perturb the schedule";
  for (size_t i = 0; i < seq_a.size(); ++i) {
    int64_t nominal = 10000 << i;  // 10ms * 2^retry, within +/-50%
    EXPECT_GE(seq_a[i], nominal / 2);
    EXPECT_LE(seq_a[i], nominal + nominal / 2);
  }
}

TEST(RetryingTransport, SlowReplyBecomesTimeoutAndIsRetried) {
  FlakyTransport inner;
  inner.failures_remaining = 0;
  inner.reply_latency_us = 50000;  // above the deadline
  RpcMetrics metrics;
  RetryPolicy policy;
  policy.max_attempts = 2;
  policy.request_timeout_us = 10000;
  RetryingTransport transport(&inner, policy, &metrics);
  auto result = transport.Post("xrpc://p", "body");
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("timed out"), std::string::npos);
  EXPECT_EQ(inner.attempts.size(), 2u);  // timeout is transient: retried
  EXPECT_EQ(metrics.Get(Metric::kTimeouts), 2);
  EXPECT_EQ(metrics.Get(Metric::kRetries), 1);
}

class EchoEndpoint : public net::SoapEndpoint {
 public:
  StatusOr<std::string> Handle(const std::string& path,
                               const std::string& body) override {
    (void)path;
    ++requests;
    return "echo:" + body;
  }
  int requests = 0;
};

TEST(FaultInjection, QueuedFailuresThenRetrySucceeds) {
  SimulatedNetwork net;
  EchoEndpoint peer;
  net.RegisterPeer(net::ParseXrpcUri("xrpc://p").value(), &peer);
  net.FailNextPost(Status::NetworkError("drop 1"));
  net.FailNextPost(Status::NetworkError("drop 2"));
  RpcMetrics metrics;
  RetryingTransport transport(&net, RetryPolicy{.max_attempts = 3}, &metrics);
  auto result = transport.Post("xrpc://p", "hello");
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->body, "echo:hello");
  EXPECT_EQ(peer.requests, 1);  // the two failures never reached the peer
  EXPECT_EQ(metrics.Get(Metric::kRetries), 2);
  EXPECT_EQ(net.faults_injected(), 2);
}

TEST(FaultInjection, FailEveryNth) {
  SimulatedNetwork net;
  EchoEndpoint peer;
  net.RegisterPeer(net::ParseXrpcUri("xrpc://p").value(), &peer);
  FaultProfile profile;
  profile.fail_every_nth = 3;
  net.set_fault_profile(profile);
  int failures = 0;
  for (int i = 1; i <= 9; ++i) {
    if (!net.Post("xrpc://p", "x").ok()) ++failures;
  }
  EXPECT_EQ(failures, 3);  // posts 3, 6, 9
  EXPECT_EQ(peer.requests, 6);
  EXPECT_EQ(net.faults_injected(), 3);
}

TEST(FaultInjection, DropProbabilityIsDeterministicPerSeed) {
  auto run = [](uint64_t seed) {
    SimulatedNetwork net;
    EchoEndpoint peer;
    net.RegisterPeer(net::ParseXrpcUri("xrpc://p").value(), &peer);
    FaultProfile profile;
    profile.drop_probability = 0.5;
    profile.seed = seed;
    net.set_fault_profile(profile);
    std::vector<bool> outcomes;
    for (int i = 0; i < 32; ++i) outcomes.push_back(net.Post("xrpc://p", "x").ok());
    return outcomes;
  };
  EXPECT_EQ(run(3), run(3));
  EXPECT_NE(run(3), run(4));
  // Extremes behave as expected.
  SimulatedNetwork net;
  EchoEndpoint peer;
  net.RegisterPeer(net::ParseXrpcUri("xrpc://p").value(), &peer);
  FaultProfile always;
  always.drop_probability = 1.0;
  net.set_fault_profile(always);
  EXPECT_FALSE(net.Post("xrpc://p", "x").ok());
  EXPECT_EQ(peer.requests, 0) << "dropped request must not be delivered";
}

TEST(FaultInjection, TruncatedResponseDeliversRequestButLosesReply) {
  SimulatedNetwork net;
  EchoEndpoint peer;
  net.RegisterPeer(net::ParseXrpcUri("xrpc://p").value(), &peer);
  FaultProfile profile;
  profile.truncate_every_nth = 2;
  net.set_fault_profile(profile);
  ASSERT_TRUE(net.Post("xrpc://p", "a").ok());
  auto truncated = net.Post("xrpc://p", "b");
  ASSERT_FALSE(truncated.ok());
  EXPECT_NE(truncated.status().message().find("truncated"),
            std::string::npos);
  // Crucial at-most-once hazard: the handler DID run for the lost reply.
  EXPECT_EQ(peer.requests, 2);
}

TEST(FaultInjection, LatencySpikeRaisesModeledWireTime) {
  SimulatedNetwork net;
  EchoEndpoint peer;
  net.RegisterPeer(net::ParseXrpcUri("xrpc://p").value(), &peer);
  auto baseline = net.Post("xrpc://p", "x");
  ASSERT_TRUE(baseline.ok());
  FaultProfile profile;
  profile.latency_spike_every_nth = 1;
  profile.latency_spike_us = 250000;
  net.set_fault_profile(profile);
  auto spiked = net.Post("xrpc://p", "x");
  ASSERT_TRUE(spiked.ok());
  EXPECT_EQ(spiked->network_micros,
            baseline->network_micros + 250000);
}

TEST(FaultInjection, LatencySpikePlusTimeoutFailsCrisplyForUpdatingCalls) {
  SimulatedNetwork net;
  EchoEndpoint peer;
  net.RegisterPeer(net::ParseXrpcUri("xrpc://p").value(), &peer);
  FaultProfile profile;
  profile.latency_spike_every_nth = 1;
  profile.latency_spike_us = 1'000'000;
  net.set_fault_profile(profile);
  RetryPolicy policy;
  policy.max_attempts = 3;
  policy.request_timeout_us = 100000;
  RpcMetrics metrics;
  RetryingTransport transport(&net, policy, &metrics);

  soap::XrpcRequest request;
  request.module_ns = "m";
  request.method = "f";
  request.updating = true;
  auto result = transport.Post("xrpc://p", soap::SerializeRequest(request));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNetworkError);
  EXPECT_EQ(peer.requests, 1) << "updating call must not be retransmitted";
  EXPECT_EQ(metrics.Get(Metric::kTimeouts), 1);
  EXPECT_EQ(metrics.Get(Metric::kRetries), 0);
}

TEST(LatencyHistogramTest, BucketsAndSummary) {
  LatencyHistogram h;
  EXPECT_EQ(h.Summary(), "n=0");
  for (int64_t us : {0, 1, 3, 100, 1000, 100000}) h.Record(us);
  EXPECT_EQ(h.samples(), 6);
  EXPECT_EQ(h.min_micros(), 0);
  EXPECT_EQ(h.max_micros(), 100000);
  EXPECT_EQ(h.total_micros(), 101104);
  // p50 upper bound is a power of two covering the median sample.
  EXPECT_LE(h.PercentileUpperBound(0.5), 128);
  EXPECT_GE(h.PercentileUpperBound(0.99), 100000 / 2);
  EXPECT_NE(h.Summary().find("n=6"), std::string::npos);
}

TEST(RpcMetricsTest, PerPeerBreakdownAndReport) {
  RpcMetrics metrics;
  metrics.RecordExchange("xrpc://a", 100, 400, 1500, true);
  metrics.RecordExchange("xrpc://a", 100, 0, 0, false);
  metrics.Add(Metric::kRetries, 1, "xrpc://a");
  metrics.RecordExchange("xrpc://b", 50, 60, 200, true);
  metrics.Add(Metric::kServerRequests, 1, "xrpc://b");
  metrics.Add(Metric::kServerCalls, 7, "xrpc://b");
  metrics.Add(Metric::kInjectedFaults);
  metrics.Add(Metric::kBackoffMicros, 1234);

  EXPECT_EQ(metrics.Get(Metric::kRequests), 3);
  EXPECT_EQ(metrics.Get(Metric::kFailures), 1);
  EXPECT_EQ(metrics.Get(Metric::kRetries), 1);
  EXPECT_EQ(metrics.Get(Metric::kBytesSent), 250);
  EXPECT_EQ(metrics.Get(Metric::kBytesReceived), 460);
  EXPECT_EQ(metrics.Get(Metric::kInjectedFaults), 1);
  EXPECT_EQ(metrics.Get(Metric::kServerRequests), 1);
  EXPECT_EQ(metrics.Get(Metric::kServerCalls), 7);
  EXPECT_EQ(metrics.Get(Metric::kBackoffMicros), 1234);
  EXPECT_EQ(metrics.Get(Metric::kRequests, "xrpc://a"), 2);
  EXPECT_EQ(metrics.Get(Metric::kRetries, "xrpc://a"), 1);
  EXPECT_EQ(metrics.Get(Metric::kRequests, "xrpc://nope"), 0);

  std::string report = metrics.Report();
  EXPECT_NE(report.find("requests=3"), std::string::npos);
  EXPECT_NE(report.find("retries=1"), std::string::npos);
  EXPECT_NE(report.find("peer xrpc://a"), std::string::npos);
  EXPECT_NE(report.find("server xrpc://b"), std::string::npos);
  EXPECT_NE(report.find("latency histogram"), std::string::npos);

  metrics.Reset();
  EXPECT_EQ(metrics.Get(Metric::kRequests), 0);
  EXPECT_EQ(metrics.Get(Metric::kInjectedFaults), 0);
}

// End-to-end acceptance scenario: a read-only Bulk RPC through RpcClient
// survives two injected transient failures with backoff, while an updating
// call fails crisply without retransmission; RpcMetrics captures it all.
class BulkRetryTest : public ::testing::Test {
 protected:
  BulkRetryTest() {
    EXPECT_TRUE(
        db_.PutDocumentText("filmDB.xml", xmark::GenerateFilmDb()).ok());
    EXPECT_TRUE(registry_.RegisterModule(xmark::FilmModuleSource()).ok());
    service_ = std::make_unique<server::XrpcService>(
        server::XrpcService::Options{"xrpc://y"}, &db_, &registry_, &engine_,
        nullptr);
    service_->set_metrics(&metrics_);
    network_.RegisterPeer(net::ParseXrpcUri("xrpc://y").value(),
                          service_.get());
    network_.set_metrics(&metrics_);
  }

  soap::XrpcRequest FilmRequest(bool updating) {
    soap::XrpcRequest req;
    req.module_ns = "films";
    req.method = updating ? "addFilm" : "filmsByActor";
    req.arity = updating ? 2 : 1;
    req.updating = updating;
    if (updating) {
      req.calls.push_back(
          {xdm::Sequence{xdm::Item(xdm::AtomicValue::String("Film"))},
           xdm::Sequence{xdm::Item(xdm::AtomicValue::String("Actor"))}});
    } else {
      req.calls.push_back({xdm::Sequence{
          xdm::Item(xdm::AtomicValue::String("Sean Connery"))}});
    }
    return req;
  }

  server::Database db_;
  server::ModuleRegistry registry_;
  server::InterpreterEngine engine_;
  net::SimulatedNetwork network_;
  net::RpcMetrics metrics_;
  std::unique_ptr<server::XrpcService> service_;
};

TEST_F(BulkRetryTest, ReadOnlyBulkRpcSurvivesTwoInjectedFailures) {
  network_.FailNextPost(Status::NetworkError("transient 1"));
  network_.FailNextPost(Status::NetworkError("transient 2"));
  RetryingTransport transport(&network_, RetryPolicy{.max_attempts = 3},
                              &metrics_);
  server::RpcClient client(&transport, {});
  auto response = client.ExecuteBulk("xrpc://y", FilmRequest(false));
  ASSERT_TRUE(response.ok()) << response.status();
  ASSERT_EQ(response->results.size(), 1u);
  EXPECT_EQ(response->results[0].size(), 2u);
  EXPECT_EQ(metrics_.Get(Metric::kRetries), 2);
  EXPECT_EQ(metrics_.Get(Metric::kInjectedFaults), 2);
  EXPECT_GT(metrics_.Get(Metric::kBackoffMicros), 0);
  EXPECT_GT(metrics_.Get(Metric::kLatency), 0);
  EXPECT_EQ(metrics_.Get(Metric::kServerRequests), 1);
}

TEST_F(BulkRetryTest, UpdatingBulkRpcFailsCrisplyWithoutRetransmission) {
  network_.FailNextPost(Status::NetworkError("transient 1"));
  RetryingTransport transport(&network_, RetryPolicy{.max_attempts = 3},
                              &metrics_);
  server::RpcClient client(&transport, {});
  auto response = client.ExecuteBulk("xrpc://y", FilmRequest(true));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kNetworkError);
  EXPECT_EQ(metrics_.Get(Metric::kRetries), 0);
  EXPECT_EQ(metrics_.Get(Metric::kServerRequests), 0)
      << "updating envelope reached the peer again after a failure";
  EXPECT_EQ(client.requests_sent(), 0);
}

}  // namespace
}  // namespace xrpc
