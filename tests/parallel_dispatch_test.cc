// Tests for parallel multi-destination Bulk RPC dispatch: the ThreadPool,
// the transport parallel-group protocol (virtual clock advances by the
// group's critical path, max over destinations, not the sum), out-of-order
// map-back correctness, per-destination error isolation under fault
// injection, and the thread-safety of the RetryingTransport jitter PRNG.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "net/retrying_transport.h"
#include "net/rpc_metrics.h"
#include "net/simulated_network.h"
#include "net/thread_pool.h"
#include "server/rpc_client.h"
#include "soap/message.h"

namespace xrpc {
namespace {

using server::RpcClient;
using Destination = server::RpcClient::Destination;

// SOAP-speaking peer answering every call with a sequence of `items`
// integers — destinations are told apart by their result cardinality, so a
// response mapped to the wrong destination index is immediately visible.
class CountingPeer : public net::SoapEndpoint {
 public:
  explicit CountingPeer(int items) : items_(items) {}

  StatusOr<std::string> Handle(const std::string& /*path*/,
                               const std::string& body) override {
    requests_.fetch_add(1, std::memory_order_relaxed);
    XRPC_ASSIGN_OR_RETURN(soap::XrpcRequest req, soap::ParseRequest(body));
    soap::XrpcResponse resp;
    resp.module_ns = req.module_ns;
    resp.method = req.method;
    for (size_t c = 0; c < req.calls.size(); ++c) {
      xdm::Sequence seq;
      for (int i = 0; i < items_; ++i) {
        seq.push_back(xdm::Item(xdm::AtomicValue::Integer(i)));
      }
      resp.results.push_back(std::move(seq));
    }
    return soap::SerializeResponse(resp);
  }

  int requests() const { return requests_.load(std::memory_order_relaxed); }

 private:
  int items_;
  std::atomic<int> requests_{0};
};

// Non-SOAP endpoint for wire-level parallel-group tests: echoes the body,
// so post cost scales with message size without any envelope parsing.
class EchoPeer : public net::SoapEndpoint {
 public:
  StatusOr<std::string> Handle(const std::string& /*path*/,
                               const std::string& body) override {
    return "echo:" + body;
  }
};

soap::XrpcRequest MakeRequest(size_t pad_bytes = 0) {
  soap::XrpcRequest req;
  req.module_ns = "m";
  req.method = "f";
  req.arity = 1;
  req.calls.push_back({xdm::Sequence{
      xdm::Item(xdm::AtomicValue::String(std::string(pad_bytes, 'x')))}});
  return req;
}

TEST(ThreadPool, RunsEverySubmittedTask) {
  std::atomic<int> ran{0};
  {
    net::ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, ConcurrencyIsBoundedByThreadCount) {
  net::ThreadPool pool(3);
  std::atomic<int> running{0};
  std::atomic<int> max_running{0};
  std::atomic<int> done{0};
  for (int i = 0; i < 30; ++i) {
    pool.Submit([&] {
      int now = running.fetch_add(1, std::memory_order_relaxed) + 1;
      int prev = max_running.load(std::memory_order_relaxed);
      while (now > prev &&
             !max_running.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      running.fetch_sub(1, std::memory_order_relaxed);
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  while (done.load() < 30) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_LE(max_running.load(), 3);
  EXPECT_GE(max_running.load(), 1);
  EXPECT_LE(pool.peak_in_flight(), 3);
  EXPECT_GE(pool.peak_in_flight(), 1);
}

TEST(ParallelGroup, ClockAdvancesByMaxNotSum) {
  net::NetworkProfile profile;
  profile.latency_us = 1000;
  profile.bandwidth_bytes_per_us = 1.0;  // 1 byte/us: size differences count
  net::SimulatedNetwork net(profile);
  EchoPeer peer;
  net.RegisterPeer(net::ParseXrpcUri("xrpc://p").value(), &peer);

  // Measure the two per-post costs individually first.
  ASSERT_TRUE(net.Post("xrpc://p", "small").ok());
  int64_t cost_small = net.clock().NowMicros();
  net.ResetStats();
  ASSERT_TRUE(net.Post("xrpc://p", std::string(5000, 'x')).ok());
  int64_t cost_big = net.clock().NowMicros();
  net.ResetStats();
  ASSERT_GT(cost_big, cost_small);

  net.BeginParallelGroup();
  ASSERT_TRUE(net.Post("xrpc://p", "small").ok());
  ASSERT_TRUE(net.Post("xrpc://p", std::string(5000, 'x')).ok());
  EXPECT_EQ(net.clock().NowMicros(), 0) << "clock must not move mid-group";
  net.EndParallelGroup();
  EXPECT_EQ(net.clock().NowMicros(), cost_big)
      << "group cost = critical path (max), not sum";
}

TEST(ParallelGroup, NestedGroupsFoldIntoTheOutermost) {
  net::NetworkProfile profile;
  profile.latency_us = 500;
  net::SimulatedNetwork net(profile);
  EchoPeer peer;
  net.RegisterPeer(net::ParseXrpcUri("xrpc://p").value(), &peer);
  ASSERT_TRUE(net.Post("xrpc://p", "x").ok());
  int64_t single = net.clock().NowMicros();
  net.ResetStats();

  net.BeginParallelGroup();
  ASSERT_TRUE(net.Post("xrpc://p", "x").ok());
  net.BeginParallelGroup();  // nested fan-out inside the outer group
  ASSERT_TRUE(net.Post("xrpc://p", "x").ok());
  net.EndParallelGroup();
  EXPECT_EQ(net.clock().NowMicros(), 0) << "inner End must not advance";
  net.EndParallelGroup();
  EXPECT_EQ(net.clock().NowMicros(), single);
}

// Fixture: one simulated network with four peers of distinct result
// cardinalities (1, 2, 3, 4 items).
class ParallelDispatchTest : public ::testing::Test {
 protected:
  ParallelDispatchTest() {
    net::NetworkProfile profile;
    profile.latency_us = 1000;
    network_ = std::make_unique<net::SimulatedNetwork>(profile);
    for (int i = 0; i < 4; ++i) {
      peers_.push_back(std::make_unique<CountingPeer>(i + 1));
      network_->RegisterPeer(
          net::ParseXrpcUri("xrpc://p" + std::to_string(i)).value(),
          peers_.back().get());
    }
  }

  std::vector<Destination> FourDestinations(size_t pad = 0) {
    std::vector<Destination> dests;
    for (int i = 0; i < 4; ++i) {
      dests.push_back({"xrpc://p" + std::to_string(i), MakeRequest(pad)});
    }
    return dests;
  }

  std::unique_ptr<net::SimulatedNetwork> network_;
  std::vector<std::unique_ptr<CountingPeer>> peers_;
};

TEST_F(ParallelDispatchTest, SerialDispatchChargesCriticalPathNotSum) {
  // All four requests are identical, so each exchange has the same modeled
  // cost c; the group must cost exactly c (max), not 4c (sum).
  RpcClient probe(network_.get(), {});
  ASSERT_TRUE(probe.ExecuteBulk("xrpc://p0", MakeRequest()).ok());
  int64_t single_cost = network_->clock().NowMicros();
  ASSERT_GT(single_cost, 0);
  network_->ResetStats();

  RpcClient client(network_.get(), {});
  auto responses = client.ExecuteBulkAll(FourDestinations());
  ASSERT_TRUE(responses.ok()) << responses.status();
  ASSERT_EQ(responses->size(), 4u);
  // Responses map to destinations by index: peer i answers i+1 items.
  for (int i = 0; i < 4; ++i) {
    ASSERT_EQ((*responses)[i].results.size(), 1u);
    EXPECT_EQ((*responses)[i].results[0].size(), static_cast<size_t>(i + 1));
  }
  // Peer p0's response is a little smaller than p3's (fewer items), so the
  // critical path is p3's cost — which is >= the probe cost against p0 and
  // well under the serial sum.
  EXPECT_GE(network_->clock().NowMicros(), single_cost);
  EXPECT_LT(network_->clock().NowMicros(), 2 * single_cost);
  EXPECT_EQ(network_->clock().NowMicros(), client.network_micros());
  EXPECT_EQ(client.requests_sent(), 4);
}

TEST_F(ParallelDispatchTest, PooledDispatchAgreesWithSerialClock) {
  // The virtual clock must not care whether the fan-out was physically
  // parallel: same destinations => same modeled critical path.
  RpcClient serial(network_.get(), {});
  auto serial_responses = serial.ExecuteBulkAll(FourDestinations());
  ASSERT_TRUE(serial_responses.ok()) << serial_responses.status();
  int64_t serial_clock = network_->clock().NowMicros();
  int64_t serial_network = serial.network_micros();
  network_->ResetStats();

  net::ThreadPool pool(4);
  RpcClient::Options opts;
  opts.dispatch_pool = &pool;
  RpcClient parallel(network_.get(), opts);
  auto parallel_responses = parallel.ExecuteBulkAll(FourDestinations());
  ASSERT_TRUE(parallel_responses.ok()) << parallel_responses.status();
  EXPECT_EQ(network_->clock().NowMicros(), serial_clock);
  EXPECT_EQ(parallel.network_micros(), serial_network);
  ASSERT_EQ(parallel_responses->size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*parallel_responses)[i].results[0].size(),
              static_cast<size_t>(i + 1))
        << "out-of-order completion leaked into result order";
  }
}

TEST_F(ParallelDispatchTest, PooledDispatchMapsBackOutOfOrderCompletions) {
  // More destinations than workers, repeated: completion order is up to
  // the scheduler, result order must stay destination order every time.
  net::ThreadPool pool(3);
  RpcClient::Options opts;
  opts.dispatch_pool = &pool;
  for (int round = 0; round < 20; ++round) {
    RpcClient client(network_.get(), opts);
    std::vector<Destination> dests;
    for (int i = 0; i < 8; ++i) {
      dests.push_back({"xrpc://p" + std::to_string(i % 4), MakeRequest()});
    }
    auto responses = client.ExecuteBulkAll(std::move(dests));
    ASSERT_TRUE(responses.ok()) << responses.status();
    ASSERT_EQ(responses->size(), 8u);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ((*responses)[i].results[0].size(),
                static_cast<size_t>(i % 4 + 1));
    }
  }
}

TEST_F(ParallelDispatchTest, LatencySpikeStretchesTheCriticalPath) {
  // Deterministic spike on the 2nd post: with serial dispatch the group's
  // critical path is the spiked destination's cost.
  RpcClient probe(network_.get(), {});
  ASSERT_TRUE(probe.ExecuteBulk("xrpc://p3", MakeRequest()).ok());
  int64_t base_cost = network_->clock().NowMicros();
  network_->ResetStats();

  net::FaultProfile faults;
  faults.latency_spike_every_nth = 2;
  faults.latency_spike_us = 50'000;
  network_->set_fault_profile(faults);

  RpcClient client(network_.get(), {});
  auto responses = client.ExecuteBulkAll(FourDestinations());
  ASSERT_TRUE(responses.ok()) << responses.status();
  // Post #2 and #4 pay the spike; p3 (largest reply) sets the base cost.
  EXPECT_EQ(network_->clock().NowMicros(), base_cost + 50'000);
  EXPECT_EQ(client.network_micros(), network_->clock().NowMicros());
}

TEST_F(ParallelDispatchTest, FailedDestinationDoesNotStopTheOthers) {
  // Every 2nd post fails (requests never reach p1 and p3); the other
  // destinations must still be attempted (error isolation — the old code
  // stopped at the first failure, so p2 would never have been tried) and
  // the lowest-indexed failing destination's status is what surfaces.
  net::FaultProfile faults;
  faults.fail_every_nth = 2;
  network_->set_fault_profile(faults);

  RpcClient client(network_.get(), {});
  auto responses = client.ExecuteBulkAll(FourDestinations());
  ASSERT_FALSE(responses.ok());
  EXPECT_EQ(responses.status().code(), StatusCode::kNetworkError);
  EXPECT_NE(responses.status().message().find("injected failure"),
            std::string::npos);
  EXPECT_EQ(peers_[0]->requests(), 1);
  EXPECT_EQ(peers_[1]->requests(), 0);  // post #2: dropped
  EXPECT_EQ(peers_[2]->requests(), 1);
  EXPECT_EQ(peers_[3]->requests(), 0);  // post #4: dropped too
  EXPECT_EQ(network_->faults_injected(), 2);  // posts #2 and #4
}

TEST_F(ParallelDispatchTest, TruncatedResponseSurfacesAndOthersComplete) {
  // Post #3's response is lost after the peer handled it — the nastiest
  // case for retry semantics. The group surfaces the truncation; every
  // peer still saw its request.
  net::FaultProfile faults;
  faults.truncate_every_nth = 3;
  network_->set_fault_profile(faults);

  RpcClient client(network_.get(), {});
  auto responses = client.ExecuteBulkAll(FourDestinations());
  ASSERT_FALSE(responses.ok());
  EXPECT_NE(responses.status().message().find("truncated"),
            std::string::npos);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(peers_[i]->requests(), 1) << "peer " << i;
  }
}

TEST_F(ParallelDispatchTest, PooledDispatchSurvivesRandomDrops) {
  // Seeded drop schedule under genuinely concurrent dispatch: whatever the
  // interleaving, every returned response must map to its destination and
  // nothing may crash or deadlock (TSan covers the rest).
  net::FaultProfile faults;
  faults.drop_probability = 0.3;
  faults.seed = 7;
  network_->set_fault_profile(faults);

  net::ThreadPool pool(4);
  RpcClient::Options opts;
  opts.dispatch_pool = &pool;
  int successes = 0;
  for (int round = 0; round < 10; ++round) {
    RpcClient client(network_.get(), opts);
    auto responses = client.ExecuteBulkAll(FourDestinations());
    if (!responses.ok()) {
      EXPECT_EQ(responses.status().code(), StatusCode::kNetworkError);
      continue;
    }
    ++successes;
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ((*responses)[i].results[0].size(),
                static_cast<size_t>(i + 1));
    }
  }
  // P(all 4 posts survive) ~ 0.24 per round; 10 rounds make both outcomes
  // overwhelmingly likely to appear, but only the invariants are asserted.
  EXPECT_GT(network_->faults_injected(), 0);
  (void)successes;
}

TEST_F(ParallelDispatchTest, FanoutMetricsAreRecorded) {
  net::RpcMetrics metrics;
  net::ThreadPool pool(2);
  RpcClient::Options opts;
  opts.dispatch_pool = &pool;
  opts.dispatch_metrics = &metrics;
  RpcClient client(network_.get(), opts);
  ASSERT_TRUE(client.ExecuteBulkAll(FourDestinations()).ok());
  EXPECT_EQ(metrics.fanout_groups(), 1);
  EXPECT_EQ(metrics.fanout_destinations(), 4);
  EXPECT_EQ(metrics.dispatch_max_in_flight(), 2);  // min(4 dests, 2 workers)
  EXPECT_EQ(metrics.fanout_latency().samples(), 4);
  std::string report = metrics.Report();
  EXPECT_NE(report.find("fanout:"), std::string::npos);
}

TEST(RetryJitter, ConcurrentBackoffDrawsStayWithinJitterBounds) {
  // The jitter PRNG is shared by concurrent per-destination retries; every
  // draw must stay a valid jitter factor and TSan must see no race.
  net::SimulatedNetwork net;
  net::RetryPolicy policy;
  policy.initial_backoff_us = 1000;
  policy.backoff_multiplier = 1.0;
  policy.jitter_fraction = 0.5;
  net::RetryingTransport transport(&net, policy);
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&transport, &ok] {
      for (int i = 0; i < 200; ++i) {
        int64_t b = transport.BackoffMicros(1);
        if (b < 500 || b > 1500) ok = false;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_TRUE(ok.load());
}

}  // namespace
}  // namespace xrpc
