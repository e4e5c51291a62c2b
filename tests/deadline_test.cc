// End-to-end deadline propagation, cooperative cancellation, and per-peer
// circuit breaking:
//  - CancellationToken semantics (explicit trip, deadline self-trip,
//    remaining-budget reads);
//  - CircuitBreaker state machine under a manual clock (closed -> open ->
//    half-open probe -> closed / re-open);
//  - RetryingTransport budget accounting (per-attempt timeouts derived
//    from the remaining budget, retries stopping at exhaustion, open
//    circuits short-circuiting without a dial, timeouts aging the breaker);
//  - the RpcMetrics report format for the new counters;
//  - the full A -> B -> C relocation chain: a hung (slow) or dead peer C
//    makes the caller fail with DeadlineExceeded within the original
//    budget, B's engine observes cancellation and releases its
//    repeatable-read session, and a breaker in front of a dead peer
//    short-circuits bulk fan-out without dialing.

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "base/cancellation.h"
#include "core/peer_network.h"
#include "net/circuit_breaker.h"
#include "net/retrying_transport.h"
#include "net/rpc_metrics.h"
#include "soap/message.h"
#include "xdm/item.h"

namespace xrpc::core {
namespace {

// ---------------------------------------------------------------------------
// CancellationToken
// ---------------------------------------------------------------------------

TEST(CancellationToken, StartsLiveWithUnboundedBudget) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.CheckCancelled().ok());
  EXPECT_EQ(token.RemainingMicros(), std::numeric_limits<int64_t>::max());
}

TEST(CancellationToken, ExplicitCancelFirstTripWins) {
  CancellationToken token;
  token.Cancel(Status::Cancelled("killed by admin"));
  token.Cancel(Status::DeadlineExceeded("too late"));  // ignored
  EXPECT_TRUE(token.cancelled());
  Status s = token.CheckCancelled();
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
  EXPECT_NE(s.message().find("killed by admin"), std::string::npos);
}

TEST(CancellationToken, DeadlineTripsOnPollOnce_ClockReachesExpiry) {
  int64_t now = 0;
  CancellationToken token;
  token.ArmDeadline(1000, [&now] { return now; });
  now = 999;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.RemainingMicros(), 1);
  now = 1000;
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.CheckCancelled().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(token.RemainingMicros(), 0);
  // The trip latches: rolling the clock back does not revive the token.
  now = 0;
  EXPECT_TRUE(token.cancelled());
}

// ---------------------------------------------------------------------------
// CircuitBreaker state machine (manual clock)
// ---------------------------------------------------------------------------

net::CircuitBreaker::Policy BreakerPolicy(int threshold, int64_t cooldown_us) {
  net::CircuitBreaker::Policy p;
  p.failure_threshold = threshold;
  p.cooldown_us = cooldown_us;
  return p;
}

class CircuitBreakerTest : public ::testing::Test {
 protected:
  CircuitBreakerTest()
      : breaker_(BreakerPolicy(3, 1000), [this] { return now_; }) {}

  int64_t now_ = 0;
  net::CircuitBreaker breaker_;
};

TEST_F(CircuitBreakerTest, OpensAfterConsecutiveFailuresOnly) {
  const std::string peer = "xrpc://y";
  EXPECT_TRUE(breaker_.Allow(peer));
  breaker_.RecordFailure(peer);
  breaker_.RecordFailure(peer);
  // A success resets the consecutive-failure count.
  breaker_.RecordSuccess(peer);
  breaker_.RecordFailure(peer);
  breaker_.RecordFailure(peer);
  EXPECT_EQ(breaker_.GetState(peer), net::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker_.Allow(peer));
  breaker_.RecordFailure(peer);  // third consecutive
  EXPECT_EQ(breaker_.GetState(peer), net::CircuitBreaker::State::kOpen);
  EXPECT_FALSE(breaker_.Allow(peer));
}

TEST_F(CircuitBreakerTest, HalfOpenAdmitsExactlyOneProbe) {
  const std::string peer = "xrpc://y";
  for (int i = 0; i < 3; ++i) breaker_.RecordFailure(peer);
  now_ = 999;
  EXPECT_FALSE(breaker_.Allow(peer));  // cooldown not yet over
  now_ = 1001;
  EXPECT_TRUE(breaker_.Allow(peer));  // the probe
  EXPECT_EQ(breaker_.GetState(peer), net::CircuitBreaker::State::kHalfOpen);
  EXPECT_FALSE(breaker_.Allow(peer));  // probe still in flight
  breaker_.RecordSuccess(peer);
  EXPECT_EQ(breaker_.GetState(peer), net::CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker_.Allow(peer));
}

TEST_F(CircuitBreakerTest, FailedProbeReopensForAnotherCooldown) {
  const std::string peer = "xrpc://y";
  for (int i = 0; i < 3; ++i) breaker_.RecordFailure(peer);
  now_ = 2000;
  EXPECT_TRUE(breaker_.Allow(peer));
  breaker_.RecordFailure(peer);  // probe failed
  EXPECT_EQ(breaker_.GetState(peer), net::CircuitBreaker::State::kOpen);
  now_ = 2999;
  EXPECT_FALSE(breaker_.Allow(peer));  // full new cooldown from the re-open
  now_ = 3001;
  EXPECT_TRUE(breaker_.Allow(peer));
  breaker_.RecordSuccess(peer);
  EXPECT_EQ(breaker_.GetState(peer), net::CircuitBreaker::State::kClosed);
}

TEST_F(CircuitBreakerTest, PeersAgeIndependently) {
  for (int i = 0; i < 3; ++i) breaker_.RecordFailure("xrpc://y");
  EXPECT_FALSE(breaker_.Allow("xrpc://y"));
  EXPECT_TRUE(breaker_.Allow("xrpc://z"));
  EXPECT_EQ(breaker_.GetState("xrpc://z"), net::CircuitBreaker::State::kClosed);
}

TEST_F(CircuitBreakerTest, TransitionsAndShortCircuitsLandInMetrics) {
  net::RpcMetrics metrics;
  breaker_.set_metrics(&metrics);
  const std::string peer = "xrpc://y";
  for (int i = 0; i < 3; ++i) breaker_.RecordFailure(peer);
  EXPECT_EQ(metrics.breaker_opens(), 1);
  EXPECT_FALSE(breaker_.Allow(peer));
  EXPECT_FALSE(breaker_.Allow(peer));
  EXPECT_EQ(metrics.breaker_short_circuits(), 2);
  now_ = 1001;
  EXPECT_TRUE(breaker_.Allow(peer));
  EXPECT_EQ(metrics.breaker_half_opens(), 1);
  breaker_.RecordSuccess(peer);
  EXPECT_EQ(metrics.breaker_closes(), 1);
}

// ---------------------------------------------------------------------------
// RetryingTransport: deadline budgets + breaker feeding
// ---------------------------------------------------------------------------

/// Inner transport replaying a scripted sequence of outcomes; the last
/// step repeats once the script is exhausted.
class ScriptedTransport : public net::Transport {
 public:
  struct Step {
    Status status = Status::OK();
    int64_t micros = 0;
  };

  StatusOr<net::PostResult> Post(const std::string& dest_uri,
                                 const std::string&) override {
    ++posts;
    last_dest = dest_uri;
    if (steps.empty()) return Status::NetworkError("unscripted post");
    Step s = steps.front();
    if (steps.size() > 1) steps.erase(steps.begin());
    if (!s.status.ok()) return s.status;
    net::PostResult r;
    r.body = "<ok/>";
    r.network_micros = s.micros;
    return r;
  }

  std::vector<Step> steps;
  int posts = 0;
  std::string last_dest;
};

std::string BodyWithBudget(int64_t micros) {
  return "<env:Envelope><env:Header><xrpc:deadline>" +
         std::to_string(micros) +
         "</xrpc:deadline></env:Header><env:Body/></env:Envelope>";
}

TEST(RetryingTransportDeadline, ExtractDeadlineMicrosSniffsTheHeader) {
  EXPECT_EQ(net::RetryingTransport::ExtractDeadlineMicros(BodyWithBudget(250)),
            std::optional<int64_t>(250));
  EXPECT_FALSE(net::RetryingTransport::ExtractDeadlineMicros(
                   "<env:Envelope><env:Body/></env:Envelope>")
                   .has_value());
  EXPECT_FALSE(net::RetryingTransport::ExtractDeadlineMicros(
                   "<xrpc:deadline>soon</xrpc:deadline>")
                   .has_value());
  EXPECT_FALSE(net::RetryingTransport::ExtractDeadlineMicros(
                   "<xrpc:deadline>-5</xrpc:deadline>")
                   .has_value());
}

net::RetryPolicy NoJitterPolicy(int attempts, int64_t backoff_us,
                                int64_t timeout_us) {
  net::RetryPolicy p;
  p.max_attempts = attempts;
  p.initial_backoff_us = backoff_us;
  p.backoff_multiplier = 2.0;
  p.jitter_fraction = 0.0;
  p.request_timeout_us = timeout_us;
  return p;
}

TEST(RetryingTransportDeadline, ReplySlowerThanBudgetIsDeadlineExceeded) {
  ScriptedTransport inner;
  inner.steps.push_back({Status::OK(), 10'000});
  net::RpcMetrics metrics;
  net::RetryingTransport transport(&inner,
                                   NoJitterPolicy(3, 100, /*timeout=*/0),
                                   &metrics);
  auto result = transport.Post("xrpc://y", BodyWithBudget(5'000));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(inner.posts, 1);  // a budget-bound timeout is final, not retried
  EXPECT_EQ(metrics.timeouts(), 1);
  EXPECT_EQ(metrics.deadline_client_exceeded(), 1);
}

TEST(RetryingTransportDeadline, PolicyTimeoutStillRetriesWithinBudget) {
  ScriptedTransport inner;
  inner.steps.push_back({Status::OK(), 5'000});  // abandoned: over timeout
  inner.steps.push_back({Status::OK(), 500});    // retry succeeds
  net::RpcMetrics metrics;
  net::RetryingTransport transport(
      &inner, NoJitterPolicy(3, 100, /*timeout=*/1'000), &metrics);
  auto result = transport.Post("xrpc://y", BodyWithBudget(1'000'000));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(inner.posts, 2);
  EXPECT_EQ(metrics.timeouts(), 1);
  EXPECT_EQ(metrics.deadline_client_exceeded(), 0);
}

TEST(RetryingTransportDeadline, RetriesNeverOutliveTheBudget) {
  ScriptedTransport inner;
  inner.steps.push_back({Status::NetworkError("refused"), 0});
  net::RpcMetrics metrics;
  // Backoffs 4000, 8000: the second backoff would cross the 5000us budget,
  // so the transport gives up after two dials instead of five.
  net::RetryingTransport transport(&inner,
                                   NoJitterPolicy(5, 4'000, /*timeout=*/0),
                                   &metrics);
  auto result = transport.Post("xrpc://y", BodyWithBudget(5'000));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(inner.posts, 2);
  EXPECT_EQ(metrics.deadline_client_exceeded(), 1);
}

TEST(RetryingTransportDeadline, ExhaustedBudgetFailsWithoutDialing) {
  ScriptedTransport inner;
  net::RetryingTransport transport(&inner, NoJitterPolicy(3, 100, 0));
  auto result = transport.Post("xrpc://y", BodyWithBudget(0));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(inner.posts, 0);
}

TEST(RetryingTransportDeadline, HeaderFreeEnvelopeKeepsLegacyRetries) {
  ScriptedTransport inner;
  inner.steps.push_back({Status::NetworkError("refused"), 0});
  net::RetryingTransport transport(&inner, NoJitterPolicy(3, 100, 0));
  auto result =
      transport.Post("xrpc://y", "<env:Envelope><env:Body/></env:Envelope>");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNetworkError);
  EXPECT_EQ(inner.posts, 3);  // all attempts spent, no budget in the way
}

TEST(RetryingTransportBreaker, OpenCircuitShortCircuitsWithoutDialing) {
  ScriptedTransport inner;
  inner.steps.push_back({Status::NetworkError("refused"), 0});
  net::RpcMetrics metrics;
  int64_t now = 0;
  net::CircuitBreaker breaker(BreakerPolicy(1, 1'000'000),
                              [&now] { return now; });
  breaker.set_metrics(&metrics);
  net::RetryingTransport transport(&inner, NoJitterPolicy(1, 100, 0),
                                   &metrics);
  transport.set_circuit_breaker(&breaker);

  ASSERT_FALSE(transport.Post("xrpc://y", "<a/>").ok());
  EXPECT_EQ(breaker.GetState("xrpc://y"), net::CircuitBreaker::State::kOpen);
  EXPECT_EQ(inner.posts, 1);

  auto blocked = transport.Post("xrpc://y", "<a/>");
  ASSERT_FALSE(blocked.ok());
  EXPECT_NE(blocked.status().message().find("circuit open"),
            std::string::npos);
  EXPECT_EQ(inner.posts, 1);  // no dial
  EXPECT_EQ(metrics.breaker_short_circuits(), 1);
}

TEST(RetryingTransportBreaker, TimeoutsAgeTheBreaker) {
  ScriptedTransport inner;
  inner.steps.push_back({Status::OK(), 50'000});  // every reply is too slow
  net::RpcMetrics metrics;
  int64_t now = 0;
  net::CircuitBreaker breaker(BreakerPolicy(2, 1'000'000),
                              [&now] { return now; });
  net::RetryingTransport transport(
      &inner, NoJitterPolicy(1, 100, /*timeout=*/1'000), &metrics);
  transport.set_circuit_breaker(&breaker);

  EXPECT_FALSE(transport.Post("xrpc://y", "<a/>").ok());
  EXPECT_EQ(breaker.GetState("xrpc://y"), net::CircuitBreaker::State::kClosed);
  EXPECT_FALSE(transport.Post("xrpc://y", "<a/>").ok());
  EXPECT_EQ(breaker.GetState("xrpc://y"), net::CircuitBreaker::State::kOpen);
  EXPECT_EQ(metrics.timeouts(), 2);
}

// ---------------------------------------------------------------------------
// RpcMetrics report format regression
// ---------------------------------------------------------------------------

TEST(RpcMetricsReport, CarriesBreakerAndDeadlineLines) {
  net::RpcMetrics m;
  m.RecordBreakerOpen();
  m.RecordBreakerHalfOpen();
  m.RecordBreakerClose();
  m.RecordBreakerShortCircuit("xrpc://c");
  m.RecordBreakerShortCircuit("xrpc://c");
  m.RecordDeadlineExceeded("xrpc://c");
  m.RecordServerDeadlineReject("xrpc://b");
  m.RecordCancellation();
  m.RecordCancellation();
  m.RecordCancellation();
  m.RecordSessionReleased();
  const std::string report = m.Report();
  EXPECT_NE(
      report.find("breaker: opens=1 half_opens=1 closes=1 short_circuits=2"),
      std::string::npos)
      << report;
  EXPECT_NE(report.find("deadline: client_exceeded=1 server_rejects=1 "
                        "cancellations=3 sessions_released=1"),
            std::string::npos)
      << report;

  m.Reset();
  const std::string reset = m.Report();
  EXPECT_NE(
      reset.find("breaker: opens=0 half_opens=0 closes=0 short_circuits=0"),
      std::string::npos)
      << reset;
  EXPECT_NE(reset.find("deadline: client_exceeded=0 server_rejects=0 "
                       "cancellations=0 sessions_released=0"),
            std::string::npos)
      << reset;
}

// ---------------------------------------------------------------------------
// Integration: A -> B -> C relocation chain under deadlines
// ---------------------------------------------------------------------------

constexpr char kFilmDb[] =
    "<films>"
    "<film><name>Sound Of Music</name><actor>Julie Andrews</actor></film>"
    "</films>";

constexpr char kFilmModule[] = R"(
  module namespace film = "films";
  declare function film:filmsByActor($actor as xs:string) as node()*
  { doc("filmDB.xml")//name[../actor=$actor] };
)";

/// B's forwarding module: fan($n) issues $n nested one-at-a-time
/// relocations to C (B runs the tree-walking interpreter, so each
/// iteration is a separate request that advances the virtual clock —
/// giving B's armed deadline a chance to trip mid-loop).
constexpr char kForwardModule[] = R"(
  module namespace fwd = "forward";
  import module namespace film = "films" at "http://x.example.org/film.xq";
  declare function fwd:fan($n as xs:integer) as xs:integer
  { count(for $i in (1 to $n)
          return execute at {"xrpc://c.example.org"}
                 {film:filmsByActor("Julie Andrews")}) };
)";

/// The `for` wrapper makes the query non-simple, so it travels with a
/// queryID and B opens a repeatable-read session for it.
constexpr char kChainQuery[] = R"(
  declare option xrpc:isolation "repeatable";
  import module namespace w = "forward" at "http://b.example.org/fwd.xq";
  for $i in (1)
  return execute at {"xrpc://b.example.org"} {w:fan(40)})";

class DeadlineChainTest : public ::testing::Test {
 protected:
  DeadlineChainTest() {
    a_ = net_.AddPeer("a.example.org", EngineKind::kInterpreter);
    b_ = net_.AddPeer("b.example.org", EngineKind::kInterpreter);
    c_ = net_.AddPeer("c.example.org", EngineKind::kInterpreter);
    EXPECT_TRUE(c_->AddDocument("filmDB.xml", kFilmDb).ok());
    for (Peer* p : {a_, b_, c_}) {
      EXPECT_TRUE(
          p->RegisterModule(kFilmModule, "http://x.example.org/film.xq").ok());
    }
    for (Peer* p : {a_, b_}) {
      EXPECT_TRUE(
          p->RegisterModule(kForwardModule, "http://b.example.org/fwd.xq")
              .ok());
    }
  }

  PeerNetwork net_;
  Peer* a_;
  Peer* b_;
  Peer* c_;
};

TEST_F(DeadlineChainTest, ChainSucceedsWithoutAndWithGenerousDeadline) {
  auto report = net_.Execute("a.example.org", kChainQuery);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(xdm::SequenceToString(report->result), "40");

  ExecuteOptions opts;
  opts.deadline_us = 60'000'000;  // one virtual minute: never expires
  report = net_.Execute("a.example.org", kChainQuery, opts);
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(xdm::SequenceToString(report->result), "40");
  EXPECT_EQ(net_.metrics().cancellations(), 0);
  // Successful repeatable-read queries leave their snapshot sessions to
  // the normal expiry path (one per run) — the contrast with the
  // immediate release a cancellation triggers.
  EXPECT_EQ(b_->service().isolation().active_sessions(), 2u);
}

TEST_F(DeadlineChainTest, HungPeerTripsMidChainWithinBudgetAndReleasesSession) {
  // Every post toward the hung C pays a 20ms latency spike; the 40-call
  // fan at B would take ~0.8 virtual seconds end to end.
  net::FaultProfile faults;
  faults.latency_spike_every_nth = 1;
  faults.latency_spike_us = 20'000;
  net_.network().set_fault_profile(faults);

  // Control: without a deadline the chain limps through the spikes.
  const int64_t control_start = net_.network().clock().NowMicros();
  auto control = net_.Execute("a.example.org", kChainQuery);
  ASSERT_TRUE(control.ok()) << control.status();
  const int64_t control_elapsed =
      net_.network().clock().NowMicros() - control_start;
  EXPECT_GT(control_elapsed, 500'000);
  // The control run's session lingers until expiry; the cancelled run
  // below must not add another one.
  const size_t sessions_before = b_->service().isolation().active_sessions();

  // With a 100ms budget, B's token trips after a handful of nested hops.
  constexpr int64_t kBudgetUs = 100'000;
  ExecuteOptions opts;
  opts.deadline_us = kBudgetUs;
  const int64_t start = net_.network().clock().NowMicros();
  auto report = net_.Execute("a.example.org", kChainQuery, opts);
  const int64_t elapsed = net_.network().clock().NowMicros() - start;

  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded)
      << report.status();
  // Bounded overshoot: the budget plus the in-flight hop that was on the
  // wire when the token tripped (spike-sized), with slack for the reply
  // legs — far below the 800ms an uncancelled run needs.
  EXPECT_LE(elapsed, kBudgetUs + 100'000);
  EXPECT_LT(elapsed, control_elapsed / 2);

  // B observed the cancellation and released its repeatable-read session
  // immediately instead of waiting for expiry.
  EXPECT_EQ(b_->service().isolation().active_sessions(), sessions_before);
  EXPECT_GE(net_.metrics().cancellations(), 1);
  EXPECT_GE(net_.metrics().sessions_released(), 1);
  EXPECT_GE(net_.metrics().deadline_client_exceeded() +
                net_.metrics().cancellations(),
            1);
}

TEST_F(DeadlineChainTest, RelationalExecCancelsPromptlyAndReleasesSession) {
  // Same hung-C topology, but p0 runs the loop-lifted relational engine:
  // its operators poll the cancellation token (DESIGN.md §15), so a
  // tripped deadline must still fail the query within its budget and
  // release B's repeatable-read session immediately.
  Peer* r = net_.AddPeer("r.example.org", EngineKind::kRelational);
  ASSERT_TRUE(
      r->RegisterModule(kFilmModule, "http://x.example.org/film.xq").ok());
  ASSERT_TRUE(
      r->RegisterModule(kForwardModule, "http://b.example.org/fwd.xq").ok());

  net::FaultProfile faults;
  faults.latency_spike_every_nth = 1;
  faults.latency_spike_us = 20'000;
  net_.network().set_fault_profile(faults);

  // Control: without a deadline the chain completes on the relational
  // engine (no interpreter fallback — the loop-lifted operators ran).
  auto control = net_.Execute("r.example.org", kChainQuery);
  ASSERT_TRUE(control.ok()) << control.status();
  EXPECT_TRUE(control->used_relational);
  EXPECT_FALSE(control->fell_back);
  EXPECT_EQ(xdm::SequenceToString(control->result), "40");
  const size_t sessions_before = b_->service().isolation().active_sessions();

  constexpr int64_t kBudgetUs = 100'000;
  ExecuteOptions opts;
  opts.deadline_us = kBudgetUs;
  const int64_t start = net_.network().clock().NowMicros();
  auto report = net_.Execute("r.example.org", kChainQuery, opts);
  const int64_t elapsed = net_.network().clock().NowMicros() - start;

  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded)
      << report.status();
  EXPECT_LE(elapsed, kBudgetUs + 100'000);
  // B released the cancelled run's snapshot session instead of letting it
  // linger to expiry.
  EXPECT_EQ(b_->service().isolation().active_sessions(), sessions_before);
  EXPECT_GE(net_.metrics().cancellations(), 1);
  EXPECT_GE(net_.metrics().sessions_released(), 1);
}

TEST_F(DeadlineChainTest, ParallelExecCancelsPromptlyAndReleasesSession) {
  // The relational p0 runs with the parallel dispatch pool on: the query
  // first fans a Bulk RPC out to both forwarders (A and B) on the pool,
  // then relocates into the hung chain through B. Work already done on pool
  // workers must not stop the deadline from failing the query within its
  // budget, nor keep B's repeatable-read session (shared by the fan-out and
  // the chain hop, one query id) alive.
  constexpr char kFanThenChainQuery[] = R"(
    declare option xrpc:isolation "repeatable";
    import module namespace w = "forward" at "http://b.example.org/fwd.xq";
    let $warm := for $d in ("xrpc://a.example.org", "xrpc://b.example.org")
                 return execute at {$d} {w:fan(0)}
    for $i in (1)
    return ($warm, execute at {"xrpc://b.example.org"} {w:fan(40)}))";
  Peer* r = net_.AddPeer("r.example.org", EngineKind::kRelational);
  ASSERT_TRUE(
      r->RegisterModule(kFilmModule, "http://x.example.org/film.xq").ok());
  ASSERT_TRUE(
      r->RegisterModule(kForwardModule, "http://b.example.org/fwd.xq").ok());
  net_.EnableParallelDispatch(8);

  net::FaultProfile faults;
  faults.latency_spike_every_nth = 1;
  faults.latency_spike_us = 20'000;
  net_.network().set_fault_profile(faults);

  // Control: without a deadline the query completes on the relational
  // engine, and the pool really carried the two-destination fan-out.
  auto control = net_.Execute("r.example.org", kFanThenChainQuery);
  ASSERT_TRUE(control.ok()) << control.status();
  EXPECT_TRUE(control->used_relational);
  EXPECT_FALSE(control->fell_back);
  EXPECT_EQ(xdm::SequenceToString(control->result), "0 0 40");
  EXPECT_EQ(net_.metrics().dispatch_max_in_flight(), 2);
  const size_t sessions_before = b_->service().isolation().active_sessions();

  constexpr int64_t kBudgetUs = 100'000;
  ExecuteOptions opts;
  opts.deadline_us = kBudgetUs;
  const int64_t start = net_.network().clock().NowMicros();
  auto report = net_.Execute("r.example.org", kFanThenChainQuery, opts);
  const int64_t elapsed = net_.network().clock().NowMicros() - start;

  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded)
      << report.status();
  EXPECT_LE(elapsed, kBudgetUs + 100'000);
  EXPECT_EQ(b_->service().isolation().active_sessions(), sessions_before);
  EXPECT_GE(net_.metrics().cancellations(), 1);
  EXPECT_GE(net_.metrics().sessions_released(), 1);
}

TEST_F(DeadlineChainTest, DeadPeerFailsFastWithinBudget) {
  net_.network().DisconnectPeer(
      net::ParseXrpcUri("xrpc://c.example.org").value());
  constexpr int64_t kBudgetUs = 200'000;
  ExecuteOptions opts;
  opts.deadline_us = kBudgetUs;
  const int64_t start = net_.network().clock().NowMicros();
  auto report = net_.Execute("a.example.org", kChainQuery, opts);
  const int64_t elapsed = net_.network().clock().NowMicros() - start;
  ASSERT_FALSE(report.ok());
  EXPECT_LE(elapsed, kBudgetUs);
}

TEST_F(DeadlineChainTest, DeclaredDeadlineOptionWorksAndOptionsFieldWins) {
  net::FaultProfile faults;
  faults.latency_spike_every_nth = 1;
  faults.latency_spike_us = 20'000;
  net_.network().set_fault_profile(faults);

  const std::string query =
      R"(declare option xrpc:isolation "repeatable";
         declare option xrpc:deadline "100000";
         import module namespace w = "forward" at "http://b.example.org/fwd.xq";
         for $i in (1)
         return execute at {"xrpc://b.example.org"} {w:fan(40)})";
  auto report = net_.Execute("a.example.org", query);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDeadlineExceeded)
      << report.status();

  auto malformed = net_.Execute(
      "a.example.org",
      R"(declare option xrpc:deadline "whenever"; 1 + 1)");
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(DeadlineChainTest, ServerRejectsAlreadyExpiredRequests) {
  soap::XrpcRequest request;
  // Admission control runs right after parsing, before the module/method
  // are even resolved — so a made-up method with an exhausted budget is
  // rejected with DeadlineExceeded, not NotFound.
  request.module_ns = "m";
  request.method = "f";
  request.arity = 0;
  request.calls.emplace_back();
  request.deadline_us = 0;  // exhausted budget on arrival
  auto reply =
      net_.network().Post("xrpc://c.example.org", soap::SerializeRequest(request));
  ASSERT_TRUE(reply.ok()) << reply.status();
  auto response = soap::ParseResponse(reply->body);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status();
  EXPECT_EQ(net_.metrics().deadline_server_rejects(), 1);
}

TEST_F(DeadlineChainTest, BreakerShortCircuitsDeadPeerAndRecovers) {
  net_.EnableCircuitBreaker(BreakerPolicy(2, 500'000));
  net_.network().DisconnectPeer(
      net::ParseXrpcUri("xrpc://c.example.org").value());

  const std::string direct_query = R"(
    import module namespace f = "films" at "http://x.example.org/film.xq";
    execute at {"xrpc://c.example.org"} {f:filmsByActor("Julie Andrews")})";

  // Two consecutive dial failures open the circuit toward C.
  EXPECT_FALSE(net_.Execute("a.example.org", direct_query).ok());
  EXPECT_FALSE(net_.Execute("a.example.org", direct_query).ok());
  ASSERT_NE(net_.circuit_breaker(), nullptr);
  EXPECT_EQ(net_.circuit_breaker()->GetState("xrpc://c.example.org"),
            net::CircuitBreaker::State::kOpen);
  EXPECT_EQ(net_.metrics().breaker_opens(), 1);

  // While open, fan-out toward C is refused locally: no dial, no message.
  const int64_t messages_before = net_.network().messages_sent();
  auto blocked = net_.Execute("a.example.org", direct_query);
  ASSERT_FALSE(blocked.ok());
  EXPECT_NE(blocked.status().ToString().find("circuit open"),
            std::string::npos)
      << blocked.status();
  EXPECT_EQ(net_.network().messages_sent(), messages_before);
  EXPECT_GE(net_.metrics().breaker_short_circuits(), 1);

  // Cooldown passes and C comes back: the half-open probe succeeds and the
  // circuit closes again.
  net_.network().clock().Advance(600'000);
  net_.network().RegisterPeer(
      net::ParseXrpcUri("xrpc://c.example.org").value(), &c_->service());
  auto recovered = net_.Execute("a.example.org", direct_query);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_EQ(xdm::SequenceToString(recovered->result),
            "<name>Sound Of Music</name>");
  EXPECT_EQ(net_.circuit_breaker()->GetState("xrpc://c.example.org"),
            net::CircuitBreaker::State::kClosed);
  EXPECT_GE(net_.metrics().breaker_half_opens(), 1);
  EXPECT_GE(net_.metrics().breaker_closes(), 1);
}

}  // namespace
}  // namespace xrpc::core
