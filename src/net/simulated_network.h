#ifndef XRPC_NET_SIMULATED_NETWORK_H_
#define XRPC_NET_SIMULATED_NETWORK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>

#include "base/clock.h"
#include "base/prng.h"
#include "net/rpc_metrics.h"
#include "net/transport.h"
#include "net/uri.h"

namespace xrpc::net {

/// Wire model of the simulated network.
///
/// The paper's testbed is two machines on 1 Gb/s Ethernet; the defaults
/// model that LAN: ~100 us round-trip-half latency and 125 bytes/us
/// (= 1 Gb/s) of bandwidth. A WAN profile simply raises latency.
struct NetworkProfile {
  int64_t latency_us = 100;          ///< one-way latency per message
  double bandwidth_bytes_per_us = 125.0;

  /// Modeled one-way cost of a message of `bytes` bytes.
  int64_t MessageCost(size_t bytes) const {
    return latency_us +
           static_cast<int64_t>(static_cast<double>(bytes) /
                                bandwidth_bytes_per_us);
  }
};

/// Deterministic fault-injection schedule of the simulated network. All
/// "every Nth" counters share one Post() serial number (1-based, reset by
/// set_fault_profile); the drop coin flips come from a seeded PRNG, so a
/// profile reproduces the exact same fault sequence on every run.
///
/// Fault semantics mirror distinct real-world failure points:
///  - drop / fail-every-Nth: the REQUEST is lost; the destination never
///    sees it (safe to retry even for updates, though the client cannot
///    know that).
///  - truncated response: the request IS delivered and handled (server
///    side effects happen!) but the RESPONSE is lost — the failure mode
///    that makes blind retransmission of updating calls unsound.
///  - latency spike: the exchange succeeds but pays `latency_spike_us`
///    extra wire time (what a per-request timeout turns into a failure).
struct FaultProfile {
  double drop_probability = 0.0;     ///< P(request lost), per Post()
  uint64_t seed = 1;                 ///< PRNG seed for the drop coin flips
  int fail_every_nth = 0;            ///< 0 = off; n: every nth Post fails
  int truncate_every_nth = 0;        ///< 0 = off; n: every nth response lost
  int latency_spike_every_nth = 0;   ///< 0 = off; n: every nth Post is slow
  int64_t latency_spike_us = 0;      ///< extra wire time on a spike

  bool Active() const {
    return drop_probability > 0 || fail_every_nth > 0 ||
           truncate_every_nth > 0 || latency_spike_every_nth > 0;
  }
};

/// In-process transport connecting registered peers, with a deterministic
/// virtual-time cost model and failure injection.
///
/// Post() accounts 2 one-way message costs (request + response) plus the
/// server handler's execution; the cost is returned in
/// PostResult::network_micros and also accumulated on the global virtual
/// clock (which therefore reflects *serialized* network time — callers
/// dispatching in parallel take the max of per-destination costs instead).
class SimulatedNetwork : public Transport {
 public:
  explicit SimulatedNetwork(NetworkProfile profile = {})
      : profile_(profile), fault_prng_(fault_profile_.seed) {}

  SimulatedNetwork(const SimulatedNetwork&) = delete;
  SimulatedNetwork& operator=(const SimulatedNetwork&) = delete;

  /// Registers (or replaces) the SOAP endpoint of peer `host:port`.
  void RegisterPeer(const XrpcUri& address, SoapEndpoint* endpoint);

  /// Makes a peer unreachable (connection refused) until re-registered.
  void DisconnectPeer(const XrpcUri& address);

  /// Queues a one-shot failure: each queued status fails one subsequent
  /// Post() (FIFO), before the request reaches the destination.
  void FailNextPost(Status status);

  /// Installs the deterministic fault-injection schedule (and resets its
  /// serial counter + PRNG). Pass {} to disable.
  void set_fault_profile(FaultProfile profile);
  const FaultProfile& fault_profile() const { return fault_profile_; }

  /// Injected faults (queued failures, drops, forced failures, truncated
  /// responses) that have fired so far.
  int64_t faults_injected() const;

  /// Optional metrics registry counting injected faults.
  void set_metrics(RpcMetrics* metrics) { metrics_ = metrics; }

  /// Deterministic membership-chaos hook: invoked at the start of every
  /// Post() with a monotonically increasing 1-based serial (NOT reset by
  /// set_fault_profile), before any network lock is taken — so the hook may
  /// call back into DisconnectPeer / RegisterPeer / set_fault_profile to
  /// mutate membership at an exact point of the request schedule. The
  /// mutation takes effect for the very Post carrying the serial.
  using PostHook = std::function<void(int64_t serial)>;
  void set_post_hook(PostHook hook) { post_hook_ = std::move(hook); }

  StatusOr<PostResult> Post(const std::string& dest_uri,
                            const std::string& body) override;

  /// Parallel fan-out group (Transport protocol): while a group is open the
  /// per-Post wire costs do NOT each advance the virtual clock; instead
  /// every Post is modeled as starting at the group's opening instant, and
  /// EndParallelGroup moves the clock to the latest per-Post completion —
  /// i.e. the group costs max-over-destinations, matching real parallel
  /// dispatch. Groups nest (a handler's own fan-out during an outer group
  /// folds into the outer one); only the outermost End advances the clock.
  void BeginParallelGroup() override;
  void EndParallelGroup() override;

  /// Simulated network statistics.
  int64_t messages_sent() const { return messages_; }
  int64_t bytes_sent() const { return bytes_sent_; }
  int64_t bytes_received() const { return bytes_received_; }
  VirtualClock& clock() { return clock_; }
  const NetworkProfile& profile() const { return profile_; }
  void set_profile(NetworkProfile profile) { profile_ = profile; }

  void ResetStats();

 private:
  /// Advances the virtual clock for one Post of modeled cost `cost_us`:
  /// directly when no parallel group is open, else by folding the Post's
  /// completion instant into the group maximum. mu_ must be held.
  void AdvanceForPostLocked(int64_t cost_us);

  NetworkProfile profile_;
  std::map<std::string, SoapEndpoint*> peers_;  // keyed by host:port
  VirtualClock clock_;
  int64_t messages_ = 0;
  int64_t bytes_sent_ = 0;
  int64_t bytes_received_ = 0;
  std::deque<Status> injected_failures_;
  FaultProfile fault_profile_;
  DeterministicPrng fault_prng_;
  int64_t fault_serial_ = 0;  ///< Post() count since set_fault_profile
  std::atomic<int64_t> post_serial_{0};  ///< lifetime Post() count (hook arg)
  PostHook post_hook_;
  int64_t faults_injected_ = 0;
  int parallel_depth_ = 0;        ///< open BeginParallelGroup nesting level
  int64_t group_start_us_ = 0;    ///< clock reading at the outermost Begin
  int64_t group_max_end_us_ = 0;  ///< latest modeled completion in the group
  RpcMetrics* metrics_ = nullptr;
  mutable std::mutex mu_;
};

}  // namespace xrpc::net

#endif  // XRPC_NET_SIMULATED_NETWORK_H_
