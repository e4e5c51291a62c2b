#ifndef XRPC_CORE_PEER_NETWORK_H_
#define XRPC_CORE_PEER_NETWORK_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "base/cancellation.h"
#include "base/statusor.h"
#include "compiler/relational_engine.h"
#include "core/catalog.h"
#include "net/circuit_breaker.h"
#include "net/retrying_transport.h"
#include "net/rpc_metrics.h"
#include "net/simulated_network.h"
#include "net/thread_pool.h"
#include "server/remote_docs.h"
#include "server/rpc_client.h"
#include "server/xrpc_service.h"
#include "wrapper/wrapper_engine.h"

namespace xrpc::core {

/// Namespace of the built-in system module every peer serves (remote
/// document fetch); see server/remote_docs.h.
using server::kSystemModuleNs;

/// Which XQuery engine a peer runs.
enum class EngineKind {
  kRelational,         ///< loop-lifted relational plans + function cache
                       ///< (the MonetDB/XQuery role)
  kRelationalNoCache,  ///< same, recompiling every request (Table 2)
  kInterpreter,        ///< direct tree-walking interpretation
  kInterpreterNoCache, ///< interpretation with per-request module reparse
  kWrapper,            ///< XRPC wrapper over the interpreter (the Saxon
                       ///< role, Section 4)
};

const char* EngineKindToString(EngineKind kind);

/// One XQuery peer: database + module registry + execution engine + XRPC
/// service, addressable as xrpc://<name> on the owning PeerNetwork.
class Peer {
 public:
  Peer(std::string name, EngineKind kind, net::SimulatedNetwork* network,
       const Catalog* catalog = nullptr);

  Peer(const Peer&) = delete;
  Peer& operator=(const Peer&) = delete;

  /// Stores a document (parsed from text) in this peer's database.
  Status AddDocument(const std::string& doc_name, std::string_view xml_text);
  Status AddDocumentNode(const std::string& doc_name, xml::NodePtr doc);

  /// Registers an XQuery module this peer can execute XRPC calls against.
  Status RegisterModule(std::string_view source, const std::string& location = "");

  const std::string& name() const { return name_; }
  const std::string& uri() const { return uri_; }
  EngineKind engine_kind() const { return kind_; }

  server::Database& database() { return db_; }
  server::ModuleRegistry& registry() { return registry_; }
  server::XrpcService& service() { return *service_; }

  /// Switches this peer's transaction log to a durable WAL file.
  Status EnableWal(const std::string& path) {
    return service_->EnableWal(path);
  }

  /// Crash-harness shorthands (see XrpcService).
  void InjectCrash(server::CrashPoint point) { service_->InjectCrash(point); }
  bool crashed() const { return service_->crashed(); }

  /// Restarts the peer after a (simulated) crash: replays the WAL and —
  /// because the owning network's transport is passed along — resolves
  /// in-doubt transactions by coordinator inquiry / commit retry.
  Status Restart() { return service_->Restart(network_); }

  /// Membership chaos (DESIGN.md §14): detaches this peer from the
  /// simulated network — subsequent dials to it fail with the same
  /// kNetworkError a connection refusal produces — and re-attaches it.
  /// Unlike InjectCrash, the peer's state (database, sessions, WAL) is
  /// untouched: this models a partition or process pause, not a crash.
  void Disconnect();
  void Reconnect();

  /// Anti-entropy catch-up (DESIGN.md §17): resolves in-doubt transactions
  /// by coordinator inquiry, then resyncs every locally held fragment whose
  /// applied data version lags the catalog's authoritative one from a peer
  /// copy. Call after Reconnect() when writes may have committed during the
  /// partition (Restart() runs it automatically).
  Status Repair() { return service_->RepairReplica(network_); }

  /// Engine-specific handles (null when the peer runs another engine).
  compiler::RelationalEngine* relational_engine() { return relational_.get(); }
  wrapper::WrapperEngine* wrapper_engine() { return wrapper_.get(); }

 private:
  friend class PeerNetwork;

  std::string name_;
  std::string uri_;
  EngineKind kind_;
  net::SimulatedNetwork* network_;
  server::Database db_;
  server::ModuleRegistry registry_;
  std::unique_ptr<compiler::RelationalEngine> relational_;
  std::unique_ptr<wrapper::WrapperEngine> wrapper_;
  std::unique_ptr<server::InterpreterEngine> interpreter_;
  std::unique_ptr<server::XrpcService> service_;
};

/// Options controlling query execution at the originating peer.
struct ExecuteOptions {
  /// Capture the Figure-1 intermediate tables of every Bulk RPC.
  bool trace_bulk_rpc = false;
  /// Disable loop-lifted Bulk RPC at p0 and issue one request per
  /// `execute at` evaluation (the "one-at-a-time" comparison mechanism of
  /// Table 2).
  bool force_one_at_a_time = false;

  /// Ablation toggles for the engine optimizations (bench_ablation).
  bool disable_hoisting = false;
  bool disable_join_rewrite = false;

  /// End-to-end time budget (virtual-clock micros) of the whole query,
  /// including every relocation hop; 0 = none. A query may instead (or
  /// additionally) carry `declare option xrpc:deadline "<micros>"` — when
  /// both are set, this field wins.
  int64_t deadline_us = 0;
};

/// Everything measured about one query execution.
struct ExecutionReport {
  xdm::Sequence result;

  /// Updating queries under repeatable isolation: distributed 2PC outcome.
  bool committed = true;
  std::string abort_reason;
  int commit_retries = 0;  ///< phase-2 Commit retransmissions
  /// Participants whose Commit ack never arrived; the decision is durable
  /// on the coordinator and they are drained later (Peer::Restart /
  /// XrpcService::RetryInDoubt).
  std::vector<std::string> in_doubt;

  int64_t requests_sent = 0;
  int64_t network_micros = 0;  ///< modeled wire time (critical path)
  int64_t wall_micros = 0;     ///< measured processing time at p0
                               ///< (includes synchronous remote handling)
  int64_t remote_micros = 0;   ///< measured processing time at remote peers
  std::set<std::string> participants;

  bool used_relational = false;  ///< p0 ran the loop-lifted engine
  bool fell_back = false;        ///< relational p0 fell back to interpreter
  std::vector<compiler::BulkRpcTrace> traces;
};

/// A network of XQuery peers connected by the simulated transport — the
/// top-level handle of the library. Typical use:
///
///   PeerNetwork net;
///   Peer* x = net.AddPeer("x.example.org");
///   x->AddDocument("filmDB.xml", ...);
///   x->RegisterModule(film_module);
///   auto report = net.Execute("p0", query_with_execute_at);
class PeerNetwork {
 public:
  explicit PeerNetwork(net::NetworkProfile profile = {});

  PeerNetwork(const PeerNetwork&) = delete;
  PeerNetwork& operator=(const PeerNetwork&) = delete;

  /// Creates a peer reachable at xrpc://<name>.
  Peer* AddPeer(const std::string& name,
                EngineKind kind = EngineKind::kRelational);
  Peer* GetPeer(const std::string& name);

  net::SimulatedNetwork& network() { return network_; }

  /// The network-wide peer catalog (DESIGN.md §13). Every peer's service
  /// and every Execute() consult it; register sharded collections here
  /// (typically via xmark::LoadShardedXmark) before running queries.
  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Shared observability registry: client-side traffic (per-peer requests,
  /// retries, faults, bytes, latency histogram), server-side request counts
  /// and injected faults all land here. Dumped by the bench harness.
  net::RpcMetrics& metrics() { return metrics_; }

  /// Retry/timeout policy applied to every outgoing request of Execute().
  /// Default: one attempt (no retries), preserving fail-fast semantics.
  /// Backoff waits advance the simulated network's virtual clock, keeping
  /// executions deterministic.
  void set_retry_policy(net::RetryPolicy policy) {
    transport_.set_policy(policy);
  }
  const net::RetryPolicy& retry_policy() const { return transport_.policy(); }

  /// Attaches a per-peer circuit breaker (aged on the virtual clock) to
  /// the outgoing transport: after `failure_threshold` consecutive
  /// failures/timeouts toward one destination, further requests to it are
  /// short-circuited locally until the cooldown admits a probe. Opt-in —
  /// without this call, behavior is unchanged. Call before Execute().
  void EnableCircuitBreaker(net::CircuitBreaker::Policy policy = {});
  net::CircuitBreaker* circuit_breaker() { return breaker_.get(); }

  /// Switches multi-destination Bulk RPC dispatch from the (deterministic)
  /// serial default to genuinely parallel dispatch on a pool of `threads`
  /// workers. Modeled network time is max-over-destinations either way;
  /// what changes is wall-clock concurrency — and, under an active fault
  /// profile, the order in which concurrent requests consume the injected
  /// fault schedule (no longer deterministic). Call before Execute().
  void EnableParallelDispatch(int threads = 4);
  bool parallel_dispatch_enabled() const { return dispatch_pool_ != nullptr; }

  /// Runs `query_text` with peer `peer_name` in the p0 role: parses it,
  /// honors its declare option xrpc:isolation / xrpc:timeout, executes it
  /// on the peer's engine with loop-lifted Bulk RPC dispatch (relational
  /// peers), and — for updating queries under repeatable isolation —
  /// coordinates the WS-AT two-phase commit across all participants.
  StatusOr<ExecutionReport> Execute(const std::string& peer_name,
                                    const std::string& query_text,
                                    const ExecuteOptions& options = {});

 private:
  net::SimulatedNetwork network_;
  Catalog catalog_;
  net::RpcMetrics metrics_;
  net::RetryingTransport transport_;  ///< retry/timeout decorator over network_
  std::unique_ptr<net::CircuitBreaker> breaker_;    ///< null = disabled
  std::unique_ptr<net::ThreadPool> dispatch_pool_;  ///< null = serial dispatch
  std::map<std::string, std::unique_ptr<Peer>> peers_;
  int64_t next_query_serial_ = 1;
};

}  // namespace xrpc::core

#endif  // XRPC_CORE_PEER_NETWORK_H_
