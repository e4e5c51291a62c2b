#include "core/peer_network.h"

#include <chrono>
#include <optional>

#include "base/clock.h"
#include "base/string_util.h"
#include "compiler/loop_lift.h"
#include "net/uri.h"
#include "server/query_scope.h"
#include "server/wsat.h"
#include "xquery/interpreter.h"
#include "xquery/normalize.h"
#include "xquery/parser.h"

namespace xrpc::core {

namespace {

int64_t WallClockMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void CountExecuteAt(const xquery::Expr& e, int* count, bool* in_loop) {
  if (e.kind == xquery::ExprKind::kExecuteAt) ++*count;
  if (e.kind == xquery::ExprKind::kFlwor) {
    for (const auto& c : e.clauses) {
      if (c.kind == xquery::FlworClause::Kind::kFor) *in_loop = true;
    }
  }
  for (const auto& c : e.children) {
    if (c) CountExecuteAt(*c, count, in_loop);
  }
  for (const auto& c : e.clauses) {
    if (c.expr) CountExecuteAt(*c.expr, count, in_loop);
  }
  if (e.where) CountExecuteAt(*e.where, count, in_loop);
  for (const auto& s : e.order_by) {
    if (s.key) CountExecuteAt(*s.key, count, in_loop);
  }
  if (e.ret) CountExecuteAt(*e.ret, count, in_loop);
  for (const auto& p : e.predicates) {
    if (p) CountExecuteAt(*p, count, in_loop);
  }
  for (const auto& a : e.attributes) {
    if (a) CountExecuteAt(*a, count, in_loop);
  }
  if (e.name_expr) CountExecuteAt(*e.name_expr, count, in_loop);
  for (const auto& s : e.steps) {
    for (const auto& p : s.predicates) {
      if (p) CountExecuteAt(*p, count, in_loop);
    }
  }
}

/// Compile-time detection of "simple XRPC queries" (Section 3.2): exactly
/// one non-nested XRPC call — such queries send at most one request per
/// peer and get repeatable reads without the queryID machinery.
bool IsSimpleXrpcQuery(const xquery::MainModule& query) {
  if (!query.prolog.functions.empty()) return false;  // may nest calls
  int count = 0;
  bool in_loop = false;
  CountExecuteAt(*query.body, &count, &in_loop);
  return count == 1 && !in_loop;
}

}  // namespace

const char* EngineKindToString(EngineKind kind) {
  switch (kind) {
    case EngineKind::kRelational:
      return "relational";
    case EngineKind::kRelationalNoCache:
      return "relational-nocache";
    case EngineKind::kInterpreter:
      return "interpreter";
    case EngineKind::kWrapper:
      return "wrapper";
  }
  return "unknown";
}

Peer::Peer(std::string name, EngineKind kind, net::SimulatedNetwork* network,
           net::Transport* outgoing, const Catalog* catalog)
    : name_(std::move(name)), uri_("xrpc://" + name_), kind_(kind),
      network_(network) {
  server::ExecutionEngine* engine = nullptr;
  switch (kind_) {
    case EngineKind::kRelational: {
      compiler::RelationalEngine::Options opts;
      opts.use_function_cache = true;
      relational_ = std::make_unique<compiler::RelationalEngine>(opts);
      engine = relational_.get();
      break;
    }
    case EngineKind::kRelationalNoCache: {
      compiler::RelationalEngine::Options opts;
      opts.use_function_cache = false;
      opts.registry = &registry_;
      relational_ = std::make_unique<compiler::RelationalEngine>(opts);
      engine = relational_.get();
      break;
    }
    case EngineKind::kInterpreter:
      interpreter_ = std::make_unique<server::InterpreterEngine>();
      engine = interpreter_.get();
      break;
    case EngineKind::kWrapper:
      wrapper_ = std::make_unique<wrapper::WrapperEngine>();
      engine = wrapper_.get();
      break;
  }
  service_ = std::make_unique<server::XrpcService>(
      server::XrpcService::Options{uri_, catalog}, &db_, &registry_, engine,
      outgoing);
  // Deadlines/cancellation are measured against the owning network's
  // virtual clock, so simulated latency (not host wall time) ages budgets.
  service_->set_time_source(
      [network = network_] { return network->clock().NowMicros(); });
  network_->RegisterPeer(net::ParseXrpcUri(uri_).value(), service_.get());
  (void)registry_.RegisterModule(server::SystemModuleSource());
}

void Peer::Disconnect() {
  network_->DisconnectPeer(net::ParseXrpcUri(uri_).value());
}

void Peer::Reconnect() {
  network_->RegisterPeer(net::ParseXrpcUri(uri_).value(), service_.get());
}

Status Peer::AddDocument(const std::string& doc_name,
                         std::string_view xml_text) {
  return db_.PutDocumentText(doc_name, xml_text);
}

Status Peer::AddDocumentNode(const std::string& doc_name, xml::NodePtr doc) {
  db_.PutDocument(doc_name, std::move(doc));
  return Status::OK();
}

Status Peer::RegisterModule(std::string_view source,
                            const std::string& location) {
  return registry_.RegisterModule(source, location);
}

PeerNetwork::PeerNetwork(net::NetworkProfile profile)
    : network_(profile),
      // Default policy: single attempt (no retries) so transport failures
      // keep surfacing fail-fast; set_retry_policy() opts into resilience.
      // Backoff "sleeps" advance the virtual clock — fully deterministic.
      transport_(&network_, net::RetryPolicy{.max_attempts = 1}, &metrics_,
                 [this](int64_t us) { network_.clock().Advance(us); },
                 /*jitter_seed=*/42,
                 [this] { return network_.clock().NowMicros(); }) {
  network_.set_metrics(&metrics_);
  // A RouteKey miss silently degrades pruning to broadcast; count every
  // occurrence in the shared registry (the catalog itself cannot link the
  // metrics library — it sits below it in the layering).
  catalog_.set_route_miss_listener([this](const std::string& collection) {
    metrics_.Add(net::Metric::kRouteMisses, 1, collection);
  });
}

void PeerNetwork::EnableParallelDispatch(int threads) {
  if (threads < 1) threads = 1;
  dispatch_pool_ = std::make_unique<net::ThreadPool>(threads);
}

void PeerNetwork::EnableCircuitBreaker(net::CircuitBreaker::Policy policy) {
  breaker_ = std::make_unique<net::CircuitBreaker>(
      policy, [this] { return network_.clock().NowMicros(); });
  breaker_->set_metrics(&metrics_);
  transport_.set_circuit_breaker(breaker_.get());
}

Peer* PeerNetwork::AddPeer(const std::string& name, EngineKind kind) {
  auto peer =
      std::make_unique<Peer>(name, kind, &network_, &transport_, &catalog_);
  Peer* raw = peer.get();
  peer->service_->set_metrics(&metrics_);
  peers_[name] = std::move(peer);
  return raw;
}

Peer* PeerNetwork::GetPeer(const std::string& name) {
  auto it = peers_.find(name);
  return it == peers_.end() ? nullptr : it->second.get();
}

StatusOr<ExecutionReport> PeerNetwork::Execute(const std::string& peer_name,
                                               const std::string& query_text,
                                               const ExecuteOptions& options) {
  XRPC_ASSIGN_OR_RETURN(xquery::MainModule query,
                        xquery::ParseMainModule(query_text));
  xquery::NormalizePaths(&query);
  return Execute(peer_name, query, options);
}

StatusOr<ExecutionReport> PeerNetwork::Execute(const std::string& peer_name,
                                               const xquery::MainModule& query,
                                               const ExecuteOptions& options) {
  Peer* p0 = GetPeer(peer_name);
  if (p0 == nullptr) {
    return Status::NotFound("no peer named " + peer_name);
  }

  // Query-level options (Section 2.2).
  bool repeatable = false;
  soap::QueryId qid;
  if (const std::string* iso = query.prolog.FindOption(
          std::string("{") + xml::kXrpcNs + "}isolation")) {
    if (*iso == "repeatable") {
      repeatable = true;
    } else if (*iso != "none") {
      return Status::InvalidArgument("unknown xrpc:isolation: " + *iso);
    }
  }
  if (const std::string* t = query.prolog.FindOption(
          std::string("{") + xml::kXrpcNs + "}timeout")) {
    auto parsed = soap::ParseQueryTimeout(*t);
    if (!parsed.ok()) {
      return Status::InvalidArgument("malformed xrpc:timeout option: " + *t);
    }
    qid.timeout_sec = parsed.value();
  }
  // End-to-end deadline: ExecuteOptions wins over the query's declared
  // option; 0 (neither set) keeps deadline-free behavior.
  int64_t deadline_budget_us = options.deadline_us;
  if (deadline_budget_us <= 0) {
    if (const std::string* d = query.prolog.FindOption(
            std::string("{") + xml::kXrpcNs + "}deadline")) {
      auto parsed = ParseInt64(*d);
      if (!parsed.ok() || parsed.value() < 0) {
        return Status::InvalidArgument("malformed xrpc:deadline option: " +
                                       *d);
      }
      deadline_budget_us = parsed.value();
    }
  }
  if (repeatable) {
    qid.id = peer_name + "-q" + std::to_string(next_query_serial_++);
    qid.host = p0->uri();
    qid.timestamp = WallClockMicros();
  }
  // p0 reads its live documents (no snapshot session) and may dispatch on
  // the network's pool.
  auto now = [this] { return network_.clock().NowMicros(); };
  server::QueryScope scope(
      {.self_uri = p0->uri(),
       .database = &p0->db_,
       .modules = &p0->registry_,
       .catalog = &catalog_,
       .transport = &transport_,
       .metrics = &metrics_,
       .dispatch_pool = dispatch_pool_.get(),
       .query_id = repeatable ? std::optional(qid) : std::nullopt,
       .simple_query = repeatable && IsSimpleXrpcQuery(query),
       .deadline_us = deadline_budget_us > 0 ? now() + deadline_budget_us : 0,
       .now_us = now});
  server::RpcClient& client = *scope.client();

  ExecutionReport report;
  StopWatch wall;

  const bool relational = (p0->kind_ == EngineKind::kRelational ||
                            p0->kind_ == EngineKind::kRelationalNoCache) &&
                           !options.force_one_at_a_time;
  xquery::QueryResult evaluated;
  if (relational) {
    compiler::LoopLiftConfig cfg = compiler::LoopLiftConfigFor(scope.context());
    cfg.trace_bulk_rpc = options.trace_bulk_rpc;
    cfg.enable_hoisting = !options.disable_hoisting;
    cfg.enable_join_rewrite = !options.disable_join_rewrite;
    compiler::LoopLiftedEvaluator evaluator(cfg);
    XRPC_ASSIGN_OR_RETURN(evaluated, evaluator.EvaluateQuery(query));
    report.used_relational = true;
    report.traces = evaluator.traces();
  } else {
    xquery::Interpreter interpreter(server::InterpreterConfig(scope.context()));
    XRPC_ASSIGN_OR_RETURN(evaluated, interpreter.EvaluateQuery(query));
  }
  report.result = std::move(evaluated.sequence);
  xquery::PendingUpdateList local_pul = std::move(evaluated.updates);

  report.wall_micros = wall.ElapsedMicros();
  report.network_micros = client.network_micros();
  report.remote_micros = client.remote_micros();
  report.requests_sent = client.requests_sent();
  report.participants = client.participating_peers();

  if (repeatable && client.sent_updating()) {
    // Distributed atomic commit over WS-AtomicTransaction (Section 2.3),
    // coordinated by the originating peer's service; a participant whose
    // Commit stays unacknowledged is parked in doubt without failing the
    // decided transaction.
    std::vector<std::string> participants(report.participants.begin(),
                                          report.participants.end());
    XRPC_ASSIGN_OR_RETURN(server::CommitOutcome outcome,
                          p0->service().Commit(participants, qid.id));
    report.committed = outcome.committed;
    report.abort_reason = outcome.abort_reason;
    report.commit_retries = outcome.commit_retries;
    report.in_doubt = outcome.in_doubt;
    if (outcome.committed) {
      // The decision is durable; publish each written fragment's new data
      // version (piggybacked on the Prepare votes) so routing stamps it
      // into subsequent xrpc:shard scopes — a copy that missed this commit
      // then self-fences with StaleReplica until repaired (DESIGN.md §17).
      for (const server::WrittenFragment& f : outcome.fragments) {
        catalog_.AdvanceFragmentDataVersion(f.collection, f.shard_index,
                                            f.version);
      }
    }
    if (outcome.committed && !local_pul.empty()) {
      XRPC_RETURN_IF_ERROR(p0->db_.ApplyImmediate(&local_pul));
    }
  } else if (!local_pul.empty()) {
    XRPC_RETURN_IF_ERROR(p0->db_.ApplyImmediate(&local_pul));
  }
  return report;
}

}  // namespace xrpc::core
