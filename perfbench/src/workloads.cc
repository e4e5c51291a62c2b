#include "workloads.h"

#include "fuzz/differential.h"
#include "net/uri.h"
#include "xmark/shard_loader.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace xrpc::perfbench {

namespace {

constexpr int kShards = 4;
constexpr int kFilms = 64;
constexpr double kUpdateFraction = 0.2;
constexpr int kPointPersons = 1000;

constexpr char kImportB[] =
    "import module namespace b=\"functions_b\" at \"b.xq\";\n";

constexpr char kFilmModule[] = R"(
module namespace f = "bench_films";
declare updating function f:rename($i as xs:integer, $v as xs:string)
{ replace value of node doc("filmDB.xml")/films/film[$i]/name with $v };
)";
constexpr char kFilmModuleLocation[] = "bench_films.xq";

// Table 4's Q7 as a distributed semi-join, N-way over the sharded auctions:
// one Bulk RPC per shard carrying that shard's persons.
constexpr char kSemijoinBody[] = R"(
for $p in doc("persons.xml")//person
let $ca := execute at {"shard:auctions.xml"} {b:Q_B3(string($p/@id))}
return if (empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>)";

// Q7 with predicate push-down: every shard ships all its closed auctions
// and p0 joins them with persons.xml.
constexpr char kShipBody[] = R"(
for $p in doc("persons.xml")//person,
    $ca in execute at {"shard:auctions.xml"} {b:Q_B1()}
where $p/@id = $ca/buyer/@person
return <result>{$p, $ca/annotation}</result>)";

// The same answers computed locally on one peer holding both unsharded
// documents (the bodies of Q_B3 / Q_B1 inlined).
constexpr char kSemijoinOracle[] = R"(
for $p in doc("persons.xml")//person
let $ca := doc("auctions.xml")//closed_auction[./buyer/@person=string($p/@id)]
return if (empty($ca)) then ()
       else <result>{$p, $ca/annotation}</result>)";

constexpr char kShipOracle[] = R"(
for $p in doc("persons.xml")//person,
    $ca in doc("auctions.xml")//closed_auction
where $p/@id = $ca/buyer/@person
return <result>{$p, $ca/annotation}</result>)";

std::string FilmDoc(const std::vector<std::string>& names) {
  std::string out = "<films>";
  for (size_t i = 0; i < names.size(); ++i) {
    out += "<film><name>" + names[i] + "</name><actor>actor" +
           std::to_string(i + 1) + "</actor></film>";
  }
  return out + "</films>";
}

std::vector<std::string> InitialFilmNames() {
  std::vector<std::string> names;
  for (int i = 1; i <= kFilms; ++i) names.push_back("film" + std::to_string(i));
  return names;
}

/// Same SplitMix-style stream split as the library's load generator, so the
/// op stream does not share a PRNG state with the data generator.
uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t x = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  return x;
}

Op PointRead(int key) {
  Op op;
  op.key = key;
  op.text = std::string(kImportB) +
            "execute at {\"shard:auctions.xml\"} {b:Q_B3(\"person" +
            std::to_string(key) + "\")}";
  return op;
}

/// Writes `prefix<n>` into film `film` at shard peers `shard` and shard+1
/// (named "shard<k>" by LoadShardedXmark) in one repeatable-read 2PC.
Op FilmUpdate(int shard, int film, char prefix, int64_t n) {
  Op op;
  op.update = true;
  op.shard_a = shard;
  op.shard_b = (shard + 1) % kShards;
  op.film = film;
  op.value.assign(1, prefix).append(std::to_string(n));
  const std::string call = "{f:rename(" + std::to_string(film) + ", \"" +
                           op.value + "\")}";
  op.text = "declare option xrpc:isolation \"repeatable\";\n"
            "import module namespace f=\"bench_films\" at \"" +
            std::string(kFilmModuleLocation) + "\";\n";
  for (int target : {op.shard_a, op.shard_b}) {
    op.text += target == op.shard_a ? "(" : ",\n ";
    op.text += "execute at {\"xrpc://shard" + std::to_string(target) +
               "\"} " + call;
  }
  op.text += ")";
  return op;
}

}  // namespace

StatusOr<WorkloadKind> ParseWorkloadKind(const std::string& name) {
  for (WorkloadKind kind : {WorkloadKind::kPointMix, WorkloadKind::kSemijoin,
                            WorkloadKind::kShip}) {
    if (name == WorkloadName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown workload: " + name);
}

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPointMix: return "point_mix";
    case WorkloadKind::kSemijoin: return "semijoin";
    case WorkloadKind::kShip: return "ship";
  }
  return "unknown";
}

Workload::Workload(WorkloadOptions options)
    : options_(options),
      data_seed_(options.seed),
      prng_(MixSeed(options.seed, 1)),
      keys_(kPointPersons, 1.0) {
  if (options_.kind != WorkloadKind::kPointMix) options_.http = false;
}

Workload::~Workload() { Teardown(); }

void Workload::UseDataset(int index) {
  data_seed_ = MixSeed(options_.seed, 2 + static_cast<uint64_t>(index));
}

xmark::XmarkConfig Workload::DataConfig() const {
  xmark::XmarkConfig cfg;
  cfg.seed = data_seed_;
  switch (options_.kind) {
    case WorkloadKind::kPointMix:
      // Every closed auction has a generated buyer, so each point read
      // returns a few auctions (4 on average) rather than nothing.
      cfg.num_persons = kPointPersons;
      cfg.num_closed_auctions = 4000;
      cfg.num_matches = cfg.num_closed_auctions;
      cfg.annotation_bytes = 64;
      break;
    case WorkloadKind::kSemijoin:
      cfg.num_persons = 250;
      cfg.num_closed_auctions = 1000;
      cfg.num_matches = 6;
      cfg.annotation_bytes = 128;
      break;
    case WorkloadKind::kShip:
      cfg.num_persons = 250;
      cfg.num_closed_auctions = 2000;
      cfg.num_matches = 6;
      cfg.annotation_bytes = 256;
      break;
  }
  return cfg;
}

Status Workload::BuildOracle() {
  const xmark::XmarkConfig cfg = DataConfig();
  core::PeerNetwork solo_net;
  // The interpreter, not p0's relational engine: the oracle shares neither
  // the engine nor the distribution with the deployment it checks.
  core::Peer* solo = solo_net.AddPeer("solo", core::EngineKind::kInterpreter);
  XRPC_RETURN_IF_ERROR(
      solo->AddDocument("auctions.xml", xmark::GenerateAuctions(cfg)));
  XRPC_RETURN_IF_ERROR(
      solo->AddDocument("persons.xml", xmark::GeneratePersons(cfg)));
  oracle_.clear();
  switch (options_.kind) {
    case WorkloadKind::kPointMix: {
      // Every closed auction paired with its buyer, in document order: the
      // answer of Q_B3("person<k>") is the auctions paired with person<k>.
      XRPC_ASSIGN_OR_RETURN(
          core::ExecutionReport report,
          solo_net.Execute("solo",
                           "for $ca in doc(\"auctions.xml\")//closed_auction "
                           "return (string($ca/buyer/@person), $ca)"));
      oracle_.assign(kPointPersons, "");
      const std::string prefix = "person";
      for (size_t i = 0; i + 1 < report.result.size(); i += 2) {
        const std::string buyer = report.result[i].atomic().ToString();
        const xdm::Item& auction = report.result[i + 1];
        if (buyer.rfind(prefix, 0) != 0 || !auction.IsNode()) {
          return Status::Internal("oracle: unexpected point-read pairing");
        }
        const int key = std::stoi(buyer.substr(prefix.size()));
        if (key < 0 || key >= kPointPersons) continue;
        std::string& answer = oracle_[static_cast<size_t>(key)];
        if (!answer.empty()) answer += " ";
        answer += xml::SerializeNode(*auction.node());
      }
      break;
    }
    case WorkloadKind::kSemijoin:
    case WorkloadKind::kShip: {
      XRPC_ASSIGN_OR_RETURN(
          core::ExecutionReport report,
          solo_net.Execute("solo", options_.kind == WorkloadKind::kSemijoin
                                       ? kSemijoinOracle
                                       : kShipOracle));
      if (report.result.empty()) {
        return Status::Internal("oracle: Q7 has no answer");
      }
      oracle_.push_back(fuzz::NormalizeSequence(report.result));
      break;
    }
  }
  return Status::OK();
}

Status Workload::Setup(Tracer* tracer) {
  Teardown();
  const xmark::XmarkConfig cfg = DataConfig();
  net_ = std::make_unique<core::PeerNetwork>();

  xmark::ShardLoadOptions shard_options;
  shard_options.num_shards = kShards;
  shard_options.engine = options_.kind == WorkloadKind::kShip
                             ? core::EngineKind::kRelational
                             : core::EngineKind::kInterpreter;
  shard_options.replication_factor =
      options_.kind == WorkloadKind::kPointMix ? 2 : 1;
  XRPC_ASSIGN_OR_RETURN(xmark::ShardLoadResult loaded,
                        xmark::LoadShardedXmark(net_.get(), cfg, shard_options));
  shards_ = loaded.peers;

  p0_ = net_->AddPeer("p0", core::EngineKind::kRelational);
  XRPC_RETURN_IF_ERROR(p0_->RegisterModule(
      xmark::FunctionsBModuleSource(p0_->uri()), "b.xq"));
  if (options_.kind == WorkloadKind::kPointMix) {
    XRPC_RETURN_IF_ERROR(
        p0_->RegisterModule(kFilmModule, kFilmModuleLocation));
    film_names_.assign(kShards, InitialFilmNames());
    for (core::Peer* shard : shards_) {
      XRPC_RETURN_IF_ERROR(
          shard->AddDocument("filmDB.xml", FilmDoc(InitialFilmNames())));
      XRPC_RETURN_IF_ERROR(
          shard->RegisterModule(kFilmModule, kFilmModuleLocation));
    }
  } else {
    XRPC_RETURN_IF_ERROR(
        p0_->AddDocument("persons.xml", xmark::GeneratePersons(cfg)));
  }

  if (options_.http) {
    http_metrics_ = std::make_unique<net::RpcMetrics>();
    http_ = std::make_unique<net::HttpTransport>();
    http_->set_metrics(http_metrics_.get());
  }
  for (core::Peer* shard : shards_) {
    net::SoapEndpoint* endpoint = &shard->service();
    if (tracer != nullptr) {
      timers_.push_back(
          std::make_unique<TimingEndpoint>(endpoint, shard->name(), tracer));
      endpoint = timers_.back().get();
    }
    if (options_.http) {
      net::HttpServer::Options server_options;
      server_options.workers = 1;
      servers_.push_back(
          std::make_unique<net::HttpServer>(endpoint, server_options));
      XRPC_ASSIGN_OR_RETURN(int port, servers_.back()->Start(0));
      forwarders_.push_back(std::make_unique<HttpForwarder>(
          http_.get(), port, shard->name(), tracer));
      endpoint = forwarders_.back().get();
    }
    if (endpoint != &shard->service()) {
      XRPC_ASSIGN_OR_RETURN(net::XrpcUri uri, net::ParseXrpcUri(shard->uri()));
      net_->network().RegisterPeer(uri, endpoint);
    }
  }
  XRPC_RETURN_IF_ERROR(WarmUp());
  // Sabotage starts with the timed phase, after a clean warm-up.
  for (auto& forwarder : forwarders_) {
    forwarder->set_fault_every(options_.fault_every);
  }
  return Status::OK();
}

void Workload::Teardown() {
  // Client connections close first, then the servers join their workers,
  // then nothing references the peers any more.
  http_.reset();
  servers_.clear();
  forwarders_.clear();
  http_metrics_.reset();
  timers_.clear();
  shards_.clear();
  p0_ = nullptr;
  net_.reset();
}

Status Workload::Execute(const Op& op) {
  XRPC_ASSIGN_OR_RETURN(core::ExecutionReport report,
                        net_->Execute("p0", op.text));
  if (op.update) {
    if (!report.committed) {
      return Status::TransactionError("warm-up update aborted: " +
                                      report.abort_reason);
    }
    RecordCommit(op);
  } else if (!CheckAnswer(op, fuzz::NormalizeSequence(report.result))) {
    return Status::Internal("warm-up answer differs from the oracle");
  }
  return Status::OK();
}

Status Workload::WarmUp() {
  if (options_.kind != WorkloadKind::kPointMix) {
    Op op = Q7Op();
    for (int i = 0; i < 2; ++i) XRPC_RETURN_IF_ERROR(Execute(op));
    return Status::OK();
  }
  // Every shard serves reads and takes part in a 2PC before timing starts.
  for (int key = 0; key < 16; ++key) {
    XRPC_RETURN_IF_ERROR(Execute(PointRead(key)));
  }
  for (int shard = 0; shard < kShards; ++shard) {
    XRPC_RETURN_IF_ERROR(Execute(FilmUpdate(shard, shard + 1, 'w', shard)));
  }
  return Status::OK();
}

Op Workload::Q7Op() const {
  Op op;
  op.text = std::string(kImportB) + (options_.kind == WorkloadKind::kSemijoin
                                         ? kSemijoinBody
                                         : kShipBody);
  return op;
}

Op Workload::NextOp() {
  if (options_.kind != WorkloadKind::kPointMix) return Q7Op();
  if (prng_.NextDouble() < kUpdateFraction) {
    const int shard = static_cast<int>(prng_.NextUint64() % kShards);
    const int film = 1 + static_cast<int>(prng_.NextUint64() % kFilms);
    return FilmUpdate(shard, film, 'v', next_update_++);
  }
  return PointRead(keys_.Sample(prng_));
}

bool Workload::CheckAnswer(const Op& op, const std::string& normalized) const {
  if (op.update) return normalized.empty();
  return op.key >= 0 && static_cast<size_t>(op.key) < oracle_.size() &&
         oracle_[static_cast<size_t>(op.key)] == normalized;
}

void Workload::RecordCommit(const Op& op) {
  if (!op.update) return;
  for (int shard : {op.shard_a, op.shard_b}) {
    film_names_[static_cast<size_t>(shard)][static_cast<size_t>(op.film - 1)] =
        op.value;
  }
}

Status Workload::FinalCheck() const {
  if (options_.kind != WorkloadKind::kPointMix) return Status::OK();
  for (size_t k = 0; k < shards_.size(); ++k) {
    XRPC_ASSIGN_OR_RETURN(xml::NodePtr actual,
                          shards_[k]->database().GetDocument("filmDB.xml"));
    XRPC_ASSIGN_OR_RETURN(xml::NodePtr expected,
                          xml::ParseXml(FilmDoc(film_names_[k])));
    if (xml::SerializeNode(*actual) != xml::SerializeNode(*expected)) {
      return Status::Internal("film document of " + shards_[k]->name() +
                              " differs from the serial expectation");
    }
  }
  return Status::OK();
}

}  // namespace xrpc::perfbench
