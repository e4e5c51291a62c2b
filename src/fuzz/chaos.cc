#include "fuzz/chaos.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <utility>

#include "base/prng.h"
#include "core/peer_network.h"
#include "net/circuit_breaker.h"
#include "xdm/item.h"
#include "xml/serializer.h"
#include "xmark/shard_loader.h"
#include "xmark/xmark.h"

namespace xrpc::fuzz {

namespace {

constexpr int kNumShards = 3;

/// The fixed workload: a broadcast over every shard, so the survival of
/// the query depends on every shard having a reachable copy.
constexpr char kChaosQuery[] =
    "import module namespace b=\"functions_b\" at \"b.xq\";\n"
    "execute at {\"shard:auctions.xml\"} {b:Q_B1()}";

/// Mid-schedule write (DESIGN.md §17): each shard peer resolves
/// doc("auctions.xml") through its pinned shard scope, so the insert lands
/// on the exact fragment the call was routed to — at EVERY copy, since an
/// updating broadcast enlists the whole replica set in the 2PC. The stamp
/// element sits outside every path the read queries navigate, so the read
/// baseline is unchanged while the fragment bytes provably are.
constexpr char kUpdateModule[] = R"(
  module namespace u = "upd_chaos";
  declare updating function u:stamp()
  { insert nodes <chaos-stamp/> into doc("auctions.xml")/site };
)";

constexpr char kUpdateQuery[] =
    "declare option xrpc:isolation \"repeatable\";\n"
    "declare option xrpc:timeout \"60\";\n"
    "import module namespace u=\"upd_chaos\" at \"u.xq\";\n"
    "execute at {\"shard:auctions.xml\"} {u:stamp()}";

/// Serialized bytes of one fragment as a peer currently stores it — the
/// unit the replica-convergence invariant compares.
std::string FragmentBytes(core::Peer* peer, const std::string& doc) {
  auto d = peer->database().GetDocument(doc);
  if (!d.ok()) return "<missing: " + d.status().ToString() + ">";
  return xml::SerializeNode(*d.value());
}

std::string AuctionsFragName(int shard) {
  return "auctions.xml." + std::to_string(shard);
}

/// Virtual-time budget of every run; chaos must resolve — success or one
/// clean fault — within it. Generous: a healthy broadcast costs ~1 ms.
constexpr int64_t kDeadlineBudgetUs = 5'000'000;
/// The final message of a run may complete past the budget before the
/// expiry is observed; allow one round of wire slack beyond it.
constexpr int64_t kDeadlineSlackUs = 1'000'000;

xmark::XmarkConfig ChaosXmarkConfig() {
  xmark::XmarkConfig cfg;
  cfg.num_persons = 18;
  cfg.num_closed_auctions = 24;
  cfg.num_matches = 4;
  cfg.annotation_bytes = 8;
  return cfg;
}

/// SplitMix-style mix (same construction as the schedule explorer) so
/// every (seed, index) pair gets an independent sampled-dimension stream.
uint64_t MixSeed(uint64_t seed, int index) {
  uint64_t x =
      seed + 0x9e3779b97f4a7c15ull * (static_cast<uint64_t>(index) + 1);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  return x;
}

struct Fixture {
  core::PeerNetwork net;
  std::vector<core::Peer*> shard_peers;
  core::Peer* p0 = nullptr;
  Status status = Status::OK();

  Fixture(int replication_factor, bool sabotage) {
    xmark::ShardLoadOptions opts;
    opts.num_shards = kNumShards;
    opts.replication_factor = replication_factor;
    auto loaded = xmark::LoadShardedXmark(&net, ChaosXmarkConfig(), opts);
    if (!loaded.ok()) {
      status = loaded.status();
      return;
    }
    shard_peers = loaded->peers;
    p0 = net.AddPeer("p0", core::EngineKind::kRelational);
    status = p0->RegisterModule(xmark::FunctionsBModuleSource(p0->uri()),
                                "b.xq");
    for (core::Peer* p : shard_peers) {
      if (!status.ok()) break;
      status = p->RegisterModule(kUpdateModule, "u.xq");
    }
    if (status.ok()) status = p0->RegisterModule(kUpdateModule, "u.xq");
    if (sabotage) {
      // Replace shard 0's primary fragment with an empty one: any run
      // that answers from it diverges from the baseline, so the
      // byte-identity detector must fire.
      (void)shard_peers[0]->AddDocument(
          "auctions.xml.0", "<site><closed_auctions/></site>");
    }
  }
};

}  // namespace

bool ChaosSchedule::Covered(int num_shards) const {
  for (int k = 0; k < num_shards; ++k) {
    bool alive = false;
    for (int r = 0; r < replication_factor && !alive; ++r) {
      alive = (kill_mask & (1u << ((k + r) % num_shards))) == 0;
    }
    if (!alive) return false;
  }
  return true;
}

std::string ChaosSchedule::Describe() const {
  std::string out = "rf=" + std::to_string(replication_factor);
  if (kill_mask != 0) {
    out += " kill={";
    for (int k = 0; k < kNumShards; ++k) {
      if (kill_mask & (1u << k)) out += std::to_string(k);
    }
    out += "}@" + std::to_string(kill_serial);
    if (revive_serial > 0) out += " revive@" + std::to_string(revive_serial);
  }
  if (bump_serial > 0) out += " bump@" + std::to_string(bump_serial);
  if (use_breaker) out += " breaker=on";
  out += Covered(kNumShards) ? " [covered]" : " [uncovered]";
  return out;
}

ChaosExplorer::ChaosExplorer(const ChaosConfig& config) : config_(config) {
  // Chaos-free reference run: its normalized result is the byte-identity
  // baseline every surviving run must reproduce, regardless of which
  // replicas answered. Deliberately built WITHOUT sabotage.
  Fixture fx(/*replication_factor=*/1, /*sabotage=*/false);
  if (fx.status.ok()) {
    auto report = fx.net.Execute("p0", kChaosQuery);
    if (report.ok()) baseline_ = xdm::SequenceToString(report->result);
    for (int k = 0; k < kNumShards; ++k) {
      frag_baseline_.push_back(
          FragmentBytes(fx.shard_peers[k], AuctionsFragName(k)));
    }
    // The chaos-free SERIAL update: what every copy of every fragment must
    // converge to whenever a mid-schedule 2PC commits.
    auto upd = fx.net.Execute("p0", kUpdateQuery);
    if (upd.ok() && upd->committed) {
      auto again = fx.net.Execute("p0", kChaosQuery);
      if (again.ok()) {
        baseline_updated_ = xdm::SequenceToString(again->result);
      }
      for (int k = 0; k < kNumShards; ++k) {
        frag_updated_.push_back(
            FragmentBytes(fx.shard_peers[k], AuctionsFragName(k)));
      }
    }
  }
}

ChaosExplorer::~ChaosExplorer() = default;

// Grid dimensions: rf {1,2} x kill {none,0,1,01} x kill instant {pre,2,4}
// x revive {never, kill+3} x bump {off,3} x breaker {off,on}.
constexpr int kKillMasks[] = {0, 1, 2, 3};
constexpr int kKillSerials[] = {0, 2, 4};

int ChaosExplorer::GridSize() const { return 2 * 4 * 3 * 2 * 2 * 2; }

ChaosSchedule ChaosExplorer::MakeSchedule(int index) const {
  ChaosSchedule s;
  s.seed = config_.seed;
  s.index = index;

  if (index < GridSize()) {
    int k = index;
    s.replication_factor = 1 + k % 2;
    k /= 2;
    s.kill_mask = static_cast<uint32_t>(kKillMasks[k % 4]);
    k /= 4;
    s.kill_serial = kKillSerials[k % 3];
    k /= 3;
    if ((k % 2) == 1 && s.kill_mask != 0) {
      s.revive_serial = s.kill_serial + 3;
    }
    k /= 2;
    if ((k % 2) == 1) s.bump_serial = 3;
    k /= 2;
    s.use_breaker = (k % 2) == 1;
    if (s.kill_mask == 0) s.kill_serial = 0;  // canonicalize no-kill points
    return s;
  }

  // Sampled region: wider ranges, including kill-everything masks and
  // replication factor 3 (every peer holds every fragment).
  DeterministicPrng prng(MixSeed(config_.seed, index));
  auto below = [&prng](uint64_t n) {
    return static_cast<int>(prng.NextUint64() % n);
  };
  s.replication_factor = 1 + below(3);
  s.kill_mask = static_cast<uint32_t>(below(8));
  if (s.kill_mask != 0) {
    s.kill_serial = below(7);
    if (below(2) == 0) s.revive_serial = s.kill_serial + 1 + below(4);
  }
  if (below(2) == 0) s.bump_serial = 1 + below(5);
  s.use_breaker = below(2) == 0;
  return s;
}

ChaosResult ChaosExplorer::RunSchedule(const ChaosSchedule& schedule) {
  ChaosResult r;
  r.schedule = schedule;
  r.covered = schedule.Covered(kNumShards);
  ++stats_.explored;

  auto fail = [&r](const std::string& invariant, const std::string& detail) {
    r.ok = false;
    r.violations.push_back(invariant + ": " + detail);
  };

  Fixture fx(schedule.replication_factor, config_.sabotage_divergence);
  if (!fx.status.ok()) {
    fail("fixture", fx.status.ToString());
    ++stats_.violations;
    return r;
  }
  if (schedule.use_breaker) {
    net::CircuitBreaker::Policy policy;
    policy.failure_threshold = 2;
    policy.cooldown_us = 200'000;
    fx.net.EnableCircuitBreaker(policy);
  }

  auto apply_kill = [&] {
    for (int k = 0; k < kNumShards; ++k) {
      if (schedule.kill_mask & (1u << k)) fx.shard_peers[k]->Disconnect();
    }
  };
  if (schedule.kill_mask != 0 && schedule.kill_serial == 0) apply_kill();
  fx.net.network().set_post_hook([&](int64_t serial) {
    if (schedule.kill_mask != 0 && schedule.kill_serial > 0 &&
        serial == schedule.kill_serial) {
      apply_kill();
    }
    if (schedule.kill_mask != 0 && schedule.revive_serial > 0 &&
        serial == schedule.revive_serial) {
      for (int k = 0; k < kNumShards; ++k) {
        if (schedule.kill_mask & (1u << k)) fx.shard_peers[k]->Reconnect();
      }
    }
    if (schedule.bump_serial > 0 && serial == schedule.bump_serial) {
      // Identical re-registration: only the version moves, so a fenced
      // query re-routes once and then MUST succeed on the same shard map.
      core::ShardedCollection c;
      int64_t version = 0;
      if (fx.net.catalog().Snapshot("persons.xml", &c, &version)) {
        (void)fx.net.catalog().RegisterCollection(std::move(c));
      }
    }
  });

  // Mid-schedule write (config.with_updates): the updating broadcast runs
  // FIRST under the armed chaos schedule, so kills, revives, and catalog
  // bumps land mid-2PC. Which baseline the later read (and the convergence
  // check) must match depends on the commit outcome — all-or-nothing means
  // there is no third possibility.
  if (config_.with_updates) {
    if (frag_updated_.size() != static_cast<size_t>(kNumShards)) {
      fail("fixture", "no chaos-free updated baseline available");
      ++stats_.violations;
      return r;
    }
    core::ExecuteOptions update_options;
    update_options.deadline_us = kDeadlineBudgetUs;
    const int64_t u_start = fx.net.network().clock().NowMicros();
    auto upd = fx.net.Execute("p0", kUpdateQuery, update_options);
    const int64_t u_elapsed =
        fx.net.network().clock().NowMicros() - u_start;
    r.update_ran = true;
    if (upd.ok() && upd->committed) {
      r.update_committed = true;
      ++stats_.updates_committed;
    } else {
      ++stats_.updates_aborted;
      // 7. Update-survival: with no kills and no catalog bump scheduled,
      //    nothing may abort the write (all copies reachable throughout).
      //    A racing bump is a legitimate abort: an updating broadcast
      //    never re-dispatches after the StaleCatalog fence — destinations
      //    that accepted the first attempt already staged the call, so a
      //    re-route would commit them twice.
      if (schedule.kill_mask == 0 && schedule.bump_serial == 0) {
        fail("update-survival",
             "update failed with no kills scheduled: " +
                 (upd.ok() ? upd->abort_reason : upd.status().ToString()));
      }
    }
    // 4. No-hang applies to the write as well.
    if (u_elapsed > kDeadlineBudgetUs + kDeadlineSlackUs) {
      fail("no-hang", "update consumed " + std::to_string(u_elapsed) +
                          "us of a " + std::to_string(kDeadlineBudgetUs) +
                          "us budget");
    }
  }
  const std::string& want_result =
      r.update_committed ? baseline_updated_ : baseline_;

  const int64_t start_us = fx.net.network().clock().NowMicros();
  const int64_t reroutes_before =
      fx.net.metrics().Get(net::Metric::kStaleCatalogReroutes);
  core::ExecuteOptions exec_options;
  exec_options.deadline_us = kDeadlineBudgetUs;
  auto report = fx.net.Execute("p0", kChaosQuery, exec_options);
  r.elapsed_us = fx.net.network().clock().NowMicros() - start_us;
  r.failover_successes = fx.net.metrics().Get(net::Metric::kFailoverSuccesses);
  r.stale_reroutes =
      fx.net.metrics().Get(net::Metric::kStaleCatalogReroutes) -
      reroutes_before;
  stats_.failover_successes += r.failover_successes;
  stats_.stale_reroutes += r.stale_reroutes;

  if (report.ok()) {
    r.query_ok = true;
    r.outcome = xdm::SequenceToString(report->result);
    ++stats_.survived;
    // 1. Byte-identity: whichever replicas answered, the merged result is
    //    indistinguishable from the chaos-free run (with the update folded
    //    in iff its 2PC committed).
    if (r.outcome != want_result) {
      fail("byte-identity",
           "result diverges from the chaos-free baseline (got " +
               std::to_string(r.outcome.size()) + " bytes, want " +
               std::to_string(want_result.size()) + ")");
    }
  } else {
    r.outcome = report.status().ToString();
    const StatusCode code = report.status().code();
    // 2. Replica-coverage: with a live copy of every shard the query has
    //    no excuse to fail — failover must have found it. (A never-killed
    //    copy is never stale either: all-copies commit reached it.)
    if (r.covered) {
      fail("replica-coverage",
           "failed although live replicas cover every shard: " + r.outcome);
    }
    // 3. Clean-fault: an uncovered loss surfaces as one retriable-class
    //    fault, nothing half-merged or internal. With a mid-schedule write,
    //    kStaleReplica joins the class: an in-doubt or lagging copy
    //    correctly refuses to serve until repaired.
    if (code != StatusCode::kNetworkError &&
        code != StatusCode::kDeadlineExceeded &&
        !(r.update_ran && code == StatusCode::kStaleReplica)) {
      fail("clean-fault", "unexpected fault class: " + r.outcome);
    } else if (r.ok) {
      ++stats_.clean_faults;
    }
  }
  // 4. No-hang: chaos or not, the query resolves within its budget.
  if (r.elapsed_us > kDeadlineBudgetUs + kDeadlineSlackUs) {
    fail("no-hang", "query consumed " + std::to_string(r.elapsed_us) +
                        "us of a " + std::to_string(kDeadlineBudgetUs) +
                        "us budget");
  }
  // 5. Single-reroute: one epoch fence means one refetch + re-dispatch.
  if (r.stale_reroutes > 1) {
    fail("single-reroute",
         std::to_string(r.stale_reroutes) + " catalog re-routes in one query");
  }

  // 6. Replica-convergence, after quiesce: stop firing events, heal every
  //    partition, drain in-doubt 2PC state (coordinator retry first, then
  //    each peer's inquiry + anti-entropy repair) — after which EVERY copy
  //    of every auctions fragment must be byte-identical to the chaos-free
  //    serial state. Not merely "all copies agree": agreeing on a wrong
  //    state (e.g. a torn or double-applied PUL) must fire too.
  fx.net.network().set_post_hook(nullptr);
  if (config_.sabotage_primary_only_write) {
    // Self-test: a write that bypasses 2PC and versioning touches only the
    // primary. Repair sees no version lag, so it must NOT mask the
    // divergence — the convergence detector has to fire.
    (void)fx.shard_peers[0]->AddDocument(
        AuctionsFragName(0),
        "<site><closed_auctions><sabotaged/></closed_auctions></site>");
  }
  for (int k = 0; k < kNumShards; ++k) {
    if (schedule.kill_mask & (1u << k)) fx.shard_peers[k]->Reconnect();
  }
  (void)fx.p0->service().RetryInDoubt(&fx.net.network());
  for (core::Peer* p : fx.shard_peers) (void)p->Repair();
  const std::vector<std::string>& want_frags =
      r.update_committed ? frag_updated_ : frag_baseline_;
  if (want_frags.size() == static_cast<size_t>(kNumShards)) {
    for (int k = 0; k < kNumShards; ++k) {
      for (int c = 0; c < schedule.replication_factor; ++c) {
        core::Peer* holder = fx.shard_peers[(k + c) % kNumShards];
        const std::string got = FragmentBytes(holder, AuctionsFragName(k));
        if (got != want_frags[k]) {
          fail("replica-convergence",
               "copy " + std::to_string(c) + " of shard " +
                   std::to_string(k) + " (at " + holder->name() +
                   ") diverges from the chaos-free serial state after "
                   "quiesce+repair (" + std::to_string(got.size()) +
                   " bytes, want " + std::to_string(want_frags[k].size()) +
                   ")");
          break;  // one violation per shard is enough signal
        }
      }
    }
  }

  if (!r.ok) ++stats_.violations;
  return r;
}

std::string FormatChaosRepro(const ChaosResult& r) {
  std::string out;
  out += "# xrpc-fuzz chaos repro\n";
  out += "seed: " + std::to_string(r.schedule.seed) + "\n";
  out += "index: " + std::to_string(r.schedule.index) + "\n";
  out += "schedule: " + r.schedule.Describe() + "\n";
  out += std::string("query: ") + (r.query_ok ? "ok" : "fault") + "\n";
  out += std::string("update: ") +
         (r.update_ran ? (r.update_committed ? "committed" : "aborted")
                       : "none") +
         "\n";
  out += "elapsed_us: " + std::to_string(r.elapsed_us) + "\n";
  out += "--- violations ---\n";
  for (const std::string& v : r.violations) out += v + "\n";
  return out;
}

// ---------------------------------------------------------------------------
// Elastic membership chaos (DESIGN.md §16)
// ---------------------------------------------------------------------------

namespace {

constexpr int kElasticShards = 4;  ///< base fleet size
constexpr int kElasticSpares = 2;  ///< joinable spare slots

std::string PointQuery(int key) {
  return "import module namespace b=\"functions_b\" at \"b.xq\";\n"
         "execute at {\"shard:auctions.xml\"} {b:Q_B3(\"person" +
         std::to_string(key) + "\")}";
}

constexpr char kPersonsProbe[] =
    "count(doc(\"shard:persons.xml\")//person)";

const char* ElasticKindName(ElasticEvent::Kind kind) {
  switch (kind) {
    case ElasticEvent::kKill: return "kill";
    case ElasticEvent::kRevive: return "revive";
    case ElasticEvent::kJoin: return "join";
    case ElasticEvent::kRebalance: return "rebalance";
    case ElasticEvent::kBump: return "bump";
  }
  return "?";
}

}  // namespace

/// The chaos-free reference deployment: the same 4-shard layout with no
/// replication and no membership events, so every scatter-gather /
/// point-read result under chaos must equal what this network answers
/// (the scatter-gather merge is shard-ordered — a different shard count
/// would order the broadcast differently). Kept alive across runs to
/// cache point baselines.
class ElasticBaseline {
 public:
  ElasticBaseline() {
    xmark::ShardLoadOptions opts;
    opts.num_shards = kElasticShards;
    auto loaded = xmark::LoadShardedXmark(&net_, ChaosXmarkConfig(), opts);
    if (!loaded.ok()) {
      status_ = loaded.status();
      return;
    }
    peers_ = loaded->peers;
    core::Peer* p0 = net_.AddPeer("p0", core::EngineKind::kRelational);
    status_ =
        p0->RegisterModule(xmark::FunctionsBModuleSource(p0->uri()), "b.xq");
    for (core::Peer* p : peers_) {
      if (status_.ok()) status_ = p->RegisterModule(kUpdateModule, "u.xq");
    }
    if (status_.ok()) status_ = p0->RegisterModule(kUpdateModule, "u.xq");
  }

  const Status& status() const { return status_; }

  std::string Run(const std::string& query) {
    auto report = net_.Execute("p0", query);
    return report.ok() ? xdm::SequenceToString(report->result)
                       : std::string();
  }

  std::string PointRead(int key) {
    auto it = point_cache_.find(key);
    if (it != point_cache_.end()) return it->second;
    std::string result = Run(PointQuery(key));
    point_cache_[key] = result;
    return result;
  }

  /// Serialized bytes of every auctions fragment, in shard order.
  std::vector<std::string> FragmentSnapshot() {
    std::vector<std::string> frags;
    for (int k = 0; k < kElasticShards; ++k) {
      frags.push_back(FragmentBytes(peers_[static_cast<size_t>(k)],
                                    AuctionsFragName(k)));
    }
    return frags;
  }

  /// Runs the serial reference update; true iff its 2PC committed. The
  /// stamp is invisible to every read query (point reads included), so
  /// the point cache stays valid across it.
  bool RunUpdate() {
    auto report = net_.Execute("p0", kUpdateQuery);
    return report.ok() && report->committed;
  }

 private:
  core::PeerNetwork net_;
  std::vector<core::Peer*> peers_;
  Status status_ = Status::OK();
  std::map<int, std::string> point_cache_;
};

namespace {

/// The live elastic deployment: 4 base shard peers (slots 0..3), 2 spare
/// slots (4..5) that exist only after a join, and the p0 frontend.
/// Fragment texts are regenerated (deterministic) so rebalance can
/// materialize a shard at its new home.
struct ElasticFixture {
  core::PeerNetwork net;
  std::vector<core::Peer*> peers;  ///< slot -> peer; null = not joined yet
  std::vector<bool> connected;     ///< slot partition state
  std::vector<std::string> auction_frags;
  std::vector<std::string> person_frags;
  core::Peer* p0 = nullptr;
  Status status = Status::OK();
  int catalog_mutations = 0;  ///< joins + rebalances + bumps applied

  explicit ElasticFixture(int replication_factor) {
    xmark::ShardLoadOptions opts;
    opts.num_shards = kElasticShards;
    opts.replication_factor = replication_factor;
    auto loaded = xmark::LoadShardedXmark(&net, ChaosXmarkConfig(), opts);
    if (!loaded.ok()) {
      status = loaded.status();
      return;
    }
    peers = loaded->peers;
    peers.resize(kElasticShards + kElasticSpares, nullptr);
    connected.assign(peers.size(), true);
    auction_frags =
        xmark::GenerateAuctionsFragments(ChaosXmarkConfig(), kElasticShards);
    person_frags =
        xmark::GeneratePersonsFragments(ChaosXmarkConfig(), kElasticShards);
    p0 = net.AddPeer("p0", core::EngineKind::kRelational);
    status = p0->RegisterModule(xmark::FunctionsBModuleSource(p0->uri()),
                                "b.xq");
    for (core::Peer* p : loaded->peers) {
      if (status.ok()) status = p->RegisterModule(kUpdateModule, "u.xq");
    }
    if (status.ok()) status = p0->RegisterModule(kUpdateModule, "u.xq");
  }

  int SlotOf(const std::string& uri) const {
    for (size_t s = 0; s < peers.size(); ++s) {
      if (peers[s] != nullptr && peers[s]->uri() == uri) {
        return static_cast<int>(s);
      }
    }
    return -1;
  }

  /// Moves `shard`'s primary to the peer at `slot`: materializes both
  /// fragments there, rotates the old primary into the replica set, and
  /// re-registers BOTH collections back-to-back — the double version
  /// bump lands atomically between posts (the hook runs synchronously),
  /// so an in-flight query fences once and refetches the final map.
  void Rebalance(int shard, int slot) {
    core::Peer* target = peers[static_cast<size_t>(slot)];
    if (target == nullptr) return;
    for (const char* name : {"auctions.xml", "persons.xml"}) {
      const std::vector<std::string>& frags =
          name[0] == 'a' ? auction_frags : person_frags;
      (void)target->AddDocument(
          std::string(name) + "." + std::to_string(shard),
          frags[static_cast<size_t>(shard)]);
      core::ShardedCollection c;
      int64_t version = 0;
      if (!net.catalog().Snapshot(name, &c, &version)) continue;
      core::ShardInfo& sh = c.shards[static_cast<size_t>(shard)];
      if (sh.peer_uri != target->uri()) {
        std::string old_primary = sh.peer_uri;
        sh.peer_uri = target->uri();
        auto& reps = sh.replicas;
        reps.erase(std::remove(reps.begin(), reps.end(), target->uri()),
                   reps.end());
        if (std::find(reps.begin(), reps.end(), old_primary) == reps.end()) {
          reps.push_back(old_primary);
        }
      }
      (void)net.catalog().RegisterCollection(std::move(c));
    }
    ++catalog_mutations;
  }

  /// Applies one event; returns whether it had any effect (events aimed
  /// at absent/mismatched slots are defined no-ops).
  bool Apply(const ElasticEvent& e) {
    const size_t slot = static_cast<size_t>(e.peer);
    switch (e.kind) {
      case ElasticEvent::kKill:
        if (slot >= peers.size() || peers[slot] == nullptr ||
            !connected[slot]) {
          return false;
        }
        peers[slot]->Disconnect();
        connected[slot] = false;
        return true;
      case ElasticEvent::kRevive: {
        if (slot < peers.size() && peers[slot] != nullptr &&
            !connected[slot]) {
          peers[slot]->Reconnect();
          connected[slot] = true;
          return true;
        }
        // Heal the first open partition instead — revives stay useful
        // whatever the kill targets were.
        for (size_t s = 0; s < peers.size(); ++s) {
          if (peers[s] != nullptr && !connected[s]) {
            peers[s]->Reconnect();
            connected[s] = true;
            return true;
          }
        }
        return false;
      }
      case ElasticEvent::kJoin: {
        if (slot < static_cast<size_t>(kElasticShards) ||
            slot >= peers.size()) {
          return false;
        }
        if (peers[slot] == nullptr) {
          core::Peer* spare = net.AddPeer(
              "spare" +
                  std::to_string(slot - static_cast<size_t>(kElasticShards)),
              core::EngineKind::kInterpreter);
          (void)spare->RegisterModule(
              xmark::FunctionsBModuleSource(spare->uri()));
          (void)spare->RegisterModule(kUpdateModule, "u.xq");
          peers[slot] = spare;
          connected[slot] = true;
        }
        Rebalance(e.shard, static_cast<int>(slot));
        return true;
      }
      case ElasticEvent::kRebalance:
        if (slot >= peers.size() || peers[slot] == nullptr ||
            !connected[slot]) {
          return false;
        }
        Rebalance(e.shard, static_cast<int>(slot));
        return true;
      case ElasticEvent::kBump: {
        core::ShardedCollection c;
        int64_t version = 0;
        if (net.catalog().Snapshot("persons.xml", &c, &version)) {
          (void)net.catalog().RegisterCollection(std::move(c));
          ++catalog_mutations;
          return true;
        }
        return false;
      }
    }
    return false;
  }
};

}  // namespace

std::string ElasticSchedule::Describe() const {
  std::string out = "rf=" + std::to_string(replication_factor) + " events=[";
  for (size_t i = 0; i < events.size(); ++i) {
    const ElasticEvent& e = events[i];
    if (i > 0) out += ", ";
    out += std::string(ElasticKindName(e.kind)) + "(p" +
           std::to_string(e.peer);
    if (e.kind == ElasticEvent::kJoin ||
        e.kind == ElasticEvent::kRebalance) {
      out += "<-shard" + std::to_string(e.shard);
    }
    out += ")@" + std::to_string(e.serial);
  }
  out += "]";
  return out;
}

ElasticChaosExplorer::ElasticChaosExplorer(const ElasticConfig& config)
    : config_(config), baseline_(std::make_unique<ElasticBaseline>()) {
  if (baseline_->status().ok()) {
    baseline_broadcast_ = baseline_->Run(kChaosQuery);
    baseline_persons_ = baseline_->Run(kPersonsProbe);
    frag_baseline_ = baseline_->FragmentSnapshot();
    // The chaos-free SERIAL update: what the fleet must converge to
    // whenever a mid-schedule 2PC commits.
    if (baseline_->RunUpdate()) {
      baseline_broadcast_updated_ = baseline_->Run(kChaosQuery);
      frag_updated_ = baseline_->FragmentSnapshot();
    }
  }
}

ElasticChaosExplorer::~ElasticChaosExplorer() = default;

ElasticSchedule ElasticChaosExplorer::MakeSchedule(int index) const {
  ElasticSchedule s;
  s.seed = config_.seed;
  s.index = index;
  // Distinct stream constant from ChaosExplorer's sampler so the two
  // explorers never correlate under a shared seed.
  DeterministicPrng prng(MixSeed(config_.seed ^ 0xe1a57100ull, index));
  auto below = [&prng](uint64_t n) {
    return static_cast<int>(prng.NextUint64() % n);
  };
  s.replication_factor = 1 + below(2);
  const int num_events = 2 + below(4);  // 2..5 events
  int serial = 0;
  int next_spare = 0;
  for (int e = 0; e < num_events; ++e) {
    serial += 1 + below(4);  // spaced over the first queries' posts
    ElasticEvent ev;
    ev.serial = serial;
    const int roll = below(100);
    if (roll < 25) {
      ev.kind = ElasticEvent::kKill;
      ev.peer = below(kElasticShards + kElasticSpares);
    } else if (roll < 45) {
      ev.kind = ElasticEvent::kRevive;
      ev.peer = below(kElasticShards + kElasticSpares);
    } else if (roll < 65 && next_spare < kElasticSpares) {
      ev.kind = ElasticEvent::kJoin;
      ev.peer = kElasticShards + next_spare++;
      ev.shard = below(kElasticShards);
    } else if (roll < 85) {
      ev.kind = ElasticEvent::kRebalance;
      ev.peer = below(kElasticShards + kElasticSpares);
      ev.shard = below(kElasticShards);
    } else {
      ev.kind = ElasticEvent::kBump;
    }
    s.events.push_back(ev);
  }
  return s;
}

ElasticResult ElasticChaosExplorer::RunSchedule(
    const ElasticSchedule& schedule) {
  ElasticResult r;
  r.schedule = schedule;
  ++stats_.explored;

  auto fail = [&r](const std::string& invariant, const std::string& detail) {
    r.ok = false;
    r.violations.push_back(invariant + ": " + detail);
  };

  ElasticFixture fx(schedule.replication_factor);
  if (!fx.status.ok() || !baseline_->status().ok()) {
    fail("fixture", (!fx.status.ok() ? fx.status : baseline_->status())
                        .ToString());
    ++stats_.violations;
    return r;
  }
  if (config_.with_updates &&
      frag_updated_.size() != static_cast<size_t>(kElasticShards)) {
    fail("fixture", "no chaos-free updated baseline available");
    ++stats_.violations;
    return r;
  }

  size_t next_event = 0;
  std::vector<ElasticEvent> events = schedule.events;  // sorted by serial
  std::sort(events.begin(), events.end(),
            [](const ElasticEvent& a, const ElasticEvent& b) {
              return a.serial < b.serial;
            });
  fx.net.network().set_post_hook([&](int64_t serial) {
    while (next_event < events.size() &&
           events[next_event].serial <= serial) {
      if (fx.Apply(events[next_event])) ++r.events_fired;
      ++next_event;
    }
  });

  // Conservative must-survive test at query start: every shard of the
  // auctions snapshot keeps a serving peer (primary or replica) that is
  // live now, never a kill target anywhere in the schedule, AND current —
  // a rebalanced-in copy whose applied data version lags the catalog's
  // authoritative one correctly refuses reads (StaleReplica) until
  // repaired, so it cannot carry the survival guarantee.
  auto must_survive = [&]() {
    std::set<std::string> doomed;
    for (const ElasticEvent& e : schedule.events) {
      if (e.kind != ElasticEvent::kKill) continue;
      const size_t slot = static_cast<size_t>(e.peer);
      if (slot < fx.peers.size() && fx.peers[slot] != nullptr) {
        doomed.insert(fx.peers[slot]->uri());
      }
    }
    core::ShardedCollection c;
    int64_t version = 0;
    if (!fx.net.catalog().Snapshot("auctions.xml", &c, &version)) {
      return false;
    }
    for (const core::ShardInfo& sh : c.shards) {
      std::vector<std::string> serving{sh.peer_uri};
      serving.insert(serving.end(), sh.replicas.begin(), sh.replicas.end());
      const uint64_t authoritative =
          fx.net.catalog().FragmentDataVersion("auctions.xml", sh.index);
      bool alive = false;
      for (const std::string& uri : serving) {
        const int slot = fx.SlotOf(uri);
        if (slot >= 0 && fx.connected[static_cast<size_t>(slot)] &&
            doomed.count(uri) == 0 &&
            fx.peers[static_cast<size_t>(slot)]->database().AppliedDataVersion(
                AuctionsFragName(sh.index)) >= authoritative) {
          alive = true;
          break;
        }
      }
      if (!alive) return false;
    }
    return true;
  };

  // The workload: broadcasts interleaved with routed point reads, point
  // keys drawn from a per-(seed,index) stream.
  DeterministicPrng qprng(
      MixSeed(schedule.seed ^ 0x517cc1b7ull, schedule.index));
  const int num_persons = ChaosXmarkConfig().num_persons;
  const int64_t run_start_us = fx.net.network().clock().NowMicros();
  const bool schedule_has_kills =
      std::any_of(schedule.events.begin(), schedule.events.end(),
                  [](const ElasticEvent& e) {
                    return e.kind == ElasticEvent::kKill;
                  });
  constexpr int kQueries = 5;
  for (int qi = 0; qi < kQueries; ++qi) {
    // With updates on, the middle (broadcast) slot becomes the updating
    // broadcast; reads after it must match the updated baseline iff its
    // 2PC committed — all-or-nothing leaves no third state.
    const bool is_update = config_.with_updates && qi == 2;
    const bool is_point = (qi % 2) == 1;
    const int key =
        is_point ? static_cast<int>(qprng.NextUint64() %
                                    static_cast<uint64_t>(num_persons))
                 : 0;
    const std::string query =
        is_update ? kUpdateQuery : (is_point ? PointQuery(key) : kChaosQuery);
    const std::string expected =
        is_point ? baseline_->PointRead(key)
                 : (r.update_committed ? baseline_broadcast_updated_
                                       : baseline_broadcast_);

    const bool covered = must_survive();
    const int mutations_before = fx.catalog_mutations;
    const int64_t reroutes_before =
        fx.net.metrics().Get(net::Metric::kStaleCatalogReroutes);
    const int64_t q_start = fx.net.network().clock().NowMicros();
    core::ExecuteOptions exec_options;
    exec_options.deadline_us = kDeadlineBudgetUs;
    auto report = fx.net.Execute("p0", query, exec_options);
    const int64_t q_elapsed =
        fx.net.network().clock().NowMicros() - q_start;
    const int mutations_during = fx.catalog_mutations - mutations_before;
    const int64_t reroutes =
        fx.net.metrics().Get(net::Metric::kStaleCatalogReroutes) -
        reroutes_before;

    if (is_update) {
      r.update_ran = true;
      if (report.ok() && report->committed) {
        ++r.queries_ok;
        r.update_committed = true;
        ++stats_.updates_committed;
      } else {
        ++r.queries_failed;
        ++stats_.updates_aborted;
        const std::string text =
            report.ok() ? ("aborted: " + report->abort_reason)
                        : report.status().ToString();
        // 8. Update-survival: with no kill event anywhere in the schedule
        //    and no catalog mutation racing the write, every copy was
        //    reachable throughout — the all-copies 2PC must commit.
        if (!schedule_has_kills && mutations_during == 0) {
          fail("update-survival",
               "update failed with no kills scheduled and no racing "
               "catalog mutation: " + text);
        }
        // 3. Clean-fault applies to hard failures of the write too (a
        //    clean coordinator abort is not a fault).
        if (!report.ok()) {
          const StatusCode code = report.status().code();
          if (code != StatusCode::kNetworkError &&
              code != StatusCode::kDeadlineExceeded &&
              code != StatusCode::kStaleCatalog) {
            fail("clean-fault",
                 "update: unexpected fault class: " + text);
          } else if (r.ok) {
            ++stats_.clean_faults;
          }
        }
      }
    } else if (report.ok()) {
      ++r.queries_ok;
      // 1. Byte-identity against the chaos-free baseline, whatever mix of
      //    primaries, replicas, and freshly joined peers answered.
      const std::string got = xdm::SequenceToString(report->result);
      if (got != expected) {
        fail("byte-identity",
             std::string(is_point ? "point" : "broadcast") + " query " +
                 std::to_string(qi) + " diverges from the chaos-free "
                 "baseline (got " + std::to_string(got.size()) +
                 " bytes, want " + std::to_string(expected.size()) + ")");
      }
    } else {
      ++r.queries_failed;
      const StatusCode code = report.status().code();
      const std::string text = report.status().ToString();
      // 2. Replica-coverage: a fully covered query with at most one racing
      //    catalog mutation has no excuse to fail (must_survive already
      //    discounts lagging copies, so a StaleReplica-only shard never
      //    counts as covered).
      if (covered && mutations_during <= 1) {
        fail("replica-coverage",
             "query " + std::to_string(qi) +
                 " failed although live never-killed replicas cover every "
                 "shard: " + text);
      }
      // 3. Clean-fault: elastic churn may legitimately surface a second
      //    fence (kStaleCatalog) — and once a write ran, a lagging copy
      //    refusing to serve (kStaleReplica) — but nothing internal or
      //    half-merged.
      if (code != StatusCode::kNetworkError &&
          code != StatusCode::kDeadlineExceeded &&
          code != StatusCode::kStaleCatalog &&
          !(r.update_ran && code == StatusCode::kStaleReplica)) {
        fail("clean-fault", "query " + std::to_string(qi) +
                                ": unexpected fault class: " + text);
      } else if (r.ok) {
        ++stats_.clean_faults;
      }
    }
    // 4. No-hang, per query.
    if (q_elapsed > kDeadlineBudgetUs + kDeadlineSlackUs) {
      fail("no-hang", "query " + std::to_string(qi) + " consumed " +
                          std::to_string(q_elapsed) + "us of a " +
                          std::to_string(kDeadlineBudgetUs) + "us budget");
    }
    // 5. Single-reroute, conditional on at most one racing mutation (two
    //    mutations legitimately fence a query twice — the second fence
    //    fails cleanly instead of re-routing again).
    if (mutations_during <= 1 && reroutes > 1) {
      fail("single-reroute",
           "query " + std::to_string(qi) + " re-routed " +
               std::to_string(reroutes) + " times under " +
               std::to_string(mutations_during) + " catalog mutation(s)");
    }
  }

  // 6. No-lost-shard, after quiesce: stop firing events, heal every
  //    partition, and require (a) every shard of every collection keeps a
  //    live serving peer and (b) scatter-gather probes over BOTH
  //    collections are byte-identical to the chaos-free baseline.
  fx.net.network().set_post_hook(nullptr);
  std::set<std::string> sabotaged;
  if (config_.sabotage_lost_shard) {
    // Self-test: permanently partition every server of auctions shard 0 —
    // the detector below must fire, or it is vacuous.
    core::ShardedCollection c;
    int64_t version = 0;
    if (fx.net.catalog().Snapshot("auctions.xml", &c, &version)) {
      sabotaged.insert(c.shards[0].peer_uri);
      for (const std::string& uri : c.shards[0].replicas) {
        sabotaged.insert(uri);
      }
    }
    for (size_t s = 0; s < fx.peers.size(); ++s) {
      if (fx.peers[s] != nullptr && sabotaged.count(fx.peers[s]->uri())) {
        if (fx.connected[s]) fx.peers[s]->Disconnect();
        fx.connected[s] = false;
      }
    }
  }
  for (size_t s = 0; s < fx.peers.size(); ++s) {
    if (fx.peers[s] != nullptr && !fx.connected[s] &&
        sabotaged.count(fx.peers[s]->uri()) == 0) {
      fx.peers[s]->Reconnect();
      fx.connected[s] = true;
    }
  }
  // Drain distributed write state before probing: the coordinator retries
  // in-doubt decisions, then every live peer resolves its prepared
  // sessions by inquiry and catches lagging fragments up by anti-entropy
  // repair (DESIGN.md §17) — rebalanced-in copies start at data version 0
  // and sync here.
  (void)fx.p0->service().RetryInDoubt(&fx.net.network());
  for (size_t s = 0; s < fx.peers.size(); ++s) {
    if (fx.peers[s] != nullptr && fx.connected[s]) {
      (void)fx.peers[s]->Repair();
    }
  }
  for (const char* name : {"auctions.xml", "persons.xml"}) {
    core::ShardedCollection c;
    int64_t version = 0;
    if (!fx.net.catalog().Snapshot(name, &c, &version)) {
      fail("no-lost-shard", std::string(name) + " vanished from the catalog");
      continue;
    }
    for (const core::ShardInfo& sh : c.shards) {
      std::vector<std::string> serving{sh.peer_uri};
      serving.insert(serving.end(), sh.replicas.begin(), sh.replicas.end());
      bool alive = false;
      for (const std::string& uri : serving) {
        const int slot = fx.SlotOf(uri);
        if (slot >= 0 && fx.connected[static_cast<size_t>(slot)]) {
          alive = true;
          break;
        }
      }
      if (!alive) {
        fail("no-lost-shard", std::string(name) + " shard " +
                                  std::to_string(sh.index) +
                                  " has no live serving peer after quiesce");
      }
    }
  }
  struct Probe {
    const char* what;
    const char* query;
    const std::string* want;
  };
  const std::string& want_broadcast =
      r.update_committed ? baseline_broadcast_updated_ : baseline_broadcast_;
  const Probe probes[] = {
      {"auctions broadcast", kChaosQuery, &want_broadcast},
      {"persons scatter-gather", kPersonsProbe, &baseline_persons_},
  };
  for (const Probe& probe : probes) {
    core::ExecuteOptions exec_options;
    exec_options.deadline_us = kDeadlineBudgetUs;
    auto report = fx.net.Execute("p0", probe.query, exec_options);
    if (!report.ok()) {
      fail("no-lost-shard", std::string(probe.what) +
                                " probe failed after quiesce: " +
                                report.status().ToString());
    } else if (xdm::SequenceToString(report->result) != *probe.want) {
      fail("no-lost-shard", std::string(probe.what) +
                                " probe diverges from the chaos-free "
                                "baseline after quiesce");
    }
  }
  // 7. Replica-convergence (with_updates): every catalog-listed copy of
  //    every auctions fragment — rebalanced-in copies included — is now
  //    byte-identical to the chaos-free serial state. Not merely "all
  //    copies agree": agreeing on a wrong state must fire too.
  if (config_.with_updates) {
    const std::vector<std::string>& want_frags =
        r.update_committed ? frag_updated_ : frag_baseline_;
    core::ShardedCollection c;
    int64_t version = 0;
    if (fx.net.catalog().Snapshot("auctions.xml", &c, &version) &&
        want_frags.size() == static_cast<size_t>(kElasticShards)) {
      for (const core::ShardInfo& sh : c.shards) {
        std::vector<std::string> serving{sh.peer_uri};
        serving.insert(serving.end(), sh.replicas.begin(),
                       sh.replicas.end());
        for (const std::string& uri : serving) {
          const int slot = fx.SlotOf(uri);
          if (slot < 0 || !fx.connected[static_cast<size_t>(slot)]) continue;
          const std::string got =
              FragmentBytes(fx.peers[static_cast<size_t>(slot)],
                            AuctionsFragName(sh.index));
          if (got != want_frags[static_cast<size_t>(sh.index)]) {
            fail("replica-convergence",
                 "copy of shard " + std::to_string(sh.index) + " at " +
                     uri +
                     " diverges from the chaos-free serial state after "
                     "quiesce+repair (" + std::to_string(got.size()) +
                     " bytes, want " +
                     std::to_string(
                         want_frags[static_cast<size_t>(sh.index)].size()) +
                     ")");
          }
        }
      }
    }
  }

  r.elapsed_us = fx.net.network().clock().NowMicros() - run_start_us;
  r.failover_successes = fx.net.metrics().Get(net::Metric::kFailoverSuccesses);
  r.stale_reroutes = fx.net.metrics().Get(net::Metric::kStaleCatalogReroutes);
  stats_.queries_ok += r.queries_ok;
  stats_.events_fired += r.events_fired;
  stats_.failover_successes += r.failover_successes;
  stats_.stale_reroutes += r.stale_reroutes;
  if (!r.ok) ++stats_.violations;
  return r;
}

std::string FormatElasticRepro(const ElasticResult& r) {
  std::string out;
  out += "# xrpc-fuzz elastic repro\n";
  out += "seed: " + std::to_string(r.schedule.seed) + "\n";
  out += "index: " + std::to_string(r.schedule.index) + "\n";
  out += "schedule: " + r.schedule.Describe() + "\n";
  out += "queries_ok: " + std::to_string(r.queries_ok) + "\n";
  out += "queries_failed: " + std::to_string(r.queries_failed) + "\n";
  out += std::string("update: ") +
         (r.update_ran ? (r.update_committed ? "committed" : "aborted")
                       : "none") +
         "\n";
  out += "elapsed_us: " + std::to_string(r.elapsed_us) + "\n";
  out += "--- violations ---\n";
  for (const std::string& v : r.violations) out += v + "\n";
  return out;
}

StatusOr<ElasticSchedule> ParseElasticRepro(const std::string& content) {
  ElasticSchedule s;
  bool saw_seed = false, saw_index = false;
  size_t pos = 0;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("seed: ", 0) == 0) {
      s.seed = std::strtoull(line.c_str() + 6, nullptr, 10);
      saw_seed = true;
    } else if (line.rfind("index: ", 0) == 0) {
      s.index = std::atoi(line.c_str() + 7);
      saw_index = true;
    }
  }
  if (!saw_seed || !saw_index) {
    return Status::InvalidArgument("elastic repro needs seed: and index:");
  }
  // The event dimensions are re-derived: MakeSchedule(index) under the
  // same seed reproduces them exactly.
  return s;
}

StatusOr<ChaosSchedule> ParseChaosRepro(const std::string& content) {
  ChaosSchedule s;
  bool saw_seed = false, saw_index = false;
  size_t pos = 0;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    const std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("seed: ", 0) == 0) {
      s.seed = std::strtoull(line.c_str() + 6, nullptr, 10);
      saw_seed = true;
    } else if (line.rfind("index: ", 0) == 0) {
      s.index = std::atoi(line.c_str() + 7);
      saw_index = true;
    }
  }
  if (!saw_seed || !saw_index) {
    return Status::InvalidArgument("chaos repro needs seed: and index:");
  }
  // The membership dimensions are re-derived: MakeSchedule(index) under
  // the same seed reproduces them exactly.
  return s;
}

}  // namespace xrpc::fuzz
