#include "fuzz/chaos.h"

#include <algorithm>
#include <iterator>
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

constexpr int kNumShards = 4;  ///< base fleet: shard peers at slots 0..3
constexpr int kNumSpares = 2;  ///< joinable spare slots 4..5
constexpr int kNumSlots = kNumShards + kNumSpares;
constexpr int kQueries = 5;
constexpr int kWriteQuery = 2;  ///< the middle broadcast

/// Broadcast over every shard: its survival depends on every shard having
/// a reachable copy.
constexpr char kBroadcast[] =
    "import module namespace b=\"functions_b\" at \"b.xq\";\n"
    "execute at {\"shard:auctions.xml\"} {b:Q_B1()}";

std::string PointQuery(int key) {
  return "import module namespace b=\"functions_b\" at \"b.xq\";\n"
         "execute at {\"shard:auctions.xml\"} {b:Q_B3(\"person" +
         std::to_string(key) + "\")}";
}

constexpr char kPersonsProbe[] = "count(doc(\"shard:persons.xml\")//person)";

/// The write (DESIGN.md §17): each shard peer resolves doc("auctions.xml")
/// through its pinned shard scope, so the insert lands on the fragment the
/// call was routed to — at EVERY copy, since an updating broadcast enlists
/// the whole replica set in the 2PC. The stamp sits outside every path the
/// reads navigate, so read answers are unchanged while fragment bytes are.
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

/// Virtual-time budget of every query; chaos must resolve — success or one
/// clean fault — within it. Generous: a healthy broadcast costs ~1 ms.
constexpr int64_t kDeadlineBudgetUs = 5'000'000;
/// The final message of a query may complete past the budget before the
/// expiry is observed; allow one round of wire slack beyond it.
constexpr int64_t kDeadlineSlackUs = 1'000'000;
/// Circuit-breaker cooldown when a schedule enables the breaker.
constexpr int64_t kCooldownUs = 200'000;

xmark::XmarkConfig ChaosXmarkConfig() {
  xmark::XmarkConfig cfg;
  cfg.num_persons = 18;
  cfg.num_closed_auctions = 24;
  cfg.num_matches = 4;
  cfg.annotation_bytes = 8;
  return cfg;
}

std::string AuctionsFragName(int shard) {
  return "auctions.xml." + std::to_string(shard);
}

/// Serialized bytes of one fragment as a peer currently stores it — the
/// unit replica-convergence compares.
std::string FragmentBytes(core::Peer* peer, const std::string& doc) {
  auto d = peer->database().GetDocument(doc);
  if (!d.ok()) return "<missing: " + d.status().ToString() + ">";
  return xml::SerializeNode(*d.value());
}

constexpr const char* kKindNames[ChaosEvent::kNumKinds] = {
    "kill", "revive", "join", "rebalance", "bump"};
constexpr const char* kSabotageNames[] = {"none", "corrupt_primary",
                                          "primary_only_write", "lost_shard"};

}  // namespace

/// The fleet of every run: 4 shard peers (slots 0..3), 2 spare slots
/// (4..5) that exist only after a join, and the p0 frontend. At rf 1 with
/// no events it is also the chaos-free reference network — the same shard
/// count, so the shard-ordered broadcast merge orders results identically.
struct Fleet {
  core::PeerNetwork net;
  std::vector<core::Peer*> peers;  ///< slot -> peer; null = not joined yet
  std::vector<bool> connected;     ///< slot partition state
  core::Peer* p0 = nullptr;
  Status status = Status::OK();
  int catalog_mutations = 0;  ///< joins + rebalances + bumps applied

  explicit Fleet(int replication_factor) {
    xmark::ShardLoadOptions opts;
    opts.num_shards = kNumShards;
    opts.replication_factor = replication_factor;
    auto loaded = xmark::LoadShardedXmark(&net, ChaosXmarkConfig(), opts);
    if (!loaded.ok()) {
      status = loaded.status();
      return;
    }
    peers = loaded->peers;
    p0 = net.AddPeer("p0", core::EngineKind::kRelational);
    status = p0->RegisterModule(xmark::FunctionsBModuleSource(p0->uri()),
                                "b.xq");
    for (core::Peer* p : peers) {
      if (status.ok()) status = p->RegisterModule(kUpdateModule, "u.xq");
    }
    if (status.ok()) status = p0->RegisterModule(kUpdateModule, "u.xq");
    peers.resize(kNumSlots, nullptr);
    connected.assign(kNumSlots, true);
  }

  /// Normalized answer of `query` at p0, or its fault.
  StatusOr<std::string> Run(const std::string& query) {
    core::ExecuteOptions options;
    options.deadline_us = kDeadlineBudgetUs;
    auto report = net.Execute("p0", query, options);
    if (!report.ok()) return report.status();
    return xdm::SequenceToString(report->result);
  }

  core::Peer* At(int slot) const {
    return slot >= 0 && slot < kNumSlots ? peers[static_cast<size_t>(slot)]
                                         : nullptr;
  }

  int SlotOf(const std::string& uri) const {
    for (int s = 0; s < kNumSlots; ++s) {
      if (At(s) != nullptr && At(s)->uri() == uri) return s;
    }
    return -1;
  }

  bool Live(const std::string& uri) const {
    const int slot = SlotOf(uri);
    return slot >= 0 && connected[static_cast<size_t>(slot)];
  }

  /// Catalog servers of every shard of `collection` (primary first), by
  /// shard index; empty when the collection is not registered.
  std::vector<std::vector<std::string>> Servers(const char* collection) const {
    core::ShardedCollection c;
    int64_t version = 0;
    std::vector<std::vector<std::string>> out;
    if (!net.catalog().Snapshot(collection, &c, &version)) return out;
    for (const core::ShardInfo& sh : c.shards) {
      out.push_back({sh.peer_uri});
      out.back().insert(out.back().end(), sh.replicas.begin(),
                        sh.replicas.end());
    }
    return out;
  }

  void SetConnected(int slot, bool up) {
    if (connected[static_cast<size_t>(slot)] == up) return;
    if (up) {
      At(slot)->Reconnect();
    } else {
      At(slot)->Disconnect();
    }
    connected[static_cast<size_t>(slot)] = up;
  }

  /// Moves `shard`'s primary of both collections to `target`, rotating the
  /// old primary into the replica set, and re-registers them back-to-back:
  /// the double version bump lands between two posts (the hook runs
  /// synchronously), so an in-flight query fences once.
  void Rebalance(int shard, core::Peer* target) {
    for (const char* name : {"auctions.xml", "persons.xml"}) {
      core::ShardedCollection c;
      int64_t version = 0;
      if (!net.catalog().Snapshot(name, &c, &version)) continue;
      core::ShardInfo& sh = c.shards[static_cast<size_t>(shard)];
      auto& reps = sh.replicas;
      const bool serves = sh.peer_uri == target->uri() ||
                          std::find(reps.begin(), reps.end(), target->uri()) !=
                              reps.end();
      // Materialize the fragment only on a new server: a current server's
      // copy may hold committed writes, which the generated text would
      // reset to data version 0 (lost for good at rf 1).
      if (!serves) {
        const std::vector<std::string> frags =
            name[0] == 'a'
                ? xmark::GenerateAuctionsFragments(ChaosXmarkConfig(),
                                                   kNumShards)
                : xmark::GeneratePersonsFragments(ChaosXmarkConfig(),
                                                  kNumShards);
        (void)target->AddDocument(
            std::string(name) + "." + std::to_string(shard),
            frags[static_cast<size_t>(shard)]);
      }
      if (sh.peer_uri != target->uri()) {
        std::string old_primary = sh.peer_uri;
        sh.peer_uri = target->uri();
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

  /// Applies one event; returns whether it had any effect (events aimed at
  /// absent or mismatched slots are defined no-ops).
  bool Apply(const ChaosEvent& e) {
    core::Peer* peer = At(e.peer);
    const bool up = peer != nullptr && connected[static_cast<size_t>(e.peer)];
    switch (e.kind) {
      case ChaosEvent::kKill:
        if (!up) return false;
        SetConnected(e.peer, false);
        return true;
      case ChaosEvent::kRevive:
        if (peer != nullptr && !up) {
          SetConnected(e.peer, true);
          return true;
        }
        // Heal the first open partition instead, so revives stay useful
        // whatever the kill targets were.
        for (int s = 0; s < kNumSlots; ++s) {
          if (At(s) != nullptr && !connected[static_cast<size_t>(s)]) {
            SetConnected(s, true);
            return true;
          }
        }
        return false;
      case ChaosEvent::kJoin:
        if (e.peer < kNumShards || e.peer >= kNumSlots) return false;
        if (peer == nullptr) {
          peer = net.AddPeer("spare" + std::to_string(e.peer - kNumShards),
                             core::EngineKind::kInterpreter);
          (void)peer->RegisterModule(
              xmark::FunctionsBModuleSource(peer->uri()));
          (void)peer->RegisterModule(kUpdateModule, "u.xq");
          peers[static_cast<size_t>(e.peer)] = peer;
          connected[static_cast<size_t>(e.peer)] = true;
        }
        Rebalance(e.shard, peer);
        return true;
      case ChaosEvent::kRebalance:
        if (!up) return false;
        Rebalance(e.shard, peer);
        return true;
      case ChaosEvent::kBump: {
        core::ShardedCollection c;
        int64_t version = 0;
        if (!net.catalog().Snapshot("persons.xml", &c, &version)) return false;
        (void)net.catalog().RegisterCollection(std::move(c));
        ++catalog_mutations;
        return true;
      }
    }
    return false;
  }
};

bool ParseSabotage(std::string_view name, Sabotage* out) {
  for (int i = 0; i < static_cast<int>(std::size(kSabotageNames)); ++i) {
    if (name == kSabotageNames[i]) {
      *out = static_cast<Sabotage>(i);
      return true;
    }
  }
  return false;
}

std::string ChaosSchedule::Describe() const {
  std::string out = "rf=" + std::to_string(replication_factor);
  if (use_breaker) out += " breaker";
  if (writes) out += " writes";
  out += " events=[";
  for (size_t i = 0; i < events.size(); ++i) {
    const ChaosEvent& e = events[i];
    if (i > 0) out += ", ";
    out += kKindNames[e.kind];
    if (e.kind != ChaosEvent::kBump) {
      out += "(p" + std::to_string(e.peer);
      if (e.kind == ChaosEvent::kJoin || e.kind == ChaosEvent::kRebalance) {
        out += "<-shard" + std::to_string(e.shard);
      }
      out += ")";
    }
    out += '@';
    out += std::to_string(e.serial);
  }
  return out + "]";
}

ChaosExplorer::ChaosExplorer(const ChaosConfig& config)
    : config_(config), reference_(std::make_unique<Fleet>(1)) {
  if (!reference_->status.ok()) return;
  auto fragments = [this] {
    std::vector<std::string> frags;
    for (int k = 0; k < kNumShards; ++k) {
      frags.push_back(FragmentBytes(reference_->At(k), AuctionsFragName(k)));
    }
    return frags;
  };
  broadcast_ = reference_->Run(kBroadcast).value_or("");
  persons_ = reference_->Run(kPersonsProbe).value_or("");
  frags_ = fragments();
  // The chaos-free SERIAL update: what every copy must converge to
  // whenever the run's 2PC commits. The stamp is invisible to every read,
  // so point answers computed after it stay valid.
  auto update = reference_->net.Execute("p0", kUpdateQuery);
  if (update.ok() && update->committed) {
    broadcast_updated_ = reference_->Run(kBroadcast).value_or("");
    frags_updated_ = fragments();
  }
}

ChaosExplorer::~ChaosExplorer() = default;

int ChaosExplorer::GridSize() const { return 2 * 2 * 4 * 3 * 2 * 2 * 2; }

ChaosSchedule ChaosExplorer::MakeSchedule(int index) const {
  ChaosSchedule s;
  s.seed = config_.seed;
  s.index = index;
  auto add = [&s](ChaosEvent::Kind kind, int serial, int peer, int shard) {
    s.events.push_back(ChaosEvent{kind, serial, peer, shard});
  };

  if (index < GridSize()) {
    // writes {off,on} x rf {1,2} x kill set {none,{0},{1},{0,1}} x kill
    // instant {pre,2,4} x revive {never,kill+3} x bump {off,3} x breaker.
    int k = index;
    auto digit = [&k](int n) {
      const int d = k % n;
      k /= n;
      return d;
    };
    s.writes = digit(2) == 1;
    s.replication_factor = 1 + digit(2);
    const int kill_set = digit(4);
    const int kill_at = 2 * digit(3);
    const bool revive = digit(2) == 1;
    const bool bump = digit(2) == 1;
    s.use_breaker = digit(2) == 1;
    for (int p = 0; p < 2; ++p) {
      if (kill_set & (1 << p)) add(ChaosEvent::kKill, kill_at, p, 0);
    }
    for (int p = 0; p < 2; ++p) {
      if (revive && (kill_set & (1 << p))) {
        add(ChaosEvent::kRevive, kill_at + 3, p, 0);
      }
    }
    if (bump) add(ChaosEvent::kBump, 3, 0, 0);
    return s;
  }

  // Sampled region: 2..5 events of any kind, spaced over the first
  // queries' posts, plus rf 1..3, breaker and writes.
  DeterministicPrng prng(MixSeed(config_.seed ^ 0xe1a57100ull, index));
  auto below = [&prng](int n) {
    return static_cast<int>(prng.NextUint64() % static_cast<uint64_t>(n));
  };
  s.replication_factor = 1 + below(3);
  s.use_breaker = below(2) == 0;
  s.writes = below(2) == 0;
  const int num_events = 2 + below(4);
  int serial = -1;
  int next_spare = 0;
  for (int e = 0; e < num_events; ++e) {
    serial += 1 + below(4);
    const int roll = below(100);
    if (roll < 25) {
      add(ChaosEvent::kKill, serial, below(kNumSlots), 0);
    } else if (roll < 45) {
      add(ChaosEvent::kRevive, serial, below(kNumSlots), 0);
    } else if (roll < 65 && next_spare < kNumSpares) {
      add(ChaosEvent::kJoin, serial, kNumShards + next_spare++,
          below(kNumShards));
    } else if (roll < 85) {
      const int peer = below(kNumSlots);
      add(ChaosEvent::kRebalance, serial, peer, below(kNumShards));
    } else {
      add(ChaosEvent::kBump, serial, 0, 0);
    }
  }
  return s;
}

ChaosResult ChaosExplorer::RunSchedule(const ChaosSchedule& schedule) {
  ChaosResult r;
  r.schedule = schedule;
  ++stats_.explored;
  auto fail = [&r](const std::string& invariant, const std::string& detail) {
    r.ok = false;
    r.violations.push_back(invariant + ": " + detail);
  };

  Fleet fx(schedule.replication_factor);
  Status setup = fx.status.ok() ? reference_->status : fx.status;
  if (setup.ok() && frags_updated_.empty()) {
    setup = Status::Internal("no chaos-free updated baseline available");
  }
  if (!setup.ok()) {
    fail("fixture", setup.ToString());
    ++stats_.violations;
    return r;
  }
  if (config_.sabotage == Sabotage::kCorruptPrimary) {
    (void)fx.At(0)->AddDocument(AuctionsFragName(0),
                                "<site><closed_auctions/></site>");
  }
  if (schedule.use_breaker) {
    net::CircuitBreaker::Policy policy;
    policy.failure_threshold = 2;
    policy.cooldown_us = kCooldownUs;
    fx.net.EnableCircuitBreaker(policy);
  }

  std::vector<ChaosEvent> events = schedule.events;
  std::stable_sort(events.begin(), events.end(),
                   [](const ChaosEvent& a, const ChaosEvent& b) {
                     return a.serial < b.serial;
                   });
  size_t next_event = 0;
  auto fire = [&](int64_t serial) {
    for (; next_event < events.size() && events[next_event].serial <= serial;
         ++next_event) {
      if (!fx.Apply(events[next_event])) continue;
      ++r.events_fired;
      ++stats_.fired[events[next_event].kind];
    }
  };
  fire(0);
  fx.net.network().set_post_hook(fire);

  // Replica-coverage's premise at query start: every auctions shard keeps
  // a server that is live now, never a kill target anywhere in the
  // schedule, AND current — a copy whose applied data version lags the
  // catalog's correctly refuses reads (StaleReplica) until repaired.
  auto covered = [&] {
    std::vector<std::string> doomed;
    for (const ChaosEvent& e : schedule.events) {
      if (e.kind == ChaosEvent::kKill && fx.At(e.peer) != nullptr) {
        doomed.push_back(fx.At(e.peer)->uri());
      }
    }
    const auto servers = fx.Servers("auctions.xml");
    for (size_t k = 0; k < servers.size(); ++k) {
      const int shard = static_cast<int>(k);
      const uint64_t authoritative =
          fx.net.catalog().FragmentDataVersion("auctions.xml", shard);
      auto survives = [&](const std::string& uri) {
        return fx.Live(uri) &&
               std::count(doomed.begin(), doomed.end(), uri) == 0 &&
               fx.At(fx.SlotOf(uri))->database().AppliedDataVersion(
                   AuctionsFragName(shard)) >= authoritative;
      };
      if (std::none_of(servers[k].begin(), servers[k].end(), survives)) {
        return false;
      }
    }
    return !servers.empty();
  };
  const bool has_kills = std::any_of(
      schedule.events.begin(), schedule.events.end(),
      [](const ChaosEvent& e) { return e.kind == ChaosEvent::kKill; });

  DeterministicPrng keys(
      MixSeed(schedule.seed ^ 0x517cc1b7ull, schedule.index));
  const int64_t run_start_us = fx.net.network().clock().NowMicros();
  for (int qi = 0; qi < kQueries; ++qi) {
    const bool is_write = schedule.writes && qi == kWriteQuery;
    const bool wrote = schedule.writes && qi > kWriteQuery;
    std::string query = is_write ? kUpdateQuery : kBroadcast;
    std::string want = r.write_committed ? broadcast_updated_ : broadcast_;
    if (qi % 2 == 1) {
      query = PointQuery(static_cast<int>(
          keys.NextUint64() %
          static_cast<uint64_t>(ChaosXmarkConfig().num_persons)));
      auto [it, fresh] = reference_answers_.try_emplace(query);
      if (fresh) it->second = reference_->Run(query).value_or("");
      want = it->second;
    }
    const std::string q = "query " + std::to_string(qi);

    const bool must_survive = covered();
    const int mutations_before = fx.catalog_mutations;
    const int64_t reroutes_before =
        fx.net.metrics().Get(net::Metric::kStaleCatalogReroutes);
    const int64_t start_us = fx.net.network().clock().NowMicros();
    core::ExecuteOptions options;
    options.deadline_us = kDeadlineBudgetUs;
    auto report = fx.net.Execute("p0", query, options);
    const int64_t elapsed_us =
        fx.net.network().clock().NowMicros() - start_us;
    const int raced = fx.catalog_mutations - mutations_before;
    const int64_t reroutes =
        fx.net.metrics().Get(net::Metric::kStaleCatalogReroutes) -
        reroutes_before;

    const StatusCode code = report.ok() ? StatusCode::kOk
                                        : report.status().code();
    const bool retriable = code == StatusCode::kNetworkError ||
                           code == StatusCode::kDeadlineExceeded;
    if (is_write) {
      if (report.ok() && report->committed) {
        r.outcomes.push_back("committed");
        r.write_committed = true;
        ++r.queries_ok;
        ++stats_.writes_committed;
      } else {
        r.outcomes.push_back(report.ok()
                                 ? "aborted: " + report->abort_reason
                                 : "fault: " + report.status().ToString());
        ++stats_.writes_aborted;
        // 7. Update-survival: with no kill anywhere and no catalog mutation
        //    racing it, every copy was reachable throughout. A racing
        //    mutation is a legitimate abort: an updating broadcast never
        //    re-dispatches after the fence (it may already have staged).
        if (!has_kills && raced == 0) {
          fail("update-survival",
               q + " (write) failed with no kill scheduled and no racing "
                   "catalog mutation: " + r.outcomes.back());
        }
        // 4. Clean-fault (write); a coordinator abort is no fault.
        if (!report.ok()) {
          if (retriable || code == StatusCode::kStaleCatalog) {
            ++stats_.clean_faults;
          } else {
            fail("clean-fault", q + " (write): " + r.outcomes.back());
          }
        }
      }
    } else if (report.ok()) {
      const std::string got = xdm::SequenceToString(report->result);
      r.outcomes.push_back("ok: " + got);
      ++r.queries_ok;
      r.read_reroutes += reroutes;
      // 1. Byte-identity, whatever mix of primaries, replicas and joined
      //    peers answered.
      if (got != want) {
        fail("byte-identity",
             q + " diverges from the chaos-free baseline (got " +
                 std::to_string(got.size()) + " bytes, want " +
                 std::to_string(want.size()) + ")");
      }
    } else {
      r.outcomes.push_back("fault: " + report.status().ToString());
      r.read_reroutes += reroutes;
      // 2. Replica-coverage.
      if (must_survive && raced <= 1) {
        fail("replica-coverage",
             q + " failed although live never-killed current copies cover "
                 "every shard: " + r.outcomes.back());
      }
      // 3. Clean-fault (reads): a lagging copy refuses to serve once a
      //    write ran; a second fence needs two racing catalog mutations.
      if (retriable || (wrote && code == StatusCode::kStaleReplica) ||
          (raced >= 2 && code == StatusCode::kStaleCatalog)) {
        ++stats_.clean_faults;
      } else {
        fail("clean-fault",
             q + ": unexpected fault class under " + std::to_string(raced) +
                 " racing catalog mutation(s): " + r.outcomes.back());
      }
    }
    // 5. No-hang.
    if (elapsed_us > kDeadlineBudgetUs + kDeadlineSlackUs) {
      fail("no-hang", q + " consumed " + std::to_string(elapsed_us) +
                          "us of a " + std::to_string(kDeadlineBudgetUs) +
                          "us budget");
    }
    // 6. Single-reroute: two racing mutations may legitimately fence a
    //    query twice (the second fence fails cleanly instead).
    if (raced <= 1 && reroutes > 1) {
      fail("single-reroute", q + " re-routed " + std::to_string(reroutes) +
                                 " times under " + std::to_string(raced) +
                                 " catalog mutation(s)");
    }
  }
  r.failover_successes =
      fx.net.metrics().Get(net::Metric::kFailoverSuccesses);

  // Quiesce: stop firing events, heal every partition, drain in-doubt 2PC
  // state (coordinator retry, then each live peer's inquiry + anti-entropy
  // repair — rebalanced-in copies start at data version 0 and sync here).
  fx.net.network().set_post_hook(nullptr);
  const auto auction_servers = fx.Servers("auctions.xml");
  std::vector<std::string> lost;
  if (config_.sabotage == Sabotage::kLostShard && !auction_servers.empty()) {
    lost = auction_servers[0];
  }
  if (config_.sabotage == Sabotage::kPrimaryOnlyWrite &&
      !auction_servers.empty()) {
    // A write that bypasses 2PC and versioning: repair sees no version
    // lag, so it must NOT mask the divergence.
    (void)fx.At(fx.SlotOf(auction_servers[0][0]))
        ->AddDocument(AuctionsFragName(0),
                      "<site><closed_auctions><sabotaged/></closed_auctions>"
                      "</site>");
  }
  for (int s = 0; s < kNumSlots; ++s) {
    if (fx.At(s) == nullptr) continue;
    const std::string& uri = fx.At(s)->uri();
    fx.SetConnected(s, std::count(lost.begin(), lost.end(), uri) == 0);
  }
  // Open circuits refuse healed peers until their cooldown passes.
  if (schedule.use_breaker) fx.net.network().clock().Advance(kCooldownUs);
  (void)fx.p0->service().RetryInDoubt();
  for (int s = 0; s < kNumSlots; ++s) {
    if (fx.At(s) != nullptr && fx.connected[static_cast<size_t>(s)]) {
      (void)fx.At(s)->Repair();
    }
  }

  // 8. No-lost-shard: every shard of both collections keeps a live server,
  //    and probes over both collections succeed — byte-identically (1).
  for (const char* name : {"auctions.xml", "persons.xml"}) {
    const auto servers = fx.Servers(name);
    if (servers.empty()) {
      fail("no-lost-shard", std::string(name) + " vanished from the catalog");
    }
    for (size_t k = 0; k < servers.size(); ++k) {
      if (std::none_of(servers[k].begin(), servers[k].end(),
                       [&](const std::string& uri) { return fx.Live(uri); })) {
        fail("no-lost-shard", std::string(name) + " shard " +
                                  std::to_string(k) +
                                  " has no live server after quiesce");
      }
    }
  }
  struct Probe {
    const char* what;
    const char* query;
    const std::string* want;
  };
  const Probe probes[] = {
      {"auctions broadcast", kBroadcast,
       r.write_committed ? &broadcast_updated_ : &broadcast_},
      {"persons scatter-gather", kPersonsProbe, &persons_},
  };
  for (const Probe& probe : probes) {
    auto got = fx.Run(probe.query);
    if (!got.ok()) {
      fail("no-lost-shard", std::string(probe.what) +
                                " probe failed after quiesce: " +
                                got.status().ToString());
    } else if (*got != *probe.want) {
      fail("byte-identity", std::string(probe.what) +
                                " probe diverges from the chaos-free "
                                "baseline after quiesce");
    }
  }

  // 9. Replica-convergence: every catalog-listed live copy of every
  //    auctions fragment equals the chaos-free serial state — not merely
  //    "all copies agree": agreeing on a torn or double-applied state
  //    must fire too.
  const std::vector<std::string>& want_frags =
      r.write_committed ? frags_updated_ : frags_;
  const auto servers = fx.Servers("auctions.xml");
  for (size_t k = 0; k < servers.size() && k < want_frags.size(); ++k) {
    for (const std::string& uri : servers[k]) {
      if (!fx.Live(uri)) continue;
      const std::string got = FragmentBytes(
          fx.At(fx.SlotOf(uri)), AuctionsFragName(static_cast<int>(k)));
      if (got != want_frags[k]) {
        fail("replica-convergence",
             "copy of shard " + std::to_string(k) + " at " + uri +
                 " diverges from the chaos-free serial state after "
                 "quiesce+repair (" + std::to_string(got.size()) +
                 " bytes, want " + std::to_string(want_frags[k].size()) + ")");
      }
    }
  }

  r.elapsed_us = fx.net.network().clock().NowMicros() - run_start_us;
  stats_.queries_ok += r.queries_ok;
  stats_.failover_successes += r.failover_successes;
  stats_.read_reroutes += r.read_reroutes;
  if (!r.ok) ++stats_.violations;
  return r;
}

std::string FormatRepro(const ChaosResult& r) {
  std::string out = "# xrpc-fuzz chaos repro\n";
  out += "seed: " + std::to_string(r.schedule.seed) + "\n";
  out += "index: " + std::to_string(r.schedule.index) + "\n";
  out += "schedule: " + r.schedule.Describe() + "\n";
  for (size_t i = 0; i < r.outcomes.size(); ++i) {
    const std::string& o = r.outcomes[i];
    out += "query " + std::to_string(i) + ": " +
           (o.size() > 80 ? o.substr(0, 77) + "..." : o) + "\n";
  }
  out += "events_fired: " + std::to_string(r.events_fired) + "\n";
  out += "elapsed_us: " + std::to_string(r.elapsed_us) + "\n";
  out += "--- violations ---\n";
  for (const std::string& v : r.violations) out += v + "\n";
  return out;
}

}  // namespace xrpc::fuzz
