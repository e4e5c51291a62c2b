#include "load/workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "base/prng.h"
#include "load/zipf.h"
#include "xmark/shard_loader.h"

namespace xrpc::load {

namespace {

/// Film fixture of the update mix: the Section-2 database every shard
/// peer serves, grown by f:addFilm inserts through repeatable-read 2PC.
/// Updates deliberately target filmDB.xml — not the sharded XMark
/// collections — so read results stay comparable across the whole run.
constexpr char kFilmDb[] =
    "<films>"
    "<film><name>The Rock</name><actor>Sean Connery</actor></film>"
    "</films>";

constexpr char kFilmModule[] = R"(
  module namespace film = "films";
  declare updating function film:addFilm($name as xs:string,
                                         $actor as xs:string)
  { insert nodes <film><name>{$name}</name><actor>{$actor}</actor></film>
    into doc("filmDB.xml")/films };
)";

constexpr char kFilmModuleLocation[] = "film.xq";

/// Sharded-update fixture: an updating broadcast over shard:auctions.xml
/// enlists EVERY replica of every shard in one 2PC (DESIGN.md §17). The
/// stamp lands under /site where no read query looks, so Q_B1/Q_B3
/// results stay comparable across the whole run.
constexpr char kStampModule[] = R"(
  module namespace u = "upd_load";
  declare updating function u:stamp()
  { insert nodes <load-stamp/> into doc("auctions.xml")/site };
)";

constexpr char kStampModuleLocation[] = "u.xq";

constexpr char kShardedUpdateQuery[] =
    "declare option xrpc:isolation \"repeatable\";\n"
    "import module namespace u=\"upd_load\" at \"u.xq\";\n"
    "execute at {\"shard:auctions.xml\"} {u:stamp()}";

/// Driver-applied membership chaos event (virtual-time triggered).
struct ChaosEvent {
  enum Kind { kKill, kRevive, kBump } kind;
  int64_t time_us;
  int peer;  ///< shard peer index (ignored for kBump)
};

std::vector<ChaosEvent> BuildChaosEvents(const WorkloadConfig& config) {
  std::vector<ChaosEvent> events;
  if (!config.chaos || config.num_shards < 1) return events;
  DeterministicPrng prng(MixSeed(config.seed, 0x10001));
  const int n = config.num_shards;
  const int victim1 = static_cast<int>(prng.NextUint64() % n);
  const int victim2 =
      n > 1 ? static_cast<int>(
                  (victim1 + 1 + prng.NextUint64() % (n - 1)) % n)
            : victim1;
  const int64_t d = config.duration_us;
  events.push_back({ChaosEvent::kKill, d / 4, victim1});
  events.push_back({ChaosEvent::kRevive, d / 2, victim1});
  events.push_back({ChaosEvent::kBump, d * 5 / 8, 0});
  events.push_back({ChaosEvent::kKill, d * 3 / 4, victim2});
  events.push_back({ChaosEvent::kRevive, d * 7 / 8, victim2});
  return events;
}

int64_t PercentileExact(const std::vector<int64_t>& sorted, int pct) {
  if (sorted.empty()) return 0;
  size_t idx = (static_cast<size_t>(pct) * (sorted.size() - 1)) / 100;
  return sorted[idx];
}

std::string FormatQps(double qps) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", qps);
  return buf;
}

}  // namespace

const char* QueryKindToString(QueryKind kind) {
  switch (kind) {
    case QueryKind::kPointRead: return "point";
    case QueryKind::kJoinRead: return "join";
    case QueryKind::kUpdate: return "update";
    case QueryKind::kShardedUpdate: return "sharded-update";
  }
  return "unknown";
}

std::vector<Arrival> BuildArrivals(const WorkloadConfig& config) {
  std::vector<Arrival> all;
  for (size_t t = 0; t < config.tenants.size(); ++t) {
    const TenantSpec& spec = config.tenants[t];
    if (spec.arrival_qps <= 0.0) continue;
    // Two independent streams per tenant: arrival times must not shift
    // when the mix or skew parameters change.
    DeterministicPrng time_prng(MixSeed(config.seed, 2 * t));
    DeterministicPrng mix_prng(MixSeed(config.seed, 2 * t + 1));
    ZipfSampler person_keys(config.data.num_persons, spec.zipf_s);
    ZipfSampler shard_keys(config.num_shards, spec.zipf_s);

    double now = 0.0;
    int64_t seq = 0;
    for (;;) {
      // Exponential inter-arrival gap of a Poisson process at arrival_qps.
      double u = time_prng.NextDouble();
      now += -std::log(1.0 - u) * 1e6 / spec.arrival_qps;
      if (now >= static_cast<double>(config.duration_us)) break;
      Arrival a;
      a.time_us = static_cast<int64_t>(now);
      a.tenant = static_cast<int>(t);
      a.seq = seq++;
      // One draw splits updates from reads: the film-DB pair update below
      // update_fraction, the all-copies sharded broadcast in the next
      // band. A zero sharded_update_fraction reproduces the pre-existing
      // draw sequence exactly, so old (seed, config) schedules are stable.
      const double update_draw = mix_prng.NextDouble();
      if (update_draw < spec.update_fraction) {
        a.kind = QueryKind::kUpdate;
        a.key = shard_keys.Sample(mix_prng);
      } else if (update_draw <
                 spec.update_fraction + spec.sharded_update_fraction) {
        a.kind = QueryKind::kShardedUpdate;
        a.key = 0;
      } else if (mix_prng.NextDouble() < spec.point_fraction) {
        a.kind = QueryKind::kPointRead;
        a.key = person_keys.Sample(mix_prng);
      } else {
        a.kind = QueryKind::kJoinRead;
        a.key = 0;
      }
      all.push_back(a);
    }
  }
  std::sort(all.begin(), all.end(), [](const Arrival& a, const Arrival& b) {
    if (a.time_us != b.time_us) return a.time_us < b.time_us;
    if (a.tenant != b.tenant) return a.tenant < b.tenant;
    return a.seq < b.seq;
  });
  return all;
}

StatusOr<WorkloadReport> RunWorkload(const WorkloadConfig& config) {
  if (config.num_shards < 1) {
    return Status::InvalidArgument("workload needs at least one shard");
  }
  if (config.tenants.empty()) {
    return Status::InvalidArgument("workload needs at least one tenant");
  }

  core::PeerNetwork net;
  xmark::ShardLoadOptions opts;
  opts.num_shards = config.num_shards;
  opts.replication_factor = config.replication_factor;
  auto loaded = xmark::LoadShardedXmark(&net, config.data, opts);
  if (!loaded.ok()) return loaded.status();
  std::vector<core::Peer*> shard_peers = loaded->peers;

  core::Peer* p0 = net.AddPeer("p0", core::EngineKind::kRelational);
  XRPC_RETURN_IF_ERROR(
      p0->RegisterModule(xmark::FunctionsBModuleSource(p0->uri()), "b.xq"));
  XRPC_RETURN_IF_ERROR(p0->RegisterModule(kFilmModule, kFilmModuleLocation));
  XRPC_RETURN_IF_ERROR(
      p0->RegisterModule(kStampModule, kStampModuleLocation));
  for (core::Peer* peer : shard_peers) {
    XRPC_RETURN_IF_ERROR(peer->AddDocument("filmDB.xml", kFilmDb));
    XRPC_RETURN_IF_ERROR(
        peer->RegisterModule(kFilmModule, kFilmModuleLocation));
    XRPC_RETURN_IF_ERROR(
        peer->RegisterModule(kStampModule, kStampModuleLocation));
  }

  const std::vector<Arrival> arrivals = BuildArrivals(config);
  std::vector<ChaosEvent> events = BuildChaosEvents(config);

  WorkloadReport report;
  report.seed = config.seed;
  report.num_shards = config.num_shards;
  report.replication_factor = config.replication_factor;
  report.chaos = config.chaos;
  report.arrivals = static_cast<int64_t>(arrivals.size());
  report.tenants.resize(config.tenants.size());
  std::vector<std::vector<int64_t>> latencies(config.tenants.size());
  for (size_t t = 0; t < config.tenants.size(); ++t) {
    report.tenants[t].name = config.tenants[t].name;
  }

  VirtualClock& clock = net.network().clock();
  const int64_t start_us = clock.NowMicros();
  size_t next_event = 0;

  for (const Arrival& a : arrivals) {
    // Open-loop: the clock never waits for a response, but it does
    // advance to the arrival instant when the fleet is ahead of schedule.
    if (clock.NowMicros() < a.time_us) {
      clock.Advance(a.time_us - clock.NowMicros());
    }
    // Membership chaos fires on virtual time, between dispatches, so the
    // event/query interleaving is a pure function of the seed.
    while (next_event < events.size() &&
           events[next_event].time_us <= clock.NowMicros()) {
      const ChaosEvent& e = events[next_event++];
      switch (e.kind) {
        case ChaosEvent::kKill:
          shard_peers[static_cast<size_t>(e.peer)]->Disconnect();
          break;
        case ChaosEvent::kRevive:
          shard_peers[static_cast<size_t>(e.peer)]->Reconnect();
          // Anti-entropy catch-up (DESIGN.md §17): sharded updates that
          // committed during the partition left this replica lagging —
          // resolve in-doubt state and replay the missed PULs before the
          // peer serves reads again.
          (void)shard_peers[static_cast<size_t>(e.peer)]->Repair();
          break;
        case ChaosEvent::kBump: {
          // Identical re-registration: only the version moves; stamped
          // in-flight decompositions fence and re-route exactly once.
          core::ShardedCollection c;
          int64_t version = 0;
          if (net.catalog().Snapshot("auctions.xml", &c, &version)) {
            (void)net.catalog().RegisterCollection(std::move(c));
          }
          break;
        }
      }
      ++report.chaos_events_fired;
    }

    const TenantSpec& spec = config.tenants[static_cast<size_t>(a.tenant)];
    TenantReport& tr = report.tenants[static_cast<size_t>(a.tenant)];
    ++tr.offered;
    switch (a.kind) {
      case QueryKind::kPointRead: ++tr.point_reads; break;
      case QueryKind::kJoinRead: ++tr.join_reads; break;
      case QueryKind::kUpdate: ++tr.updates; break;
      case QueryKind::kShardedUpdate: ++tr.sharded_updates; break;
    }

    const int64_t wait_us = clock.NowMicros() - a.time_us;
    if (wait_us >= spec.deadline_us) {
      // Admission control: the queueing delay alone already burned the
      // budget — shed the query instead of wasting fleet time on it.
      ++tr.rejected;
      net.metrics().RecordTenantQuery(
          spec.name, net::RpcMetrics::TenantOutcome::kRejected, 0, false);
      continue;
    }

    std::string query;
    switch (a.kind) {
      case QueryKind::kPointRead:
        query =
            "import module namespace b=\"functions_b\" at \"b.xq\";\n"
            "execute at {\"shard:auctions.xml\"} {b:Q_B3(\"person" +
            std::to_string(a.key) + "\")}";
        break;
      case QueryKind::kJoinRead:
        query =
            "import module namespace b=\"functions_b\" at \"b.xq\";\n"
            "execute at {\"shard:auctions.xml\"} {b:Q_B1()}";
        break;
      case QueryKind::kUpdate: {
        const int first = a.key;
        const int second = (a.key + 1) % config.num_shards;
        const std::string film =
            spec.name + "-" + std::to_string(a.seq);
        query = "declare option xrpc:isolation \"repeatable\";\n"
                "import module namespace f=\"films\" at \"" +
                std::string(kFilmModuleLocation) +
                "\";\n"
                "(execute at {\"" +
                shard_peers[static_cast<size_t>(first)]->uri() +
                "\"} {f:addFilm(\"" + film + "\", \"" + spec.name +
                "\")},\n execute at {\"" +
                shard_peers[static_cast<size_t>(second)]->uri() +
                "\"} {f:addFilm(\"" + film + "\", \"" + spec.name +
                "\")})";
        break;
      }
      case QueryKind::kShardedUpdate:
        query = kShardedUpdateQuery;
        break;
    }

    core::ExecuteOptions exec_options;
    exec_options.deadline_us = spec.deadline_us - wait_us;
    auto result = net.Execute("p0", query, exec_options);
    const int64_t latency_us = clock.NowMicros() - a.time_us;
    latencies[static_cast<size_t>(a.tenant)].push_back(latency_us);

    const bool is_update = a.kind == QueryKind::kUpdate ||
                           a.kind == QueryKind::kShardedUpdate;
    net::RpcMetrics::TenantOutcome outcome;
    if (result.ok() && (!is_update || result->committed)) {
      outcome = net::RpcMetrics::TenantOutcome::kOk;
      ++tr.ok;
    } else if (!result.ok() &&
               result.status().code() == StatusCode::kDeadlineExceeded) {
      outcome = net::RpcMetrics::TenantOutcome::kDeadlineExceeded;
      ++tr.deadline_exceeded;
    } else {
      outcome = net::RpcMetrics::TenantOutcome::kFailed;
      ++tr.failed;
    }
    const bool slo_met = outcome == net::RpcMetrics::TenantOutcome::kOk &&
                         latency_us <= spec.slo_latency_us;
    if (slo_met) ++tr.slo_met;
    net.metrics().RecordTenantQuery(spec.name, outcome, latency_us, slo_met);
  }

  report.span_us = clock.NowMicros() - start_us;
  if (report.span_us < config.duration_us) {
    report.span_us = config.duration_us;
  }
  for (size_t t = 0; t < report.tenants.size(); ++t) {
    TenantReport& tr = report.tenants[t];
    std::vector<int64_t>& lat = latencies[t];
    std::sort(lat.begin(), lat.end());
    tr.p50_us = PercentileExact(lat, 50);
    tr.p95_us = PercentileExact(lat, 95);
    tr.p99_us = PercentileExact(lat, 99);
    tr.max_us = lat.empty() ? 0 : lat.back();
    tr.offered_qps = static_cast<double>(tr.offered) * 1e6 /
                     static_cast<double>(config.duration_us);
    tr.goodput_qps = static_cast<double>(tr.slo_met) * 1e6 /
                     static_cast<double>(report.span_us);
  }
  report.metrics_report = net.metrics().Report();
  return report;
}

std::string WorkloadReport::Format() const {
  std::string out = "workload seed=" + std::to_string(seed) +
                    " shards=" + std::to_string(num_shards) +
                    " rf=" + std::to_string(replication_factor) +
                    " chaos=" + (chaos ? "on" : "off") +
                    " arrivals=" + std::to_string(arrivals) +
                    " span_us=" + std::to_string(span_us) +
                    " chaos_events=" + std::to_string(chaos_events_fired) +
                    "\n";
  for (const TenantReport& t : tenants) {
    out += "tenant " + t.name + ": offered=" + std::to_string(t.offered) +
           " ok=" + std::to_string(t.ok) +
           " rejected=" + std::to_string(t.rejected) +
           " deadline_exceeded=" + std::to_string(t.deadline_exceeded) +
           " failed=" + std::to_string(t.failed) +
           " slo_met=" + std::to_string(t.slo_met) + "\n";
    out += "tenant " + t.name +
           " mix: point=" + std::to_string(t.point_reads) +
           " join=" + std::to_string(t.join_reads) +
           " update=" + std::to_string(t.updates) +
           " sharded_update=" + std::to_string(t.sharded_updates) + "\n";
    out += "tenant " + t.name + " latency_us: p50=" +
           std::to_string(t.p50_us) + " p95=" + std::to_string(t.p95_us) +
           " p99=" + std::to_string(t.p99_us) +
           " max=" + std::to_string(t.max_us) + "\n";
    out += "tenant " + t.name + " rates: offered_qps=" +
           FormatQps(t.offered_qps) +
           " goodput_qps=" + FormatQps(t.goodput_qps) + "\n";
  }
  return out;
}

}  // namespace xrpc::load
