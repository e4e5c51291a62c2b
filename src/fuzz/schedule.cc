#include "fuzz/schedule.h"

#include <cstdio>
#include <utility>

#include "base/prng.h"
#include "xml/serializer.h"

namespace xrpc::fuzz {

namespace {

// The fixed workload of the explorer: the Section-2 film database split
// across two remote peers, updated through one two-destination Bulk RPC
// query that commits via WS-AT 2PC (the txn_recovery_test workload).
constexpr char kFilmDb[] =
    "<films>"
    "<film><name>The Rock</name><actor>Sean Connery</actor></film>"
    "<film><name>Goldfinger</name><actor>Sean Connery</actor></film>"
    "<film><name>Green Card</name><actor>Gerard Depardieu</actor></film>"
    "</films>";

constexpr char kFilmModule[] = R"(
  module namespace film = "films";
  declare function film:countFilms() as xs:integer
  { count(doc("filmDB.xml")//film) };
  declare updating function film:addFilm($name as xs:string,
                                         $actor as xs:string)
  { insert nodes <film><name>{$name}</name><actor>{$actor}</actor></film>
    into doc("filmDB.xml")/films };
)";

constexpr char kModuleLocation[] = "http://x.example.org/film.xq";

constexpr char kUpdateBoth[] = R"(
  declare option xrpc:isolation "repeatable";
  declare option xrpc:timeout "60";
  import module namespace f="films" at "http://x.example.org/film.xq";
  (execute at {"xrpc://y.example.org"} {f:addFilm("A", "X")},
   execute at {"xrpc://z.example.org"} {f:addFilm("B", "Y")}))";

constexpr int kBaseFilms = 3;

/// Deadline axis: loose outlives every grid fault (spikes are <= 250 ms and
/// backoffs are bounded); tight dies the moment a latency spike lands, so
/// budgets expire at arbitrary points of the dispatch/2PC pipeline.
constexpr int kDeadlineModes = 3;
constexpr int64_t kLooseDeadlineUs = 60'000'000;
constexpr int64_t kTightDeadlineUs = 150'000;

int64_t DeadlineBudgetUs(int mode) {
  switch (mode) {
    case 1: return kLooseDeadlineUs;
    case 2: return kTightDeadlineUs;
    default: return 0;
  }
}

// Systematically enumerated dimension tables (the grid). Sampled indices
// draw from wider ranges.
net::FaultProfile GridFaults(int variant, uint64_t fault_seed) {
  net::FaultProfile f;
  f.seed = fault_seed;
  switch (variant) {
    case 0: break;                                    // healthy network
    case 1: f.drop_probability = 0.25; break;         // lossy requests
    case 2: f.fail_every_nth = 2; break;              // periodic failures
    case 3: f.fail_every_nth = 3; break;
    case 4: f.truncate_every_nth = 2; break;          // applied, ack lost
    case 5: f.truncate_every_nth = 3; break;
    case 6:
      f.latency_spike_every_nth = 2;
      f.latency_spike_us = 250'000;
      break;
    case 7:                                            // compound fault
      f.drop_probability = 0.15;
      f.truncate_every_nth = 3;
      break;
  }
  return f;
}
constexpr int kFaultVariants = 8;

/// Crash variants: 0 none, 1..4 y at each participant point, 5..8 z at
/// each point, 9 coordinator after votes, 10 coordinator after decision.
void GridCrash(int variant, Schedule* s) {
  static constexpr server::CrashPoint kPoints[] = {
      server::CrashPoint::kAfterPrepareLog,
      server::CrashPoint::kAfterVote,
      server::CrashPoint::kBeforeCommitApply,
      server::CrashPoint::kAfterCommitLog,
  };
  if (variant == 0) return;
  if (variant <= 8) {
    s->crash_peer = variant <= 4 ? 1 : 2;
    s->crash_point = kPoints[(variant - 1) % 4];
    return;
  }
  s->coord_crash = variant - 8;
}
constexpr int kCrashVariants = 11;

const char* CrashPointName(server::CrashPoint p) {
  switch (p) {
    case server::CrashPoint::kNone: return "none";
    case server::CrashPoint::kAfterPrepareLog: return "after-prepare-log";
    case server::CrashPoint::kAfterVote: return "after-vote";
    case server::CrashPoint::kBeforeCommitApply: return "before-commit-apply";
    case server::CrashPoint::kAfterCommitLog: return "after-commit-log";
    case server::CrashPoint::kCoordAfterVotes: return "after-votes";
    case server::CrashPoint::kCoordAfterDecisionLog:
      return "after-decision-log";
  }
  return "?";
}

struct Fixture {
  core::PeerNetwork net;
  core::Peer* p0;
  core::Peer* y;
  core::Peer* z;

  Fixture() {
    p0 = net.AddPeer("p0.example.org");
    y = net.AddPeer("y.example.org");
    z = net.AddPeer("z.example.org");
    for (core::Peer* p : {y, z}) {
      (void)p->AddDocument("filmDB.xml", kFilmDb);
    }
    for (core::Peer* p : {p0, y, z}) {
      (void)p->RegisterModule(kFilmModule, kModuleLocation);
    }
  }

  std::string Doc(core::Peer* p) {
    auto doc = p->database().GetDocument("filmDB.xml");
    return doc.ok() ? xml::SerializeNode(*doc.value()) : "<unreadable/>";
  }

  int CountFilms(core::Peer* p) {
    const std::string text = Doc(p);
    int n = 0;
    for (size_t pos = text.find("<film>"); pos != std::string::npos;
         pos = text.find("<film>", pos + 1)) {
      ++n;
    }
    return n;
  }
};

}  // namespace

std::string Schedule::Describe() const {
  std::string out = "faults{";
  char buf[64];
  if (faults.drop_probability > 0) {
    std::snprintf(buf, sizeof(buf), "drop=%.2f ", faults.drop_probability);
    out += buf;
  }
  if (faults.fail_every_nth > 0) {
    out += "fail_nth=" + std::to_string(faults.fail_every_nth) + " ";
  }
  if (faults.truncate_every_nth > 0) {
    out += "trunc_nth=" + std::to_string(faults.truncate_every_nth) + " ";
  }
  if (faults.latency_spike_every_nth > 0) {
    out += "spike_nth=" + std::to_string(faults.latency_spike_every_nth) + " ";
  }
  out += "seed=" + std::to_string(faults.seed) + "}";
  out += " retry=" + std::to_string(retry_attempts);
  if (crash_peer != 0) {
    out += std::string(" crash=") + (crash_peer == 1 ? "y" : "z") + "@" +
           CrashPointName(crash_point);
  }
  if (coord_crash != 0) {
    out += std::string(" coord=") +
           (coord_crash == 1 ? "after-votes" : "after-decision-log");
  }
  if (durable_wal) out += " wal=file";
  if (deadline_mode != 0) {
    out += std::string(" deadline=") + (deadline_mode == 1 ? "loose" : "tight");
  }
  return out;
}

ScheduleExplorer::ScheduleExplorer(const ScheduleConfig& config)
    : config_(config) {
  // Reference run on a healthy network: its final documents define the
  // serially reachable "applied" state for invariant 4.
  Fixture fx;
  base_doc_ = fx.Doc(fx.y);
  auto report = fx.net.Execute("p0.example.org", kUpdateBoth);
  if (report.ok() && report->committed) {
    applied_y_doc_ = fx.Doc(fx.y);
    applied_z_doc_ = fx.Doc(fx.z);
  }
}

ScheduleExplorer::~ScheduleExplorer() = default;

int ScheduleExplorer::GridSize() const {
  const int wal_dims = config_.wal_dir.empty() ? 1 : 2;
  return kCrashVariants * kFaultVariants * 2 * kDeadlineModes * wal_dims;
}

Schedule ScheduleExplorer::MakeSchedule(int index) const {
  Schedule s;
  s.seed = config_.seed;
  s.index = index;
  const uint64_t fault_seed = MixSeed(config_.seed, index) | 1;

  if (index < GridSize()) {
    int k = index;
    const int crash_variant = k % kCrashVariants;
    k /= kCrashVariants;
    const int fault_variant = k % kFaultVariants;
    k /= kFaultVariants;
    s.retry_attempts = (k % 2) == 0 ? 1 : 3;
    k /= 2;
    s.deadline_mode = k % kDeadlineModes;
    k /= kDeadlineModes;
    s.durable_wal = !config_.wal_dir.empty() && (k % 2) == 1;
    s.faults = GridFaults(fault_variant, fault_seed);
    GridCrash(crash_variant, &s);
    return s;
  }

  // Sampled region: draw every dimension independently, allowing
  // combinations the grid does not enumerate (participant crash AND
  // coordinator crash, compound fault profiles, retry=2).
  DeterministicPrng prng(MixSeed(config_.seed, index));
  auto below = [&prng](uint64_t n) { return prng.NextUint64() % n; };
  static constexpr double kDrops[] = {0.0, 0.0, 0.1, 0.25, 0.4};
  static constexpr int kNth[] = {0, 0, 2, 3, 5};
  s.faults.seed = fault_seed;
  s.faults.drop_probability = kDrops[below(5)];
  s.faults.fail_every_nth = kNth[below(5)];
  s.faults.truncate_every_nth = kNth[below(5)];
  if (below(4) == 0) {
    s.faults.latency_spike_every_nth = 2 + static_cast<int>(below(3));
    s.faults.latency_spike_us = 100'000;
  }
  s.retry_attempts = 1 + static_cast<int>(below(3));
  s.crash_peer = static_cast<int>(below(3));
  if (s.crash_peer != 0) {
    static constexpr server::CrashPoint kPoints[] = {
        server::CrashPoint::kAfterPrepareLog,
        server::CrashPoint::kAfterVote,
        server::CrashPoint::kBeforeCommitApply,
        server::CrashPoint::kAfterCommitLog,
    };
    s.crash_point = kPoints[below(4)];
  }
  s.coord_crash = below(3) == 0 ? static_cast<int>(below(3)) : 0;
  s.durable_wal = !config_.wal_dir.empty() && below(3) == 0;
  s.deadline_mode = static_cast<int>(below(3));
  return s;
}

ScheduleResult ScheduleExplorer::RunSchedule(const Schedule& schedule) {
  ScheduleResult r;
  r.schedule = schedule;
  ++stats_.explored;

  Fixture fx;
  auto fail = [&r](const std::string& invariant, const std::string& detail) {
    r.ok = false;
    r.violations.push_back(invariant + ": " + detail);
  };

  core::Peer* crash_target =
      schedule.crash_peer == 1 ? fx.y : (schedule.crash_peer == 2 ? fx.z : nullptr);
  std::string wal_path;
  if (schedule.durable_wal && !config_.wal_dir.empty()) {
    core::Peer* wal_peer = crash_target != nullptr ? crash_target : fx.z;
    wal_path = config_.wal_dir + "/sched-" + std::to_string(schedule.seed) +
               "-" + std::to_string(schedule.index) + ".wal";
    std::remove(wal_path.c_str());
    (void)wal_peer->EnableWal(wal_path);
  }
  net::RetryPolicy policy;
  policy.max_attempts = schedule.retry_attempts;
  policy.initial_backoff_us = 1000;
  fx.net.set_retry_policy(policy);
  if (crash_target != nullptr) crash_target->InjectCrash(schedule.crash_point);
  fx.net.network().set_fault_profile(schedule.faults);

  // --- run the workload under the schedule --------------------------------
  if (schedule.coord_crash != 0) {
    fx.p0->InjectCrash(schedule.coord_crash == 1
                           ? server::CrashPoint::kCoordAfterVotes
                           : server::CrashPoint::kCoordAfterDecisionLog);
  }
  core::ExecuteOptions exec_options;
  exec_options.deadline_us = DeadlineBudgetUs(schedule.deadline_mode);
  auto report = fx.net.Execute("p0.example.org", kUpdateBoth, exec_options);
  if (report.ok()) {
    r.committed_known = true;
    r.committed = report->committed;
    if (!report->in_doubt.empty()) ++stats_.in_doubt_seen;
  }
  if (fx.p0->crashed()) ++stats_.coord_crashes;

  // --- drain: heal the network, recover every peer ------------------------
  fx.net.network().set_fault_profile({});
  // The coordinator first (its WAL answers the participants' recovery
  // inquiries and redrives logged-but-unsent decisions), then the
  // participants (inquiry resolves their prepared in-doubt sessions —
  // Restart is safe and idempotent on peers that never crashed).
  (void)fx.p0->Restart();
  (void)fx.y->Restart();
  (void)fx.z->Restart();
  for (int i = 0; i < 3 && fx.p0->service().in_doubt_count() > 0; ++i) {
    (void)fx.p0->service().RetryInDoubt();
  }
  // Deterministic snapshot expiry: fast-forward the isolation clock far
  // past every deadline so abandoned (never-prepared) sessions collect.
  for (core::Peer* p : {fx.y, fx.z}) {
    p->service().isolation().SetTimeSource(
        [] { return int64_t{1} << 62; });
    p->service().isolation().ExpireSessions();
  }

  if (config_.sabotage_double_apply) {
    // Self-test: duplicate the applied film at y as a lost-ack retransmit
    // would. Invariants 1/2/4 must all fire on this.
    std::string doc = fx.Doc(fx.y);
    const size_t end = doc.rfind("</films>");
    if (end != std::string::npos) {
      doc.insert(end, "<film><name>A</name><actor>X</actor></film>");
      (void)fx.y->database().PutDocumentText("filmDB.xml", doc);
    }
  }

  // --- invariants ----------------------------------------------------------
  r.delta_y = fx.CountFilms(fx.y) - kBaseFilms;
  r.delta_z = fx.CountFilms(fx.z) - kBaseFilms;

  // 1. At-most-once: a truncation fault delivers the update but loses the
  //    response; a retransmitting transport would apply the PUL twice.
  if (r.delta_y < 0 || r.delta_y > 1 || r.delta_z < 0 || r.delta_z > 1) {
    fail("at-most-once", "film deltas y=" + std::to_string(r.delta_y) +
                             " z=" + std::to_string(r.delta_z));
  }
  // 2. All-or-nothing: both participants converge to the same outcome,
  //    which matches the coordinator's decision when one was reached.
  if (r.delta_y != r.delta_z) {
    fail("all-or-nothing", "y applied " + std::to_string(r.delta_y) +
                               " but z applied " + std::to_string(r.delta_z));
  }
  if (r.committed_known) {
    const int want = r.committed ? 1 : 0;
    if (r.delta_y != want || r.delta_z != want) {
      fail("all-or-nothing",
           std::string("coordinator decided ") +
               (r.committed ? "commit" : "abort") + " but deltas are y=" +
               std::to_string(r.delta_y) + " z=" + std::to_string(r.delta_z));
    }
  }
  // 3. No in-doubt leaks after recovery.
  for (core::Peer* p : {fx.p0, fx.y, fx.z}) {
    if (p->service().in_doubt_count() != 0) {
      fail("no-in-doubt-leak",
           p->name() + " still parks " +
               std::to_string(p->service().in_doubt_count()) +
               " in-doubt transaction(s)");
    }
  }
  for (core::Peer* p : {fx.y, fx.z}) {
    if (p->service().isolation().active_sessions() != 0) {
      fail("no-in-doubt-leak",
           p->name() + " still holds " +
               std::to_string(p->service().isolation().active_sessions()) +
               " live session(s) after expiry");
    }
  }
  // 4. Serial equivalence: each final document is a state some serial
  //    history produces — untouched, or with the film applied exactly once.
  if (!applied_y_doc_.empty()) {
    const std::string y_doc = fx.Doc(fx.y);
    const std::string z_doc = fx.Doc(fx.z);
    if (y_doc != base_doc_ && y_doc != applied_y_doc_) {
      fail("serial-equivalence", "y final document matches no serial state: " +
                                     y_doc);
    }
    if (z_doc != base_doc_ && z_doc != applied_z_doc_) {
      fail("serial-equivalence", "z final document matches no serial state: " +
                                     z_doc);
    }
  }

  if (!wal_path.empty()) std::remove(wal_path.c_str());
  if (r.committed_known) {
    if (r.committed) ++stats_.committed;
    else ++stats_.aborted;
  }
  if (!r.ok) ++stats_.violations;
  return r;
}

std::string FormatRepro(const ScheduleResult& r) {
  std::string out;
  out += "# xrpc-fuzz schedule repro\n";
  out += "seed: " + std::to_string(r.schedule.seed) + "\n";
  out += "index: " + std::to_string(r.schedule.index) + "\n";
  out += "schedule: " + r.schedule.Describe() + "\n";
  out += std::string("outcome: ") +
         (r.committed_known ? (r.committed ? "committed" : "aborted")
                            : "unknown") +
         "\n";
  out += "delta_y: " + std::to_string(r.delta_y) + "\n";
  out += "delta_z: " + std::to_string(r.delta_z) + "\n";
  out += "--- violations ---\n";
  for (const std::string& v : r.violations) out += v + "\n";
  return out;
}

}  // namespace xrpc::fuzz
