// Deterministic schedule exploration CLI. Both explorers run through one
// explore/replay driver; a schedule is a pure function of (seed, index).
//
// The default axis (DESIGN.md §11) runs the fixed two-destination 2PC
// update workload under an enumerated grid — and, past the grid, a seeded
// random sample — of SimulatedNetwork fault profiles x participant/
// coordinator crash points x retry policies, then checks four invariants
// after recovery (at-most-once, all-or-nothing, no in-doubt leaks, serial
// equivalence). --sabotage self-tests them with a double-applied update.
//
//   fuzz_schedules --seed 7 --count 1000
//   fuzz_schedules --seed 7 --count 400 --wal-dir /tmp/walfuzz
//   fuzz_schedules --replay sched-7-42.repro
//
// --chaos switches to the membership-chaos axis (DESIGN.md §14): five
// queries — broadcasts, point reads and, when the schedule has writes, an
// all-copies 2PC update — run over a replicated 4-shard fleet while kills,
// revives, joins, rebalances and catalog bumps fire, and nine invariants
// are checked. --sabotage VALUE self-tests one detector: corrupt_primary
// (byte-identity), primary_only_write (replica-convergence) or lost_shard
// (no-lost-shard).
//
//   fuzz_schedules --chaos --seed 7 --count 1000
//   fuzz_schedules --chaos --sabotage lost_shard --count 20
//   fuzz_schedules --chaos --replay chaos-7-42.repro
//
// Exit status: 0 = every schedule satisfied all invariants (under
// --sabotage: the detector fired); 1 = otherwise, with a repro file per
// violating schedule; 2 = usage / replay input error.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "fuzz/chaos.h"
#include "fuzz/schedule.h"

namespace {

using xrpc::fuzz::ChaosConfig;
using xrpc::fuzz::ChaosEvent;
using xrpc::fuzz::ChaosExplorer;
using xrpc::fuzz::ChaosStats;
using xrpc::fuzz::ScheduleConfig;
using xrpc::fuzz::ScheduleExplorer;
using xrpc::fuzz::ScheduleStats;

int Usage() {
  std::fprintf(
      stderr,
      "usage: fuzz_schedules [--chaos] [--seed N] [--count N] [--out-dir DIR]\n"
      "                      [--wal-dir DIR] [--sabotage [VALUE]] [--verbose]\n"
      "       fuzz_schedules [--chaos] --replay FILE [--wal-dir DIR]\n"
      "  --sabotage VALUE (with --chaos): corrupt_primary | "
      "primary_only_write | lost_shard\n");
  return 2;
}

struct Options {
  int count = 1000;
  bool verbose = false;
  std::string out_dir = ".";
  std::string replay_path;
};

/// The explore/replay loop both explorers share: runs schedules 0..count-1
/// (or replays the one a repro file names), prints every violating run
/// (every run with --verbose or --replay), writes
/// <prefix>-<seed>-<index>.repro per new violation, prints `summary` of the
/// stats, and returns the exit status.
template <typename Explorer, typename Config, typename Summary>
int Drive(const char* mode, const char* prefix, Config config, bool sabotage,
          const Options& opts, Summary summary) {
  int first = 0;
  int count = opts.count;
  bool verbose = opts.verbose;
  if (!opts.replay_path.empty()) {
    std::ifstream in(opts.replay_path);
    std::stringstream buf;
    buf << in.rdbuf();
    auto key = xrpc::fuzz::ParseRepro(buf.str());
    if (!in || !key.ok()) {
      std::fprintf(stderr, "fuzz_schedules: cannot replay %s: %s\n",
                   opts.replay_path.c_str(),
                   in ? key.status().ToString().c_str() : "unreadable");
      return 2;
    }
    config.seed = key->seed;
    first = key->index;
    count = 1;
    verbose = true;
  }

  Explorer explorer(config);
  std::printf("fuzz_schedules%s: seed=%llu grid=%d count=%d\n", mode,
              static_cast<unsigned long long>(config.seed),
              explorer.GridSize(), count);
  int violations = 0;
  for (int i = first; i < first + count; ++i) {
    const auto r = explorer.RunSchedule(explorer.MakeSchedule(i));
    if (verbose || !r.ok) std::fputs(FormatRepro(r).c_str(), stdout);
    if (r.ok) continue;
    ++violations;
    if (!opts.replay_path.empty()) continue;  // the repro already exists
    const std::string path = opts.out_dir + "/" + prefix + "-" +
                             std::to_string(config.seed) + "-" +
                             std::to_string(i) + ".repro";
    std::ofstream(path) << FormatRepro(r);
    std::printf("  repro: %s\n", path.c_str());
  }
  std::printf("fuzz_schedules%s: ", mode);
  summary(explorer.stats());
  // Self-test mode succeeds when the detector caught the sabotage.
  return (violations > 0) == sabotage ? 0 : 1;
}

void PrintScheduleStats(const ScheduleStats& s) {
  std::printf("explored=%" PRId64 " committed=%" PRId64 " aborted=%" PRId64
              " in_doubt_seen=%" PRId64 " coord_crashes=%" PRId64
              " violations=%" PRId64 "\n",
              s.explored, s.committed, s.aborted, s.in_doubt_seen,
              s.coord_crashes, s.violations);
}

void PrintChaosStats(const ChaosStats& s) {
  std::printf("explored=%" PRId64 " queries_ok=%" PRId64
              " clean_faults=%" PRId64 " failover=%" PRId64
              " read_reroutes=%" PRId64 " writes_committed=%" PRId64
              " writes_aborted=%" PRId64 " fired=kill:%" PRId64
              ",revive:%" PRId64 ",join:%" PRId64 ",rebalance:%" PRId64
              ",bump:%" PRId64 " violations=%" PRId64 "\n",
              s.explored, s.queries_ok, s.clean_faults, s.failover_successes,
              s.read_reroutes, s.writes_committed, s.writes_aborted,
              s.fired[ChaosEvent::kKill], s.fired[ChaosEvent::kRevive],
              s.fired[ChaosEvent::kJoin], s.fired[ChaosEvent::kRebalance],
              s.fired[ChaosEvent::kBump], s.violations);
}

}  // namespace

int main(int argc, char** argv) {
  ScheduleConfig config;
  Options opts;
  bool chaos = false;
  const char* sabotage = nullptr;  // "" = bare --sabotage

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--chaos") {
      chaos = true;
    } else if (arg == "--sabotage") {
      sabotage = i + 1 < argc && argv[i + 1][0] != '-' ? argv[++i] : "";
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else if (i + 1 == argc) {
      return Usage();  // every other option takes a value
    } else if (arg == "--seed") {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--count") {
      opts.count = std::atoi(argv[++i]);
    } else if (arg == "--wal-dir") {
      config.wal_dir = argv[++i];
    } else if (arg == "--out-dir") {
      opts.out_dir = argv[++i];
    } else if (arg == "--replay") {
      opts.replay_path = argv[++i];
    } else {
      return Usage();
    }
  }

  if (chaos) {
    ChaosConfig chaos_config;
    chaos_config.seed = config.seed;
    if (sabotage != nullptr &&
        !xrpc::fuzz::ParseSabotage(sabotage, &chaos_config.sabotage)) {
      return Usage();
    }
    return Drive<ChaosExplorer>(
        " --chaos", "chaos", chaos_config,
        chaos_config.sabotage != xrpc::fuzz::Sabotage::kNone, opts,
        PrintChaosStats);
  }
  if (sabotage != nullptr && *sabotage != '\0') return Usage();
  config.sabotage_double_apply = sabotage != nullptr;
  return Drive<ScheduleExplorer>("", "sched", config,
                                 config.sabotage_double_apply, opts,
                                 PrintScheduleStats);
}
