#ifndef XRPC_FUZZ_CHAOS_H_
#define XRPC_FUZZ_CHAOS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fuzz/repro.h"

namespace xrpc::fuzz {

struct Fleet;

/// One membership event (DESIGN.md §14). Peer slots: 0..3 are the base
/// shard peers, 4..5 are spares that exist only after a kJoin targets them.
/// Events aimed at a slot that does not exist yet are no-ops, so every
/// schedule is valid by construction.
struct ChaosEvent {
  enum Kind {
    kKill,       ///< disconnect the peer (partition, dials refused)
    kRevive,     ///< reconnect it (or, if it is up, the first partitioned peer)
    kJoin,       ///< add spare `peer` to the fleet, rebalance `shard` onto it
    kRebalance,  ///< move `shard`'s primary to existing peer `peer`
    kBump,       ///< identical catalog re-registration (version only)
  };
  static constexpr int kNumKinds = 5;
  Kind kind = kBump;
  /// Post serial at which the event fires; 0 = before the first query.
  int serial = 0;
  int peer = 0;   ///< target peer slot
  int shard = 0;  ///< shard index (kJoin / kRebalance)
};

/// One chaos schedule: everything that varies between runs of the fixed
/// workload. A pure function of (seed, index) — replaying the same pair
/// reproduces the identical run under the virtual clock.
struct ChaosSchedule {
  uint64_t seed = 0;
  int index = 0;
  /// Total copies of every fragment, primary included (ring placement).
  int replication_factor = 1;
  /// Per-peer circuit breaker on the outgoing transport: dead-peer dials
  /// trip it open, so later subcalls skip straight to a replica.
  bool use_breaker = false;
  /// The middle broadcast of the workload becomes the updating `u:stamp()`
  /// broadcast: an all-copies 2PC write racing the events (DESIGN.md §17).
  bool writes = false;
  std::vector<ChaosEvent> events;

  std::string Describe() const;
};

/// Outcome of one chaos run (five queries under one event schedule).
struct ChaosResult {
  ChaosSchedule schedule;
  bool ok = true;                       ///< all invariants held
  std::vector<std::string> violations;  ///< "invariant: detail" lines

  /// Per query: "ok: <normalized result>", "committed", "aborted: <reason>"
  /// or "fault: <status>".
  std::vector<std::string> outcomes;
  int queries_ok = 0;
  int events_fired = 0;
  bool write_committed = false;
  int64_t failover_successes = 0;
  int64_t read_reroutes = 0;
  int64_t elapsed_us = 0;  ///< virtual time of the whole run
};

struct ChaosStats {
  int64_t explored = 0;
  int64_t queries_ok = 0;
  int64_t clean_faults = 0;
  int64_t violations = 0;
  int64_t failover_successes = 0;
  int64_t read_reroutes = 0;
  int64_t writes_committed = 0;
  int64_t writes_aborted = 0;  ///< aborted or failed cleanly
  int64_t fired[ChaosEvent::kNumKinds] = {};  ///< effective events, by kind
};

/// Self-test modes; each names the detector it proves non-vacuous.
enum class Sabotage {
  kNone,
  /// byte-identity: shard 0's primary fragment is emptied before the run.
  kCorruptPrimary,
  /// replica-convergence: at quiesce, before repair, shard 0's primary is
  /// written directly (no 2PC, no version advance), so repair sees no lag.
  kPrimaryOnlyWrite,
  /// no-lost-shard: at quiesce, every server of auctions shard 0 stays
  /// partitioned instead of healing.
  kLostShard,
};
/// Parses "none", "corrupt_primary", "primary_only_write" or "lost_shard";
/// false on an unknown name.
bool ParseSabotage(std::string_view name, Sabotage* out);

struct ChaosConfig {
  uint64_t seed = 1;
  Sabotage sabotage = Sabotage::kNone;
};

/// Membership-chaos exploration (DESIGN.md §14). Every run builds the same
/// fleet — 4 shard peers of a replicated XMark deployment, 2 joinable
/// spare slots and the p0 frontend — fires the schedule's events at post
/// serials through the simulated network's hook, and runs one workload:
/// broadcast, point read, broadcast, point read, broadcast (the middle one
/// the updating broadcast when `writes` is set). Invariants, per query:
///   1. byte-identity — a read (or a quiesce probe) that returns, returns
///      exactly the 4-shard rf-1 reference network's answer (updated iff
///      the write committed);
///   2. replica-coverage — when every shard keeps a live, never-killed,
///      current copy at query start and at most one catalog mutation
///      raced it, the read MUST survive;
///   3. clean-fault (reads) — a network or deadline error, StaleReplica
///      once the write ran, StaleCatalog only when at least two catalog
///      mutations raced the read;
///   4. clean-fault (write) — a network, deadline or StaleCatalog error (a
///      coordinator abort is no fault);
///   5. no-hang — at most the deadline budget plus one message of slack;
///   6. single-reroute — at most one catalog re-route when at most one
///      mutation raced the query;
///   7. update-survival — with no kill anywhere in the schedule and no
///      mutation racing it, the write commits.
/// And after quiesce (partitions healed, in-doubt 2PC drained, lagging
/// copies repaired):
///   8. no-lost-shard — every shard of both collections has a live server,
///      and probes over both collections succeed;
///   9. replica-convergence — every catalog-listed copy of every auctions
///      fragment is byte-identical to the reference's serial state.
class ChaosExplorer {
 public:
  explicit ChaosExplorer(const ChaosConfig& config = {});
  ~ChaosExplorer();

  /// Number of enumerated grid points; index >= GridSize() is sampled.
  int GridSize() const;

  /// Deterministically derives schedule `index` of this explorer's seed.
  ChaosSchedule MakeSchedule(int index) const;

  /// Builds a fresh fleet, runs the workload under the schedule, and
  /// checks the invariants.
  ChaosResult RunSchedule(const ChaosSchedule& schedule);

  const ChaosStats& stats() const { return stats_; }

 private:
  ChaosConfig config_;
  ChaosStats stats_;
  /// The chaos-free 4-shard rf-1 reference network, kept alive to answer
  /// point-read baselines on demand (cached by query).
  std::unique_ptr<Fleet> reference_;
  std::map<std::string, std::string> reference_answers_;
  std::string broadcast_, broadcast_updated_, persons_;
  /// Serialized auctions fragments before and after the serial update.
  std::vector<std::string> frags_, frags_updated_;
};

/// Self-contained repro file for a chaos run; replay with
/// fuzz_schedules --chaos --replay (the file carries seed + index).
std::string FormatRepro(const ChaosResult& r);

}  // namespace xrpc::fuzz

#endif  // XRPC_FUZZ_CHAOS_H_
