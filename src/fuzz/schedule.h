#ifndef XRPC_FUZZ_SCHEDULE_H_
#define XRPC_FUZZ_SCHEDULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/peer_network.h"
#include "fuzz/repro.h"
#include "net/simulated_network.h"
#include "server/xrpc_service.h"

namespace xrpc::fuzz {

/// One fault schedule: everything that varies between runs of the fixed
/// workload (multi-destination Bulk RPC update + WS-AT 2PC across peers
/// y and z). A Schedule is a pure function of (seed, index) — replaying
/// the same pair reproduces the identical run under the virtual clock.
struct Schedule {
  uint64_t seed = 0;
  int index = 0;

  net::FaultProfile faults;   ///< injected on the simulated transport
  int retry_attempts = 1;     ///< RetryPolicy.max_attempts at p0

  /// Participant crash: which peer (0 = none, 1 = y, 2 = z) dies at which
  /// WS-AT point while handling the transaction.
  int crash_peer = 0;
  server::CrashPoint crash_point = server::CrashPoint::kNone;

  /// Coordinator crash armed at p0: 0 = none, 1 = after collecting votes
  /// (no decision logged -> presumed abort), 2 = after the decision log
  /// record (commit redriven on restart).
  int coord_crash = 0;

  /// File-backed WAL on the crashing participant (vs in-memory log).
  bool durable_wal = false;

  /// End-to-end deadline budget of the workload query: 0 = none (today's
  /// behavior), 1 = loose (never expires under any grid fault), 2 = tight
  /// (expires whenever a latency spike lands mid-transaction). The four
  /// invariants must hold regardless of where in the 2PC the budget dies.
  int deadline_mode = 0;

  std::string Describe() const;
};

/// Outcome of running one schedule, after the drain phase (network healed,
/// crashed peers restarted, coordinator in-doubt retry, session expiry).
struct ScheduleResult {
  Schedule schedule;
  bool ok = true;                       ///< all four invariants held
  std::vector<std::string> violations;  ///< "invariant: detail" lines

  bool committed_known = false;  ///< the coordinator reported an outcome
  bool committed = false;
  int delta_y = 0;  ///< films added at y (0 = aborted, 1 = committed)
  int delta_z = 0;
};

struct ScheduleStats {
  int64_t explored = 0;
  int64_t committed = 0;
  int64_t aborted = 0;
  int64_t violations = 0;
  int64_t in_doubt_seen = 0;  ///< runs where some peer parked in-doubt
  int64_t coord_crashes = 0;  ///< runs where p0 died at its armed point
};

struct ScheduleConfig {
  uint64_t seed = 1;
  /// Directory for file-backed WAL schedules; empty disables the
  /// durable_wal dimension (everything stays in-memory).
  std::string wal_dir;
  /// Self-test mode: after the drain phase, re-apply the committed film at
  /// peer y a second time behind the protocol's back. The invariant
  /// checker must flag this as an at-most-once / all-or-nothing violation
  /// — proving the detector is not vacuous.
  bool sabotage_double_apply = false;
};

/// Systematic fault-schedule exploration for the fixed 2PC workload of
/// Section 6: the first GridSize() indices enumerate the full cross
/// product {fault profile} x {crash schedule} x {retry policy}; indices
/// beyond that sample the space randomly (seeded). Four invariants are
/// asserted after every run:
///   1. at-most-once  — no peer applies the update PUL twice, even when a
///      truncation fault delivers the request but loses the response;
///   2. all-or-nothing — y and z converge to the same delta (both applied
///      or both aborted);
///   3. no in-doubt leaks — after restart + RetryInDoubt + expiry, every
///      peer reports zero in-doubt transactions and zero live sessions;
///   4. serial equivalence — each final document equals one of the two
///      states reachable by a serial history (untouched, or exactly one
///      film appended).
class ScheduleExplorer {
 public:
  explicit ScheduleExplorer(const ScheduleConfig& config = {});
  ~ScheduleExplorer();

  /// Number of systematically enumerated grid points; index >= GridSize()
  /// is sampled randomly.
  int GridSize() const;

  /// Deterministically derives schedule `index` of this explorer's seed.
  Schedule MakeSchedule(int index) const;

  /// Builds a fresh 3-peer network, injects the schedule, runs the
  /// workload, drains, and checks the invariants.
  ScheduleResult RunSchedule(const Schedule& schedule);

  const ScheduleStats& stats() const { return stats_; }

 private:
  ScheduleConfig config_;
  ScheduleStats stats_;
  /// Canonical serializations of the two serially reachable final states,
  /// computed once from a fault-free run.
  std::string base_doc_;
  std::string applied_y_doc_;
  std::string applied_z_doc_;
};

/// Self-contained repro file for an invariant violation; replay with
/// fuzz_schedules --replay (the file carries seed + index).
std::string FormatRepro(const ScheduleResult& r);

}  // namespace xrpc::fuzz

#endif  // XRPC_FUZZ_SCHEDULE_H_
