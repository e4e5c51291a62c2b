#ifndef XRPC_SERVER_ISOLATION_H_
#define XRPC_SERVER_ISOLATION_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>

#include "base/statusor.h"
#include "soap/message.h"
#include "xml/node.h"
#include "xquery/update.h"

namespace xrpc::server {

/// Per-query state a peer keeps for repeatable-read isolation (rule R'Fr /
/// R'Fu): the pinned database state db_p(t_q^p) — realized as lazy private
/// document clones — plus the accumulated pending update lists ∆_q^p, the
/// 2PC state, and the snapshot expiry deadline.
struct QuerySession {
  soap::QueryId id;

  /// Lazily cloned documents: name -> (private tree, base version).
  std::map<std::string, std::pair<xml::NodePtr, uint64_t>> docs;

  /// Union of pending update lists of all updating calls handled so far.
  xquery::PendingUpdateList pul;

  /// Steady-clock deadline (microseconds) after which the snapshot may be
  /// discarded.
  int64_t deadline_us = 0;

  bool prepared = false;  ///< 2PC: Prepare() succeeded and the PUL is logged

  /// Documents (by name) the logged PUL writes, determined at Prepare.
  std::set<std::string> written_docs;

  /// Sharded-fragment provenance of this session's writes (DESIGN.md §17):
  /// doc_name -> the fragment it realizes and the data version a commit of
  /// this session will produce (scope data_version at execute time + 1).
  /// Filtered to written_docs at Prepare, voted back to the coordinator,
  /// and installed as the applied data version when the PUL commits.
  struct FragmentTarget {
    std::string collection;
    int shard_index = 0;
    uint64_t target_version = 0;
  };
  std::map<std::string, FragmentTarget> fragment_targets;
};

/// Manages repeatable-read query sessions at one peer, including snapshot
/// expiry and the bookkeeping of expired queryIDs ("the local XRPC handler
/// should still remember expired queryIDs, such that it can give errors on
/// XRPC requests that arrive too late").
class IsolationManager {
 public:
  /// `now_us` supplies monotonic time; injectable for deterministic tests.
  explicit IsolationManager(std::function<int64_t()> now_us = nullptr);

  IsolationManager(const IsolationManager&) = delete;
  IsolationManager& operator=(const IsolationManager&) = delete;

  /// Returns the session for `id`, creating it on first contact (pinning
  /// t_q^p = now). Expired or discarded ids yield kIsolationError.
  StatusOr<QuerySession*> GetSession(const soap::QueryId& id);

  /// Looks up an existing session without creating one.
  StatusOr<QuerySession*> FindSession(const std::string& id);

  /// Drops the session (after Commit/Rollback completed).
  void EndSession(const std::string& id);

  /// Discards sessions whose timeout has passed, remembering their ids.
  /// Sessions that voted yes at Prepare (`prepared == true`) are exempt:
  /// their PUL is on the stable log and must survive until the
  /// coordinator's decision arrives — expiring them would silently break
  /// the 2PC promise to commit.
  void ExpireSessions();

  /// Reinstalls a session reconstructed from the WAL during crash recovery
  /// (prepared, in-doubt). Replaces any session with the same id.
  QuerySession* RestoreSession(std::unique_ptr<QuerySession> session);

  /// Drops ALL volatile session state (the in-process crash simulation:
  /// what a process restart loses).
  void Reset();

  size_t active_sessions() const;

  int64_t NowMicros() const { return now_us_(); }

  /// Replaces the time source (deterministic expiry tests).
  void SetTimeSource(std::function<int64_t()> now_us) {
    now_us_ = std::move(now_us);
  }

 private:
  std::function<int64_t()> now_us_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<QuerySession>> sessions_;
  /// Expired ids, with per-host latest expired timestamp for pruning.
  std::set<std::string> expired_ids_;
  std::map<std::string, int64_t> latest_expired_timestamp_by_host_;
};

}  // namespace xrpc::server

#endif  // XRPC_SERVER_ISOLATION_H_
