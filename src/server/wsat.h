#ifndef XRPC_SERVER_WSAT_H_
#define XRPC_SERVER_WSAT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "base/statusor.h"
#include "net/transport.h"

namespace xrpc::server {

/// Namespace of our WS-AtomicTransaction-style messages.
inline constexpr char kWsatNs[] = "http://schemas.xmlsoap.org/ws/2004/10/wsat";

/// Path under which peers expose the WS-AT participant endpoint.
inline constexpr char kWsatPath[] = "wsat";

/// WS-AT verbs exchanged between the coordinator and participants.
/// kInquire is the recovery verb: a participant holding a PREPARED log
/// record with no decision asks the coordinator for the outcome; under
/// presumed abort, "no commit decision on record" answers "aborted".
/// kRepair is the anti-entropy verb (DESIGN.md §17): a lagging replica
/// asks a peer holding the same fragment for the committed PULs (or the
/// full fragment) between its applied data version and the peer's.
enum class WsatOp { kPrepare, kCommit, kRollback, kInquire, kRepair };

/// A sharded fragment a participant's prepared PUL writes: reported on the
/// Prepare vote and folded into CommitOutcome, so the coordinator advances
/// the catalog's authoritative fragment data version once the transaction
/// commits (only fragments that were actually written advance — an
/// over-bump would fence reads of untouched fragments forever).
struct WrittenFragment {
  std::string doc;         ///< physical fragment name at the participant
  std::string collection;  ///< logical collection the fragment realizes
  int shard_index = 0;
  uint64_t version = 0;    ///< data version committing this PUL produces
};

/// One WS-AT request/response message. Responses reuse the struct with
/// `op` echoing the verb, `ok`/`reason` carrying the vote, and — for
/// kInquire responses — `outcome` naming the decision.
struct WsatMessage {
  WsatOp op = WsatOp::kPrepare;
  std::string query_id;
  bool ok = true;
  std::string reason;
  std::string outcome;  ///< inquiry replies: "committed" | "aborted"

  /// Prepare vote replies: fragments the voted PUL writes (see
  /// WrittenFragment). Empty for non-sharded transactions.
  std::vector<WrittenFragment> fragments;

  // -- kRepair fields (unused by the four classic verbs) -------------------
  std::string collection;     ///< fragment's logical collection
  int shard_index = 0;        ///< fragment's shard index
  std::string doc;            ///< physical fragment name
  uint64_t from_version = 0;  ///< request: requester's applied data version
  /// Request: skip delta mode and send the full fragment (set after a
  /// delta replay failed or its digest check mismatched).
  bool want_full = false;
  uint64_t version = 0;       ///< reply: donor's applied data version
  uint64_t digest = 0;        ///< reply: ShardHash of donor's serialized tree
  /// Reply, full-transfer mode: the donor's complete serialized fragment.
  /// Empty => delta mode, replay `deltas` in order instead.
  std::string full_body;
  /// Reply, delta mode: committed PULs covering from_version+1..version
  /// contiguously, each with the query id that produced it (the requester
  /// marks those ids committed so late 2PC traffic stays idempotent).
  struct RepairDelta {
    uint64_t version = 0;
    std::string query_id;
    std::string pul;
  };
  std::vector<RepairDelta> deltas;
};

std::string SerializeWsatRequest(const WsatMessage& message);
std::string SerializeWsatResponse(const WsatMessage& message);
StatusOr<WsatMessage> ParseWsatMessage(std::string_view text);

/// The stable state a participant logs at Prepare, serialized into the
/// PREPARED record of the WAL: who to ask for the outcome, which documents
/// the PUL writes (with their snapshot base versions, for first-committer-
/// wins revalidation at apply time), and the serialized PUL itself.
struct PreparedPayload {
  std::string coordinator;  ///< URI whose wsat endpoint answers kInquire
  std::vector<std::pair<std::string, uint64_t>> docs;  ///< name, base version
  std::string pul;          ///< PendingUpdateList::Serialize output
  /// Sharded fragments the PUL writes, with the data version a commit
  /// produces — durable so crash recovery re-votes them and the replica's
  /// applied data version still advances on a post-restart commit.
  std::vector<WrittenFragment> fragments;
};

std::string SerializePreparedPayload(const PreparedPayload& payload);
StatusOr<PreparedPayload> ParsePreparedPayload(std::string_view text);

/// Sends one WS-AT verb to `participant`'s wsat endpoint and parses the
/// reply.
StatusOr<WsatMessage> SendWsatMessage(net::Transport* transport,
                                      const std::string& participant,
                                      WsatOp op, const std::string& query_id);

/// Sends a fully populated WS-AT request (kRepair carries more than the
/// verb + query id) to `participant`'s wsat endpoint and parses the reply.
/// `retries`, when given, receives the retransmissions the transport made,
/// whether a reply arrived or not (Transport::PostWithRetries).
StatusOr<WsatMessage> SendWsatEnvelope(net::Transport* transport,
                                       const std::string& participant,
                                       const WsatMessage& request,
                                       int* retries = nullptr);

/// Outcome of a distributed commit (XrpcService::Commit).
struct CommitOutcome {
  bool committed = false;
  std::string abort_reason;
  int prepares_sent = 0;
  int commits_sent = 0;    ///< Commit transmissions, retransmissions included
  int rollbacks_sent = 0;
  int commit_retries = 0;  ///< Commit retransmissions the transport made
  /// Participants whose Commit was not acknowledged. The decision stands
  /// (committed == true); they stay pending at the coordinator and are
  /// drained by its RetryInDoubt()/Restart() or by participant inquiry.
  std::vector<std::string> in_doubt;
  /// Union of the fragments every yes-vote reported writing (deduplicated
  /// by collection#shard at the max version). On commit the caller
  /// advances the catalog's fragment data versions from this list.
  std::vector<WrittenFragment> fragments;
};

}  // namespace xrpc::server

#endif  // XRPC_SERVER_WSAT_H_
