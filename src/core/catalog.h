#ifndef XRPC_CORE_CATALOG_H_
#define XRPC_CORE_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "base/statusor.h"

namespace xrpc::core {

/// How a sharded collection partitions its elements over shards.
enum class PartitionKind {
  kHash,   ///< shard = ShardHash(key) % num_shards
  kRange,  ///< shard owning the half-open numeric range [lo, hi) that
           ///< contains the key's trailing integer (e.g. "person42" -> 42)
};

/// One shard of a collection: which peer owns it and under which physical
/// fragment name the peer's database stores it.
struct ShardInfo {
  int index = 0;          ///< 0-based shard number (merge rank)
  std::string peer_uri;   ///< primary peer, e.g. "xrpc://shard3"
  std::string doc_name;   ///< fragment name at that peer, e.g. "auctions.xml#3"
  int64_t lo = 0;         ///< kRange only: inclusive lower key bound
  int64_t hi = 0;         ///< kRange only: exclusive upper key bound
  /// Replica peers holding the same fragment under the same doc_name.
  /// Read-only subcalls may fail over primary -> replicas[0] -> ... within
  /// the deadline budget; updating calls only ever go to the primary.
  std::vector<std::string> replicas;
};

/// The shard map of one logical collection (DESIGN.md §13): a document
/// name addressable as doc("shard:<name>") or `execute at
/// {"shard:<name>"}`, physically split over the shards below.
struct ShardedCollection {
  std::string name;        ///< logical document name, e.g. "auctions.xml"
  PartitionKind kind = PartitionKind::kHash;
  /// Human-readable partition key description ("buyer/@person"); the
  /// routable form is `route_param` below.
  std::string partition_key;
  /// Index of the argument that carries the partition key when a call is
  /// routed at this collection (`execute at {"shard:<name>"} {f($key,...)}`);
  /// -1 = no routable parameter, every call broadcasts to all shards.
  int route_param = -1;
  std::vector<ShardInfo> shards;
};

/// Stable FNV-1a hash of a partition-key string. The sharded XMark loader
/// and the query-time router MUST agree on this function — both sides use
/// this one.
uint64_t ShardHash(std::string_view key);

/// The peer catalog: a versioned registry of sharded collections, shared
/// by every peer of a simulated network (standing in for the gossiped /
/// replicated catalog service of a real deployment). Query compilation
/// (`execute at` decomposition), fn:doc resolution, and the XRPC service's
/// local fragment lookup all consult it.
///
/// Thread-safety: all entry points lock. Readers copy a collection out
/// with Snapshot(), so a concurrent re-registration (the epoch-fencing
/// re-route of DESIGN.md §14) never changes a shard map under them.
class Catalog {
 public:
  /// Registers (or replaces) a collection's shard map and bumps the
  /// catalog version. Validates that the shard list is non-empty, indices
  /// are dense 0..n-1, and range bounds cover disjoint ascending ranges.
  Status RegisterCollection(ShardedCollection collection);

  /// Race-free lookup: copies the collection and the catalog version it
  /// was read at under one lock, so a concurrent re-registration cannot
  /// mutate the map a reader is iterating. Returns false when the
  /// collection is unknown.
  bool Snapshot(std::string_view name, ShardedCollection* out,
                int64_t* version_out) const;

  /// Routes a partition-key value to the index of its owning shard.
  /// kHash: ShardHash(key) modulo shard count. kRange: the shard whose
  /// [lo, hi) contains the key's trailing integer; a key without a
  /// trailing integer or outside every range is an error (callers treat a
  /// routing error as "cannot prune" and broadcast instead).
  StatusOr<int> RouteKey(const ShardedCollection& collection,
                         std::string_view key) const;

  /// Monotonic registration counter (0 = empty catalog).
  int64_t version() const;

  // -- Fragment data versions (DESIGN.md §17) ------------------------------
  //
  // A second, orthogonal counter family: the authoritative DATA version of
  // each fragment, advanced by the 2PC coordinator after every committed
  // update that wrote the fragment. Unlike shard-map re-registration these
  // do NOT bump the catalog version — data churn must not StaleCatalog-fence
  // in-flight reads; instead the version is stamped into the xrpc:shard
  // scope so a lagging replica fences itself with StaleReplica. 0 means
  // "never updated since load" (the fence is then disabled).

  /// Authoritative data version of shard `shard_index` of `collection`.
  uint64_t FragmentDataVersion(std::string_view collection,
                               int shard_index) const;

  /// Raises the fragment's authoritative data version to `version` (no-op
  /// when already at or past it — commits may be acknowledged out of order
  /// and the advance must be idempotent).
  void AdvanceFragmentDataVersion(std::string_view collection, int shard_index,
                                  uint64_t version);

  /// Every fragment of `collection` whose data version is non-zero, as
  /// (shard_index, version) pairs — what a rejoining replica diffs its
  /// applied versions against.
  std::vector<std::pair<int, uint64_t>> FragmentDataVersions(
      std::string_view collection) const;

  std::vector<std::string> CollectionNames() const;

  /// Observer invoked whenever RouteKey fails to place a key (callers then
  /// broadcast to every shard). The catalog is a leaf library, so metrics
  /// are injected rather than linked: PeerNetwork wires this listener to
  /// RpcMetrics' Metric::kRouteMisses. Independently of the listener the first
  /// miss per collection is logged to stderr — a quietly regressed routing
  /// predicate otherwise hides as an N-fold fan-out.
  using RouteMissListener = std::function<void(const std::string& collection)>;
  void set_route_miss_listener(RouteMissListener listener);

  /// True for logical shard destinations: "shard:<collection>".
  static bool IsShardUri(std::string_view uri);
  /// The collection name of a shard URI ("" when not a shard URI).
  static std::string_view CollectionOf(std::string_view uri);
  /// Renders the logical destination of a collection name.
  static std::string ShardUri(std::string_view collection);

 private:
  void ReportRouteMiss(const std::string& collection,
                       const std::string& why) const;

  mutable std::mutex mu_;
  std::map<std::string, ShardedCollection, std::less<>> collections_;
  int64_t version_ = 0;
  /// Authoritative per-fragment data versions, keyed "<collection>#<shard>".
  /// Survives shard-map re-registration (a rebalance moves a fragment, it
  /// does not rewind its history).
  std::map<std::string, uint64_t> fragment_versions_;
  RouteMissListener route_miss_listener_;
  /// Collections whose first route miss has already been logged.
  mutable std::set<std::string> miss_logged_;
};

}  // namespace xrpc::core

#endif  // XRPC_CORE_CATALOG_H_
