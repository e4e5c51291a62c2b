#include "core/catalog.h"

#include <cstdio>

namespace xrpc::core {

namespace {

constexpr std::string_view kShardScheme = "shard:";

/// Parses the trailing decimal integer of a key ("person42" -> 42,
/// "42" -> 42). Returns false when the key has no trailing digits.
bool TrailingInteger(std::string_view key, int64_t* out) {
  size_t end = key.size();
  size_t begin = end;
  while (begin > 0 && key[begin - 1] >= '0' && key[begin - 1] <= '9') --begin;
  if (begin == end) return false;
  // Bound the digit run so a pathological key cannot overflow.
  if (end - begin > 18) begin = end - 18;
  int64_t v = 0;
  for (size_t i = begin; i < end; ++i) v = v * 10 + (key[i] - '0');
  *out = v;
  return true;
}

}  // namespace

uint64_t ShardHash(std::string_view key) {
  // FNV-1a, 64-bit: stable across platforms, good dispersion on the short
  // "personN" / "itemN" keys the XMark loader partitions on.
  uint64_t h = 14695981039346656037ull;
  for (char c : key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

Status Catalog::RegisterCollection(ShardedCollection collection) {
  if (collection.name.empty()) {
    return Status::InvalidArgument("sharded collection needs a name");
  }
  if (collection.shards.empty()) {
    return Status::InvalidArgument("sharded collection " + collection.name +
                                   " has no shards");
  }
  for (size_t i = 0; i < collection.shards.size(); ++i) {
    const ShardInfo& s = collection.shards[i];
    if (s.index != static_cast<int>(i)) {
      return Status::InvalidArgument(
          "shard indices of " + collection.name +
          " must be dense 0..n-1, shard " + std::to_string(i) + " has index " +
          std::to_string(s.index));
    }
    if (s.peer_uri.empty() || s.doc_name.empty()) {
      return Status::InvalidArgument("shard " + std::to_string(i) + " of " +
                                     collection.name +
                                     " lacks a peer URI or fragment name");
    }
    for (const std::string& replica : s.replicas) {
      if (replica.empty()) {
        return Status::InvalidArgument("shard " + std::to_string(i) + " of " +
                                       collection.name +
                                       " lists an empty replica URI");
      }
      if (replica == s.peer_uri) {
        return Status::InvalidArgument(
            "shard " + std::to_string(i) + " of " + collection.name +
            " lists its primary " + replica + " as a replica");
      }
    }
    if (collection.kind == PartitionKind::kRange) {
      if (s.hi <= s.lo) {
        return Status::InvalidArgument("empty key range on shard " +
                                       std::to_string(i) + " of " +
                                       collection.name);
      }
      if (i > 0 && s.lo < collection.shards[i - 1].hi) {
        return Status::InvalidArgument(
            "overlapping key ranges on collection " + collection.name);
      }
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  collections_[collection.name] = std::move(collection);
  ++version_;
  return Status::OK();
}

bool Catalog::Snapshot(std::string_view name, ShardedCollection* out,
                       int64_t* version_out) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (version_out != nullptr) *version_out = version_;
  auto it = collections_.find(name);
  if (it == collections_.end()) return false;
  if (out != nullptr) *out = it->second;
  return true;
}

StatusOr<int> Catalog::RouteKey(const ShardedCollection& collection,
                                std::string_view key) const {
  if (collection.shards.empty()) {
    return Status::Internal("collection " + collection.name + " has no shards");
  }
  if (collection.kind == PartitionKind::kHash) {
    return static_cast<int>(ShardHash(key) % collection.shards.size());
  }
  int64_t v = 0;
  if (!TrailingInteger(key, &v)) {
    ReportRouteMiss(collection.name, "key '" + std::string(key) +
                                         "' has no trailing integer");
    return Status::InvalidArgument("range-partitioned " + collection.name +
                                   ": key '" + std::string(key) +
                                   "' has no trailing integer");
  }
  for (const ShardInfo& s : collection.shards) {
    if (v >= s.lo && v < s.hi) return s.index;
  }
  ReportRouteMiss(collection.name,
                  "key '" + std::string(key) + "' outside every range");
  return Status::InvalidArgument("key '" + std::string(key) +
                                 "' outside every range of " +
                                 collection.name);
}

void Catalog::set_route_miss_listener(RouteMissListener listener) {
  std::lock_guard<std::mutex> lock(mu_);
  route_miss_listener_ = std::move(listener);
}

void Catalog::ReportRouteMiss(const std::string& collection,
                              const std::string& why) const {
  RouteMissListener listener;
  bool log_first = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    listener = route_miss_listener_;
    log_first = miss_logged_.insert(collection).second;
  }
  if (log_first) {
    std::fprintf(stderr,
                 "xrpc: catalog route miss on collection %s (%s); "
                 "broadcasting to every shard\n",
                 collection.c_str(), why.c_str());
  }
  if (listener) listener(collection);
}

int64_t Catalog::version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return version_;
}

namespace {
std::string FragmentKey(std::string_view collection, int shard_index) {
  return std::string(collection) + "#" + std::to_string(shard_index);
}
}  // namespace

uint64_t Catalog::FragmentDataVersion(std::string_view collection,
                                      int shard_index) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = fragment_versions_.find(FragmentKey(collection, shard_index));
  return it == fragment_versions_.end() ? 0 : it->second;
}

void Catalog::AdvanceFragmentDataVersion(std::string_view collection,
                                         int shard_index, uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t& v = fragment_versions_[FragmentKey(collection, shard_index)];
  if (version > v) v = version;
}

std::vector<std::pair<int, uint64_t>> Catalog::FragmentDataVersions(
    std::string_view collection) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<int, uint64_t>> out;
  auto it = collections_.find(collection);
  if (it == collections_.end()) return out;
  for (const ShardInfo& s : it->second.shards) {
    auto fv = fragment_versions_.find(FragmentKey(collection, s.index));
    if (fv != fragment_versions_.end() && fv->second > 0) {
      out.emplace_back(s.index, fv->second);
    }
  }
  return out;
}

std::vector<std::string> Catalog::CollectionNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(collections_.size());
  for (const auto& [name, c] : collections_) names.push_back(name);
  return names;
}

bool Catalog::IsShardUri(std::string_view uri) {
  return uri.size() > kShardScheme.size() &&
         uri.substr(0, kShardScheme.size()) == kShardScheme;
}

std::string_view Catalog::CollectionOf(std::string_view uri) {
  if (!IsShardUri(uri)) return {};
  return uri.substr(kShardScheme.size());
}

std::string Catalog::ShardUri(std::string_view collection) {
  return std::string(kShardScheme) + std::string(collection);
}

}  // namespace xrpc::core
