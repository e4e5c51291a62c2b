#include "xquery/path_index.h"

#include <algorithm>

namespace xrpc::xquery {

std::shared_ptr<const PathIndex::Entry> PathIndex::Find(
    const Expr* path, const xml::Node& doc) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(Key{path, &doc});
  if (it == entries_.end() || it->second->stamp != doc.mutation_stamp() ||
      it->second->doc.expired()) {
    return nullptr;
  }
  return it->second;
}

int64_t PathIndex::Insert(const Expr* path, const xml::Node& doc,
                          std::shared_ptr<const Entry> entry) {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.insert_or_assign(Key{path, &doc}, std::move(entry));
  if (entries_.size() < sweep_at_) return 0;
  const size_t before = entries_.size();
  std::erase_if(entries_,
                [](const auto& kv) { return kv.second->doc.expired(); });
  sweep_at_ = std::max(kMinSweep, 2 * entries_.size());
  return static_cast<int64_t>(before - entries_.size());
}

}  // namespace xrpc::xquery
