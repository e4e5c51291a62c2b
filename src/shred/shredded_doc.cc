#include "shred/shredded_doc.h"

namespace xrpc::shred {

std::shared_ptr<ShreddedDoc> ShreddedDoc::Shred(xml::NodePtr doc) {
  std::shared_ptr<ShreddedDoc> shredded(new ShreddedDoc());
  shredded->anchor_ = doc;
  shredded->ShredNode(doc.get(), 0, -1);
  return shredded;
}

void ShreddedDoc::ShredNode(xml::Node* node, int32_t level, int32_t parent) {
  int32_t pre = static_cast<int32_t>(rows_.size());
  NodeRow row;
  row.pre = pre;
  row.level = level;
  row.parent = parent;
  row.kind = node->kind();
  row.dom = node;
  if (node->kind() == xml::NodeKind::kElement ||
      node->kind() == xml::NodeKind::kAttribute ||
      node->kind() == xml::NodeKind::kProcessingInstruction) {
    std::string key = node->name().Clark();
    auto it = name_ids_.find(key);
    if (it == name_ids_.end()) {
      row.name_id = static_cast<int32_t>(names_.size());
      names_.push_back(node->name());
      name_ids_[key] = row.name_id;
    } else {
      row.name_id = it->second;
    }
  }
  rows_.push_back(row);
  pre_of_[node] = pre;

  if (!node->attributes().empty()) {
    std::vector<xml::Node*>& attrs = attrs_[pre];
    for (const xml::NodePtr& a : node->attributes()) {
      attrs.push_back(a.get());
      // Attribute names participate in the dictionary too.
      std::string key = a->name().Clark();
      if (name_ids_.find(key) == name_ids_.end()) {
        name_ids_[key] = static_cast<int32_t>(names_.size());
        names_.push_back(a->name());
      }
    }
  }

  for (const xml::NodePtr& c : node->children()) {
    ShredNode(c.get(), level + 1, pre);
  }
  rows_[pre].size = static_cast<int32_t>(rows_.size()) - pre - 1;
}

int32_t ShreddedDoc::NameId(const xml::QName& name) const {
  auto it = name_ids_.find(name.Clark());
  return it == name_ids_.end() ? -1 : it->second;
}

std::vector<int32_t> ShreddedDoc::DescendantElements(int32_t pre,
                                                     int32_t name_id) const {
  std::vector<int32_t> out;
  const NodeRow& v = rows_[pre];
  for (int32_t i = pre + 1; i <= pre + v.size; ++i) {
    const NodeRow& r = rows_[i];
    if (r.kind != xml::NodeKind::kElement) continue;
    if (name_id >= 0 && r.name_id != name_id) continue;
    out.push_back(i);
  }
  return out;
}

std::vector<xml::Node*> ShreddedDoc::Attributes(int32_t pre,
                                                int32_t name_id) const {
  std::vector<xml::Node*> out;
  auto it = attrs_.find(pre);
  if (it == attrs_.end()) return out;
  for (xml::Node* a : it->second) {
    if (name_id >= 0) {
      auto id = name_ids_.find(a->name().Clark());
      if (id == name_ids_.end() || id->second != name_id) continue;
    }
    out.push_back(a);
  }
  return out;
}

std::string ShreddedDoc::StringValue(int32_t pre) const {
  const NodeRow& v = rows_[pre];
  if (v.kind == xml::NodeKind::kText) return v.dom->value();
  std::string out;
  for (int32_t i = pre + 1; i <= pre + v.size; ++i) {
    if (rows_[i].kind == xml::NodeKind::kText) out += rows_[i].dom->value();
  }
  return out;
}

int32_t ShreddedDoc::PreOf(const xml::Node* node) const {
  auto it = pre_of_.find(node);
  return it == pre_of_.end() ? -1 : it->second;
}

std::shared_ptr<ShreddedDoc> ShredCache::GetOrShred(const xml::NodePtr& doc) {
  // One lock over lookup AND shred: concurrent workers missing on the
  // same document wait for the first shred instead of duplicating it.
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t stamp = doc->Root()->mutation_stamp();
  auto it = cache_.find(doc.get());
  if (it != cache_.end() && it->second.stamp == stamp) return it->second.doc;
  auto shredded = ShreddedDoc::Shred(doc);
  cache_[doc.get()] = {doc->Root()->mutation_stamp(), shredded};
  return shredded;
}

}  // namespace xrpc::shred
