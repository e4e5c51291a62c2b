#ifndef XRPC_SHRED_SHREDDED_DOC_H_
#define XRPC_SHRED_SHREDDED_DOC_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/statusor.h"
#include "xml/node.h"

namespace xrpc::shred {

/// A document shredded into the pre/size/level encoding MonetDB/XQuery
/// uses: nodes in document order (pre), with subtree size and tree depth.
///
/// With this encoding the XPath axes become range scans:
///   descendants(v)  = (v.pre, v.pre + v.size]
///   children(v)     = descendants at level v.level + 1 (skippable in one
///                     pass by jumping over grandchild subtrees)
///   parent(v)       = nearest preceding node with smaller level
/// — the essence of the staircase join.
///
/// Every shredded node keeps a pointer to its DOM node so results can flow
/// back into the XDM layer without re-materialization.
class ShreddedDoc {
 public:
  struct NodeRow {
    int32_t pre = 0;
    int32_t size = 0;   ///< number of descendants
    int32_t level = 0;
    int32_t parent = -1;
    xml::NodeKind kind = xml::NodeKind::kElement;
    int32_t name_id = -1;  ///< into names() for elements/attributes/PIs
    xml::Node* dom = nullptr;
  };

  /// Shreds `doc` (which must outlive the ShreddedDoc; the anchor keeps
  /// it alive). Attributes are stored in a side table per element.
  static std::shared_ptr<ShreddedDoc> Shred(xml::NodePtr doc);

  size_t NumNodes() const { return rows_.size(); }
  const NodeRow& Row(int32_t pre) const { return rows_[pre]; }
  const xml::NodePtr& anchor() const { return anchor_; }

  /// Name dictionary.
  const std::vector<xml::QName>& names() const { return names_; }
  /// Id of a name, or -1 if the name never occurs.
  int32_t NameId(const xml::QName& name) const;

  /// Descendant scan: all pre values in (pre, pre+size] whose name matches
  /// `name_id` (-1 = any element). Elements only.
  std::vector<int32_t> DescendantElements(int32_t pre, int32_t name_id) const;

  /// Attribute access (side table): matching attribute DOM nodes.
  std::vector<xml::Node*> Attributes(int32_t pre, int32_t name_id) const;

  /// String value of a subtree: concatenated text descendants.
  std::string StringValue(int32_t pre) const;

  /// The pre number of a DOM node in this document, or -1.
  int32_t PreOf(const xml::Node* node) const;

 private:
  ShreddedDoc() = default;
  void ShredNode(xml::Node* node, int32_t level, int32_t parent);

  xml::NodePtr anchor_;
  std::vector<NodeRow> rows_;
  std::vector<xml::QName> names_;
  std::map<std::string, int32_t> name_ids_;
  std::map<const xml::Node*, int32_t> pre_of_;
  /// attrs_[pre] = attribute DOM nodes of that element.
  std::map<int32_t, std::vector<xml::Node*>> attrs_;
};

/// Caches shredded documents keyed by DOM root pointer, so repeated
/// queries against the same version of a document shred once. Entries are
/// invalidated when the tree's mutation stamp changes (XQUF updates mutate
/// trees in place).
/// Thread-safe: concurrent requests served by one engine (HTTP workers)
/// shred and look up concurrently (a shredded doc itself is immutable
/// after Shred()).
class ShredCache {
 public:
  std::shared_ptr<ShreddedDoc> GetOrShred(const xml::NodePtr& doc);
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return cache_.size();
  }
  void Clear() {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.clear();
  }

 private:
  struct Entry {
    uint64_t stamp = 0;
    std::shared_ptr<ShreddedDoc> doc;
  };
  mutable std::mutex mu_;
  std::map<const xml::Node*, Entry> cache_;
};

}  // namespace xrpc::shred

#endif  // XRPC_SHRED_SHREDDED_DOC_H_
