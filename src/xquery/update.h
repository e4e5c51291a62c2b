#ifndef XRPC_XQUERY_UPDATE_H_
#define XRPC_XQUERY_UPDATE_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "base/statusor.h"
#include "xdm/item.h"
#include "xml/qname.h"

namespace xrpc::xquery {

struct Expr;

/// One XQUF update primitive. Targets carry their tree anchor (an Item), so
/// the tree a pending update refers to stays alive until application.
struct UpdatePrimitive {
  enum class Kind {
    kInsertInto,
    kInsertFirst,
    kInsertLast,
    kInsertBefore,
    kInsertAfter,
    kDelete,
    kReplaceNode,
    kReplaceValue,
    kRename,
    kPut,  ///< fn:put($node, $uri)
  };

  Kind kind;
  xdm::Item target;                 ///< node primitives: the target node
  std::vector<xdm::Item> content;   ///< already-copied source nodes
  xml::QName new_name;              ///< kRename
  std::string new_value;            ///< kReplaceValue
  std::string put_uri;              ///< kPut
};

/// The pending update list produced by evaluating an updating query (XQUF):
/// side effects are deferred until applyUpdates() runs after evaluation.
///
/// Primitives are tagged with the index of the XRPC call that produced them
/// (`call_index`), implementing the deterministic-update-order extension of
/// the companion report [Zhang&Boncz, INS-E0607]: merging PULs from Bulk RPC
/// preserves a reproducible order even though XQUF itself leaves the order
/// of conflicting updates undefined.
class PendingUpdateList {
 public:
  void Add(UpdatePrimitive primitive) {
    entries_.push_back({next_call_index_, std::move(primitive)});
  }

  /// Merges another PUL (e.g. one produced by a later XRPC call handled for
  /// the same query), keeping its relative order after existing entries.
  void Merge(PendingUpdateList other);

  /// Marks the start of a new update source (XRPC call); subsequent Add()s
  /// are tagged with the next call index.
  void BeginCall() { ++next_call_index_; }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  struct Entry {
    int call_index;
    UpdatePrimitive primitive;
  };
  const std::vector<Entry>& entries() const { return entries_; }
  std::vector<Entry>& mutable_entries() { return entries_; }

  /// Maps the root node of a target's tree to the name of the document it
  /// was pinned from (so a serialized target can be re-resolved later).
  using DocNamer = std::function<StatusOr<std::string>(const xml::Node* root)>;

  /// Returns the pinned tree for a document name during deserialization.
  using DocResolver =
      std::function<StatusOr<xml::NodePtr>(const std::string& name)>;

  /// Serializes the list to a self-contained XML fragment suitable for
  /// writing to stable storage (the Section-6 prepare log). Node targets
  /// are encoded as (document name, child-index path from the tree root);
  /// content trees are serialized inline. A target whose tree `doc_of_root`
  /// cannot name is an error — it could never be re-resolved after a crash.
  StatusOr<std::string> Serialize(const DocNamer& doc_of_root) const;

  /// Rebuilds a list from Serialize() output, re-resolving target paths
  /// against the trees returned by `doc_of_name`. Content trees get fresh
  /// node identities (they are parsed back), which is sound: XQUF content
  /// is already-copied and owned by the primitive.
  static StatusOr<PendingUpdateList> Deserialize(
      std::string_view text, const DocResolver& doc_of_name);

 private:
  std::vector<Entry> entries_;
  int next_call_index_ = 0;
};

/// Appends the primitives of updating expression `e` (insert in any of
/// its five positions, delete, replace node, replace value of, rename) to
/// `pul`, from its evaluated operands: `e.children` in order. Checks the
/// targets (one node, or for delete only nodes) and copies the inserted
/// or replacing content, atomic values as text nodes.
Status AddUpdatePrimitives(const Expr& e,
                           const std::vector<xdm::Sequence>& operands,
                           PendingUpdateList* pul);

class DocumentStore;

/// Applies all updates in the list against the live trees, in the XQUF
/// phase order (rename/replace-value first, then replaces, inserts,
/// deletes, puts). `puts` receive documents through `put_sink` when
/// non-null; kPut primitives error otherwise.
class PutSink {
 public:
  virtual ~PutSink() = default;
  /// Stores `doc` under `uri` (fn:put semantics).
  virtual Status Put(const std::string& uri, xml::NodePtr doc) = 0;
};

Status ApplyUpdates(PendingUpdateList* pul, PutSink* put_sink);

}  // namespace xrpc::xquery

#endif  // XRPC_XQUERY_UPDATE_H_
