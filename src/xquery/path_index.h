#ifndef XRPC_XQUERY_PATH_INDEX_H_
#define XRPC_XQUERY_PATH_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "xdm/item.h"
#include "xml/node.h"

namespace xrpc::xquery {

struct Expr;
struct PathStep;

/// The leading steps of a path that a path index entry answers: its
/// predicate-free prefix and, when the step after it has predicates that
/// are all plain (non-positional), that step too. Filtering a plain step's
/// candidates as one set equals filtering them per context node.
struct IndexedHead {
  size_t prefix = 0;                ///< leading predicate-free steps
  const PathStep* plain = nullptr;  ///< the plain step after them, if any
  /// The first step the entry does not answer.
  size_t end() const { return prefix + (plain != nullptr ? 1 : 0); }
};

/// The head of `path` an entry answers; end() == 0 when none.
IndexedHead HeadOf(const Expr& path);

/// True for the one kind of path source the index keys: a node that is a
/// whole document (a parentless document node).
bool IsIndexSource(const xdm::Item& item);

/// Items of indexed nodes, kept alive by their document's anchor.
xdm::Sequence NodeItems(std::span<xml::Node* const> nodes,
                        const xml::NodePtr& anchor);

/// The probe of `step`'s join index: the context-independent side ($var
/// or literal) of its first predicate when that predicate is an equality
/// with a downward path from the context node; else null.
const Expr* JoinProbe(const PathStep& step);

/// Path index (DESIGN.md §6): what the head of one path expression yields
/// over one version of one document, kept so a repeated path skips its
/// scan. Both engines look a path up here when its source is a document
/// (IsIndexSource) and its head is non-empty. The entry holds the head's
/// output or, behind a plain step, the step's unfiltered candidates and
/// an equality join index over them, so a point read such as
/// `descendant::closed_auction[./buyer/@person=$p]` becomes one hash
/// probe: the hash join the paper observes in Saxon, kept per document
/// version instead of per query. Entries are built by axis walks alone
/// (xquery::CollectAxis), so no engine takes part in building one.
///
/// An entry keeps node pointers, a weak reference to the document and the
/// document's mutation stamp: never an Item, so it pins no tree. It is
/// stale, and rebuilt, once the document mutates or dies. Entries are
/// immutable once published and shared between concurrent evaluations
/// under a short mutex.
///
/// Keys hold expression pointers, so an index must not outlive the
/// expressions it was filled from. A peer's service owns one index that
/// spans requests over its registry's modules, which stay alive
/// (superseded ones too) as long as the registry; every other evaluation
/// owns an index for its own duration.
class PathIndex {
 public:
  /// Key-path string value -> position in `Entry::nodes`.
  using JoinIndex = std::unordered_multimap<std::string, size_t>;

  struct Entry {
    std::weak_ptr<const xml::Node> doc;
    uint64_t stamp = 0;  ///< the document's mutation stamp when built
    /// The head's output or, behind a plain step, that step's unfiltered
    /// candidates; in document order.
    std::vector<xml::Node*> nodes;
    /// Over `nodes`, for the plain step's first predicate when it is an
    /// indexable equality and the candidates are many; else empty.
    JoinIndex join;

    /// The candidates whose key equals one of `probe`'s values, in
    /// document order: the first predicate of the plain step applied by
    /// hash probe. Null when the join index is empty or a value is not
    /// string-comparable (string/untypedAtomic/anyURI), where string
    /// equality would differ from XQuery general comparison.
    std::optional<std::vector<xml::Node*>> Probe(
        const xdm::Sequence& probe) const;
  };

  /// Index events, tallied by the evaluations that cause them.
  struct Counters {
    int64_t builds = 0;
    int64_t hits = 0;
    int64_t swept = 0;  ///< entries dropped because their document died
  };

  PathIndex() = default;
  PathIndex(const PathIndex&) = delete;
  PathIndex& operator=(const PathIndex&) = delete;

  /// The entry for `head` of `path` over `doc`'s current version (doc must
  /// be an IsIndexSource item): found, or built and published, replacing a
  /// stale one. Publishing sweeps entries whose document died (amortized:
  /// whenever the index has doubled since the last sweep). Tallies the
  /// hit or the build and the sweep in `counters`.
  std::shared_ptr<const Entry> Lookup(const Expr& path,
                                      const IndexedHead& head,
                                      const xdm::Item& doc,
                                      Counters* counters);

 private:
  using Key = std::pair<const Expr*, const xml::Node*>;
  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const Entry>> entries_;
  size_t sweep_at_ = kMinSweep;
  static constexpr size_t kMinSweep = 64;
};

}  // namespace xrpc::xquery

#endif  // XRPC_XQUERY_PATH_INDEX_H_
