#ifndef XRPC_XQUERY_PATH_INDEX_H_
#define XRPC_XQUERY_PATH_INDEX_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "xml/node.h"

namespace xrpc::xquery {

struct Expr;

/// Path index (DESIGN.md §6): what one path expression yields over one
/// version of one document, kept so a repeated path skips its scan.
///
/// The interpreter looks a path up here when its source is a document
/// node and it starts with predicate-free steps or with a step whose
/// predicates are all plain (non-positional). The entry holds that
/// prefix's output or, behind a plain step, the step's unfiltered
/// candidates and an equality join index over them, so a point read such
/// as `descendant::closed_auction[./buyer/@person=$p]` becomes one hash
/// probe: the hash join the paper observes in Saxon, kept per document
/// version instead of per query.
///
/// An entry keeps node pointers, a weak reference to the document and the
/// document's mutation stamp: never an Item, so it pins no tree. It is
/// stale, and rebuilt, once the document mutates or dies. Entries are
/// immutable once published and shared between concurrent evaluations
/// under a short mutex; a build that fails publishes nothing.
///
/// Keys hold expression pointers, so an index must not outlive the
/// expressions it was filled from. The interpreter engine's index spans
/// requests over its registry's modules, which stay alive (superseded
/// ones too) as long as the registry; every other evaluation owns an
/// index for its own duration.
class PathIndex {
 public:
  /// Key-path string value -> position in `Entry::nodes`.
  using JoinIndex = std::unordered_multimap<std::string, size_t>;

  struct Entry {
    std::weak_ptr<const xml::Node> doc;
    uint64_t stamp = 0;  ///< the document's mutation stamp when built
    /// The predicate-free prefix's output or, when the step after it is
    /// plain, that step's unfiltered candidates; in document order.
    std::vector<xml::Node*> nodes;
    /// Over `nodes`, for the plain step's first predicate when it is an
    /// indexable equality and the candidates are many; else empty.
    JoinIndex join;
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

  /// The entry of `path` over `doc`'s current version, or null.
  std::shared_ptr<const Entry> Find(const Expr* path,
                                    const xml::Node& doc) const;

  /// Publishes an entry built over `doc`, replacing a stale one, and
  /// sweeps entries whose document died (amortized: whenever the index
  /// has doubled since the last sweep). Returns the number swept.
  int64_t Insert(const Expr* path, const xml::Node& doc,
                 std::shared_ptr<const Entry> entry);

 private:
  using Key = std::pair<const Expr*, const xml::Node*>;
  mutable std::mutex mu_;
  std::map<Key, std::shared_ptr<const Entry>> entries_;
  size_t sweep_at_ = kMinSweep;
  static constexpr size_t kMinSweep = 64;
};

}  // namespace xrpc::xquery

#endif  // XRPC_XQUERY_PATH_INDEX_H_
