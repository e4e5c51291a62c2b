#ifndef XRPC_ALGEBRA_TABLE_H_
#define XRPC_ALGEBRA_TABLE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "xdm/item.h"

namespace xrpc::algebra {

/// The iter|pos|item table of Section 3.1, the one value representation of
/// the loop-lifted engine: row r places ItemAt(r) at position Pos(r) of the
/// sequence that iteration Iter(r) evaluates to. The three columns are
/// typed vectors, as MonetDB's BATs are, so a row costs two int64s and one
/// xdm::Item. Kernels move items between tables (TakeItemAt) instead of
/// copying them, which would bump each node's shared anchor.
///
/// Of Table 1's operators only ⊎ is a function here; loop_lift.cc realizes
/// the others where it needs them (DESIGN.md, the Table 1 row).
class Table {
 public:
  size_t NumRows() const { return items_.size(); }

  void Reserve(size_t rows) {
    iters_.reserve(rows);
    positions_.reserve(rows);
    items_.reserve(rows);
  }

  int64_t Iter(size_t row) const { return iters_[row]; }
  int64_t Pos(size_t row) const { return positions_[row]; }
  const xdm::Item& ItemAt(size_t row) const { return items_[row]; }
  /// Moves the item of row `row` out, leaving an empty item behind.
  xdm::Item TakeItemAt(size_t row) { return std::move(items_[row]); }

  void AppendIPI(int64_t iter, int64_t pos, xdm::Item item) {
    iters_.push_back(iter);
    positions_.push_back(pos);
    items_.push_back(std::move(item));
  }

  /// True if the rows ascend by (iter, pos).
  bool SortedByIterPos() const;

  /// Renders the table for debugging and the Figure 1 demonstration.
  std::string ToString() const;

 private:
  std::vector<int64_t> iters_;
  std::vector<int64_t> positions_;
  std::vector<xdm::Item> items_;
};

/// Stable sort by (iter, pos). Loop-lifted intermediates are usually
/// sorted already; one scan detects that and returns the table untouched.
Table SortByIterPos(Table t);

/// ⊎: the rows of `a`, then the rows of `b`.
Table DisjointUnion(Table a, Table b);

/// Order-preserving scatter-gather merge (DESIGN.md §13): recombines the
/// per-shard result tables of a decomposed Bulk RPC. `sources` are listed
/// in shard-rank order; within each iteration the sources' sequences are
/// concatenated in rank order (then by their own pos) and pos is
/// renumbered densely 1..n, yielding one table sorted by iter. With a
/// single source this is exactly a sort by iter — the degenerate merge of
/// an unsharded or partition-key-pruned dispatch.
Table ScatterGatherMerge(std::vector<Table> sources);

}  // namespace xrpc::algebra

#endif  // XRPC_ALGEBRA_TABLE_H_
