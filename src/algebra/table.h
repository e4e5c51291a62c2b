#ifndef XRPC_ALGEBRA_TABLE_H_
#define XRPC_ALGEBRA_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "base/statusor.h"
#include "xdm/item.h"

namespace xrpc::algebra {

/// A column value: either a number (iter/pos columns) or an XDM item (item
/// columns). MonetDB stores these as typed BATs; we use a tagged cell per
/// column for clarity at equivalent asymptotics.
struct Cell {
  enum class Kind { kInt, kItem };
  Kind kind = Kind::kInt;
  int64_t num = 0;
  xdm::Item item;

  static Cell Int(int64_t v) {
    Cell c;
    c.kind = Kind::kInt;
    c.num = v;
    return c;
  }
  static Cell OfItem(xdm::Item item) {
    Cell c;
    c.kind = Kind::kItem;
    c.item = std::move(item);
    return c;
  }

  /// Grouping/join key: numbers by value; atomic items by type+lexical
  /// form; nodes by identity.
  std::string Key() const;
};

/// Equality used by δ (duplicate elimination) and equi-joins.
bool CellEquals(const Cell& a, const Cell& b);

/// A relational table in the Pathfinder style: named columns over rows.
/// The canonical XQuery value representation is the iter|pos|item schema
/// of Section 3.1.
///
/// Storage is COLUMNAR (one contiguous Cell vector per column), matching
/// MonetDB's BAT layout: the hot loop-lifted kernels (step expansion,
/// sort, merge, join) scan and gather single columns without touching the
/// others, and appending a row costs no per-row heap allocation.
class Table {
 public:
  Table() = default;
  explicit Table(std::vector<std::string> column_names)
      : names_(std::move(column_names)), cols_(names_.size()) {}

  /// Creates the canonical empty iter|pos|item table.
  static Table IterPosItem();

  size_t NumRows() const { return num_rows_; }
  size_t NumColumns() const { return names_.size(); }
  const std::vector<std::string>& column_names() const { return names_; }

  /// Index of a column; -1 if absent.
  int ColumnIndex(const std::string& name) const;

  /// Reserves capacity in every column (append-heavy kernels).
  void Reserve(size_t rows) {
    for (auto& col : cols_) col.reserve(rows);
  }

  void AppendRow(std::vector<Cell> row);
  /// Materializes row `i` (a gather across columns).
  std::vector<Cell> Row(size_t i) const;

  const Cell& At(size_t row, int col) const { return cols_[col][row]; }

  /// Whole-column access for branch-light kernels.
  const std::vector<Cell>& Column(size_t col) const { return cols_[col]; }

  /// Convenience accessors for the canonical schema.
  int64_t Iter(size_t row) const { return cols_[0][row].num; }
  int64_t Pos(size_t row) const { return cols_[1][row].num; }
  const xdm::Item& ItemAt(size_t row) const { return cols_[2][row].item; }
  void AppendIPI(int64_t iter, int64_t pos, xdm::Item item) {
    cols_[0].push_back(Cell::Int(iter));
    cols_[1].push_back(Cell::Int(pos));
    cols_[2].push_back(Cell::OfItem(std::move(item)));
    ++num_rows_;
  }

  /// Appends every row of `other` (schemas must match positionally) —
  /// per-column bulk append.
  void AppendRowsFrom(const Table& other);
  /// Move flavor: steals `other`'s cells (clears it). When this table is
  /// still empty the columns are adopted wholesale (no per-cell work).
  void AppendRowsFrom(Table&& other);

  /// New table holding rows `idx` in the given order (per-column gather).
  Table GatherRows(const std::vector<size_t>& idx) const;

  /// New table holding (renamed) copies of the given columns — the
  /// columnar π kernel: whole-column copies, no per-row work.
  Table CopyColumns(const std::vector<int>& sources,
                    std::vector<std::string> new_names) const;

  /// Renders the table for debugging and the Figure 1 demonstration.
  std::string ToString() const;

 private:
  std::vector<std::string> names_;
  std::vector<std::vector<Cell>> cols_;  ///< cols_[c].size() == num_rows_
  size_t num_rows_ = 0;
};

// ------------------------- Table 1 operators -------------------------

/// σ: keep rows where int column `column` is non-zero (true).
Table Select(const Table& in, const std::string& column);

/// σ with an arbitrary predicate (generalization used by the executor).
Table SelectWhere(const Table& in,
                  const std::function<bool(const std::vector<Cell>&)>& pred);

/// π: project (and rename) columns: each pair is {new_name, old_name}.
StatusOr<Table> Project(
    const Table& in,
    const std::vector<std::pair<std::string, std::string>>& columns);

/// δ: duplicate elimination over all columns.
Table Distinct(const Table& in);

/// ⊎: disjoint union (schemas must match by position).
StatusOr<Table> DisjointUnion(const Table& a, const Table& b);

/// ⋈: equi-join on a.col_a = b.col_b; output columns are a's then b's
/// (b's join column dropped); b column names colliding with a's get a
/// trailing apostrophe.
StatusOr<Table> EquiJoin(const Table& a, const Table& b,
                         const std::string& col_a, const std::string& col_b);

/// ρ: row numbering (DENSE_RANK): appends column `new_column` numbering
/// rows 1..n in the order of `order_columns`, restarting per distinct
/// value of `partition_column` ("" = no partitioning). Stable for equal
/// keys.
StatusOr<Table> RowNumber(const Table& in, const std::string& new_column,
                          const std::vector<std::string>& order_columns,
                          const std::string& partition_column);

/// Literal table constructor.
Table LiteralTable(std::vector<std::string> names,
                   std::vector<std::vector<Cell>> rows);

/// Sorts by the given int columns ascending (executor helper; MonetDB
/// realizes this through ρ + positional access). Already-sorted input is
/// detected in one column scan and returned without the gather.
StatusOr<Table> SortBy(const Table& in,
                       const std::vector<std::string>& columns);

/// Order-preserving scatter-gather merge (DESIGN.md §13): recombines the
/// per-shard result tables of a decomposed Bulk RPC. `sources` are
/// iter|pos|item tables listed in shard-rank order; within each iteration
/// the sources' sequences are concatenated in rank order (then by their
/// own pos) and pos is renumbered densely 1..n, yielding one canonical
/// iter|pos|item table sorted by iter. With a single source this is
/// exactly union + sort-by-iter — the degenerate merge of an unsharded or
/// partition-key-pruned dispatch.
Table ScatterGatherMerge(const std::vector<Table>& sources);

}  // namespace xrpc::algebra

#endif  // XRPC_ALGEBRA_TABLE_H_
