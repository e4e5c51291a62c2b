#include "algebra/table.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace xrpc::algebra {

std::string Cell::Key() const {
  if (kind == Kind::kInt) return "i" + std::to_string(num);
  if (item.IsNode()) {
    std::ostringstream os;
    os << "n" << static_cast<const void*>(item.node());
    return os.str();
  }
  return std::string("a") + xdm::AtomicTypeName(item.atomic().type()) + "|" +
         item.atomic().ToString();
}

bool CellEquals(const Cell& a, const Cell& b) {
  if (a.kind != b.kind) return false;
  if (a.kind == Cell::Kind::kInt) return a.num == b.num;
  if (a.item.IsNode() != b.item.IsNode()) return false;
  if (a.item.IsNode()) return a.item.node() == b.item.node();
  return a.item.atomic() == b.item.atomic() &&
         a.item.atomic().type() == b.item.atomic().type();
}

Table Table::IterPosItem() { return Table({"iter", "pos", "item"}); }

int Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

void Table::AppendRow(std::vector<Cell> row) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].push_back(std::move(row[c]));
  }
  ++num_rows_;
}

std::vector<Cell> Table::Row(size_t i) const {
  std::vector<Cell> row;
  row.reserve(cols_.size());
  for (const auto& col : cols_) row.push_back(col[i]);
  return row;
}

void Table::AppendRowsFrom(const Table& other) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].insert(cols_[c].end(), other.cols_[c].begin(),
                    other.cols_[c].end());
  }
  num_rows_ += other.num_rows_;
}

Table Table::CopyColumns(const std::vector<int>& sources,
                         std::vector<std::string> new_names) const {
  Table out(std::move(new_names));
  for (size_t k = 0; k < sources.size(); ++k) {
    out.cols_[k] = cols_[sources[k]];
  }
  out.num_rows_ = num_rows_;
  return out;
}

Table Table::GatherRows(const std::vector<size_t>& idx) const {
  Table out(names_);
  for (size_t c = 0; c < cols_.size(); ++c) {
    const std::vector<Cell>& src = cols_[c];
    std::vector<Cell>& dst = out.cols_[c];
    dst.reserve(idx.size());
    for (size_t i : idx) dst.push_back(src[i]);
  }
  out.num_rows_ = idx.size();
  return out;
}

std::string Table::ToString() const {
  std::ostringstream os;
  for (size_t i = 0; i < names_.size(); ++i) {
    os << (i ? " | " : "") << names_[i];
  }
  os << "\n";
  for (size_t r = 0; r < num_rows_; ++r) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      os << (c ? " | " : "");
      const Cell& cell = cols_[c][r];
      if (cell.kind == Cell::Kind::kInt) {
        os << cell.num;
      } else if (cell.item.IsNode()) {
        os << "<" << cell.item.node()->name().Lexical() << ">";
      } else {
        os << "\"" << cell.item.atomic().ToString() << "\"";
      }
    }
    os << "\n";
  }
  return os.str();
}

Table Select(const Table& in, const std::string& column) {
  int c = in.ColumnIndex(column);
  Table out(in.column_names());
  if (c < 0) return out;
  // One pass over the predicate column to build the selection vector, then
  // a per-column gather — the other columns are never inspected.
  const std::vector<Cell>& col = in.Column(static_cast<size_t>(c));
  std::vector<size_t> idx;
  for (size_t i = 0; i < col.size(); ++i) {
    if (col[i].kind == Cell::Kind::kInt && col[i].num != 0) idx.push_back(i);
  }
  return in.GatherRows(idx);
}

Table SelectWhere(const Table& in,
                  const std::function<bool(const std::vector<Cell>&)>& pred) {
  std::vector<size_t> idx;
  for (size_t i = 0; i < in.NumRows(); ++i) {
    if (pred(in.Row(i))) idx.push_back(i);
  }
  return in.GatherRows(idx);
}

StatusOr<Table> Project(
    const Table& in,
    const std::vector<std::pair<std::string, std::string>>& columns) {
  std::vector<std::string> names;
  std::vector<int> sources;
  for (const auto& [new_name, old_name] : columns) {
    int c = in.ColumnIndex(old_name);
    if (c < 0) {
      return Status::Internal("project: no column named " + old_name);
    }
    names.push_back(new_name);
    sources.push_back(c);
  }
  // Columnar projection is a whole-column copy per kept column.
  return in.CopyColumns(sources, std::move(names));
}

Table Distinct(const Table& in) {
  std::set<std::string> seen;
  std::vector<size_t> idx;
  for (size_t i = 0; i < in.NumRows(); ++i) {
    std::string key;
    for (size_t c = 0; c < in.NumColumns(); ++c) {
      key += in.At(i, static_cast<int>(c)).Key();
      key += '\x1f';
    }
    if (seen.insert(std::move(key)).second) idx.push_back(i);
  }
  return in.GatherRows(idx);
}

StatusOr<Table> DisjointUnion(const Table& a, const Table& b) {
  if (a.NumColumns() != b.NumColumns()) {
    return Status::Internal("disjoint union: schema mismatch");
  }
  Table out(a.column_names());
  out.AppendRowsFrom(a);
  out.AppendRowsFrom(b);
  return out;
}

StatusOr<Table> EquiJoin(const Table& a, const Table& b,
                         const std::string& col_a, const std::string& col_b) {
  int ca = a.ColumnIndex(col_a);
  int cb = b.ColumnIndex(col_b);
  if (ca < 0 || cb < 0) {
    return Status::Internal("join: missing column " + col_a + "/" + col_b);
  }
  std::vector<std::string> names = a.column_names();
  std::vector<int> b_cols;
  for (size_t i = 0; i < b.NumColumns(); ++i) {
    if (static_cast<int>(i) == cb) continue;
    std::string name = b.column_names()[i];
    while (std::find(names.begin(), names.end(), name) != names.end()) {
      name += "'";
    }
    names.push_back(name);
    b_cols.push_back(static_cast<int>(i));
  }
  // Hash join: build on b's key column, probe a's, collect the matching
  // (a_row, b_row) index pairs, then gather each side column-at-a-time.
  std::multimap<std::string, size_t> build;
  for (size_t i = 0; i < b.NumRows(); ++i) {
    build.emplace(b.At(i, cb).Key(), i);
  }
  std::vector<size_t> a_idx;
  std::vector<size_t> b_idx;
  for (size_t i = 0; i < a.NumRows(); ++i) {
    auto [lo, hi] = build.equal_range(a.At(i, ca).Key());
    for (auto it = lo; it != hi; ++it) {
      a_idx.push_back(i);
      b_idx.push_back(it->second);
    }
  }
  Table out(std::move(names));
  out.Reserve(a_idx.size());
  std::vector<Cell> row(a.NumColumns() + b_cols.size());
  for (size_t k = 0; k < a_idx.size(); ++k) {
    size_t w = 0;
    for (size_t c = 0; c < a.NumColumns(); ++c) {
      row[w++] = a.At(a_idx[k], static_cast<int>(c));
    }
    for (int c : b_cols) row[w++] = b.At(b_idx[k], c);
    out.AppendRow(row);
  }
  return out;
}

StatusOr<Table> RowNumber(const Table& in, const std::string& new_column,
                          const std::vector<std::string>& order_columns,
                          const std::string& partition_column) {
  std::vector<int> order;
  for (const std::string& c : order_columns) {
    int idx = in.ColumnIndex(c);
    if (idx < 0) return Status::Internal("rownum: no column " + c);
    order.push_back(idx);
  }
  int part = -1;
  if (!partition_column.empty()) {
    part = in.ColumnIndex(partition_column);
    if (part < 0) {
      return Status::Internal("rownum: no column " + partition_column);
    }
  }
  // Stable sort of row indices by (partition, order columns).
  std::vector<size_t> idx(in.NumRows());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  auto cell_less = [](const Cell& x, const Cell& y) {
    if (x.kind == Cell::Kind::kInt && y.kind == Cell::Kind::kInt) {
      return x.num < y.num;
    }
    return x.Key() < y.Key();
  };
  std::stable_sort(idx.begin(), idx.end(), [&](size_t x, size_t y) {
    if (part >= 0) {
      const Cell& px = in.At(x, part);
      const Cell& py = in.At(y, part);
      if (!CellEquals(px, py)) return cell_less(px, py);
    }
    for (int c : order) {
      const Cell& cx = in.At(x, c);
      const Cell& cy = in.At(y, c);
      if (!CellEquals(cx, cy)) return cell_less(cx, cy);
    }
    return false;
  });
  std::vector<std::string> names = in.column_names();
  names.push_back(new_column);
  Table out(std::move(names));
  // Assign ranks in sorted order, then restore original row order.
  std::vector<int64_t> ranks(in.NumRows(), 0);
  int64_t rank = 0;
  for (size_t k = 0; k < idx.size(); ++k) {
    bool new_partition =
        k == 0 || (part >= 0 && !CellEquals(in.At(idx[k], part),
                                            in.At(idx[k - 1], part)));
    rank = new_partition ? 1 : rank + 1;
    ranks[idx[k]] = rank;
  }
  out.Reserve(in.NumRows());
  for (size_t i = 0; i < in.NumRows(); ++i) {
    std::vector<Cell> row = in.Row(i);
    row.push_back(Cell::Int(ranks[i]));
    out.AppendRow(std::move(row));
  }
  return out;
}

Table LiteralTable(std::vector<std::string> names,
                   std::vector<std::vector<Cell>> rows) {
  Table out(std::move(names));
  for (auto& row : rows) out.AppendRow(std::move(row));
  return out;
}

StatusOr<Table> SortBy(const Table& in,
                       const std::vector<std::string>& columns) {
  std::vector<int> cols;
  for (const std::string& c : columns) {
    int idx = in.ColumnIndex(c);
    if (idx < 0) return Status::Internal("sort: no column " + c);
    cols.push_back(idx);
  }
  // Loop-lifted intermediates are usually already (iter, pos)-sorted; one
  // branch-light scan over the key columns detects that and skips the
  // argsort + gather entirely.
  auto row_less = [&](size_t x, size_t y) {
    for (int c : cols) {
      int64_t vx = in.At(x, c).num;
      int64_t vy = in.At(y, c).num;
      if (vx != vy) return vx < vy;
    }
    return false;
  };
  bool sorted = true;
  for (size_t i = 1; i < in.NumRows(); ++i) {
    if (row_less(i, i - 1)) {
      sorted = false;
      break;
    }
  }
  if (sorted) return in;
  std::vector<size_t> idx(in.NumRows());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::stable_sort(idx.begin(), idx.end(), row_less);
  return in.GatherRows(idx);
}

Table ScatterGatherMerge(const std::vector<Table>& sources) {
  // Tag every row with its source rank, stable-sort by (iter, rank, pos),
  // then renumber pos densely per iteration. Stability keeps equal keys in
  // append order, so a source whose rows are already grouped per call
  // keeps each call's sequence order intact.
  struct TaggedRow {
    int64_t iter;
    int64_t rank;
    int64_t pos;
    size_t source;
    size_t row;
  };
  std::vector<TaggedRow> rows;
  for (size_t s = 0; s < sources.size(); ++s) {
    const Table& t = sources[s];
    for (size_t i = 0; i < t.NumRows(); ++i) {
      rows.push_back({t.Iter(i), static_cast<int64_t>(s), t.Pos(i), s, i});
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const TaggedRow& a, const TaggedRow& b) {
                     if (a.iter != b.iter) return a.iter < b.iter;
                     if (a.rank != b.rank) return a.rank < b.rank;
                     return a.pos < b.pos;
                   });
  Table out = Table::IterPosItem();
  out.Reserve(rows.size());
  int64_t current_iter = 0;
  int64_t next_pos = 1;
  bool have_iter = false;
  for (const TaggedRow& r : rows) {
    if (!have_iter || r.iter != current_iter) {
      current_iter = r.iter;
      next_pos = 1;
      have_iter = true;
    }
    out.AppendIPI(r.iter, next_pos++, sources[r.source].ItemAt(r.row));
  }
  return out;
}

}  // namespace xrpc::algebra
