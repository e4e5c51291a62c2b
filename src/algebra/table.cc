#include "algebra/table.h"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace xrpc::algebra {

bool Table::SortedByIterPos() const {
  for (size_t i = 1; i < NumRows(); ++i) {
    if (iters_[i] != iters_[i - 1] ? iters_[i] < iters_[i - 1]
                                   : positions_[i] < positions_[i - 1]) {
      return false;
    }
  }
  return true;
}

std::string Table::ToString() const {
  std::ostringstream os;
  os << "iter | pos | item\n";
  for (size_t r = 0; r < NumRows(); ++r) {
    os << iters_[r] << " | " << positions_[r] << " | ";
    const xdm::Item& item = items_[r];
    if (item.IsNode()) {
      os << "<" << item.node()->name().Lexical() << ">";
    } else {
      os << "\"" << item.atomic().ToString() << "\"";
    }
    os << "\n";
  }
  return os.str();
}

Table SortByIterPos(Table t) {
  if (t.SortedByIterPos()) return t;
  std::vector<size_t> idx(t.NumRows());
  std::iota(idx.begin(), idx.end(), size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&t](size_t x, size_t y) {
    if (t.Iter(x) != t.Iter(y)) return t.Iter(x) < t.Iter(y);
    return t.Pos(x) < t.Pos(y);
  });
  Table out;
  out.Reserve(idx.size());
  for (size_t i : idx) out.AppendIPI(t.Iter(i), t.Pos(i), t.TakeItemAt(i));
  return out;
}

Table DisjointUnion(Table a, Table b) {
  a.Reserve(a.NumRows() + b.NumRows());
  for (size_t i = 0; i < b.NumRows(); ++i) {
    a.AppendIPI(b.Iter(i), b.Pos(i), b.TakeItemAt(i));
  }
  return a;
}

Table ScatterGatherMerge(std::vector<Table> sources) {
  // Tag every row with its source rank, stable-sort by (iter, rank, pos),
  // then renumber pos densely per iteration. Stability keeps equal keys in
  // append order, so a source whose rows are already grouped per call
  // keeps each call's sequence order intact.
  struct TaggedRow {
    int64_t iter;
    size_t rank;
    int64_t pos;
    size_t row;
  };
  std::vector<TaggedRow> rows;
  for (size_t s = 0; s < sources.size(); ++s) {
    const Table& t = sources[s];
    for (size_t i = 0; i < t.NumRows(); ++i) {
      rows.push_back({t.Iter(i), s, t.Pos(i), i});
    }
  }
  std::stable_sort(rows.begin(), rows.end(),
                   [](const TaggedRow& a, const TaggedRow& b) {
                     if (a.iter != b.iter) return a.iter < b.iter;
                     if (a.rank != b.rank) return a.rank < b.rank;
                     return a.pos < b.pos;
                   });
  Table out;
  out.Reserve(rows.size());
  int64_t next_pos = 1;
  for (size_t k = 0; k < rows.size(); ++k) {
    const TaggedRow& r = rows[k];
    if (k == 0 || r.iter != rows[k - 1].iter) next_pos = 1;
    out.AppendIPI(r.iter, next_pos++, sources[r.rank].TakeItemAt(r.row));
  }
  return out;
}

}  // namespace xrpc::algebra
