// Tests for the Table 1 relational algebra operators.

#include <gtest/gtest.h>

#include "algebra/table.h"

namespace xrpc::algebra {
namespace {

using xdm::AtomicValue;
using xdm::Item;

Table ActorTable() {
  // The $actor table of Section 3.2.
  Table t = Table::IterPosItem();
  t.AppendIPI(1, 1, Item(AtomicValue::String("Julie Andrews")));
  t.AppendIPI(2, 1, Item(AtomicValue::String("Sean Connery")));
  return t;
}

TEST(TableTest, CanonicalSchemaAccessors) {
  Table t = ActorTable();
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.NumColumns(), 3u);
  EXPECT_EQ(t.Iter(0), 1);
  EXPECT_EQ(t.Pos(1), 1);
  EXPECT_EQ(t.ItemAt(1).atomic().ToString(), "Sean Connery");
  EXPECT_EQ(t.ColumnIndex("item"), 2);
  EXPECT_EQ(t.ColumnIndex("nope"), -1);
}

TEST(SelectTest, KeepsTrueRows) {
  Table t({"iter", "flag"});
  t.AppendRow({Cell::Int(1), Cell::Int(1)});
  t.AppendRow({Cell::Int(2), Cell::Int(0)});
  t.AppendRow({Cell::Int(3), Cell::Int(1)});
  Table out = Select(t, "flag");
  ASSERT_EQ(out.NumRows(), 2u);
  EXPECT_EQ(out.Iter(0), 1);
  EXPECT_EQ(out.Iter(1), 3);
}

TEST(ProjectTest, RenamesAndReorders) {
  Table t({"a", "b"});
  t.AppendRow({Cell::Int(1), Cell::Int(2)});
  auto out = Project(t, {{"x", "b"}, {"y", "a"}});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->column_names()[0], "x");
  EXPECT_EQ(out->At(0, 0).num, 2);
  EXPECT_EQ(out->At(0, 1).num, 1);
  EXPECT_FALSE(Project(t, {{"x", "zzz"}}).ok());
}

TEST(DistinctTest, RemovesDuplicateRows) {
  Table t({"a", "b"});
  t.AppendRow({Cell::Int(1), Cell::OfItem(Item(AtomicValue::String("x")))});
  t.AppendRow({Cell::Int(1), Cell::OfItem(Item(AtomicValue::String("x")))});
  t.AppendRow({Cell::Int(1), Cell::OfItem(Item(AtomicValue::String("y")))});
  EXPECT_EQ(Distinct(t).NumRows(), 2u);
}

TEST(DistinctTest, AtomicEqualityIsTyped) {
  Table t({"v"});
  t.AppendRow({Cell::OfItem(Item(AtomicValue::Integer(1)))});
  t.AppendRow({Cell::OfItem(Item(AtomicValue::String("1")))});
  EXPECT_EQ(Distinct(t).NumRows(), 2u);  // xs:integer 1 != xs:string "1"
}

TEST(DisjointUnionTest, ConcatenatesAndChecksSchema) {
  Table a({"x"}), b({"x"}), c({"x", "y"});
  a.AppendRow({Cell::Int(1)});
  b.AppendRow({Cell::Int(2)});
  auto out = DisjointUnion(a, b);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->NumRows(), 2u);
  EXPECT_FALSE(DisjointUnion(a, c).ok());
}

TEST(EquiJoinTest, JoinsOnIntKeys) {
  // The map-back join of Figure 1: map ⋈ msg on iterp.
  Table map({"iter", "iterp"});
  map.AppendRow({Cell::Int(1), Cell::Int(1)});
  map.AppendRow({Cell::Int(3), Cell::Int(2)});
  Table msg({"iterp", "pos", "item"});
  msg.AppendRow({Cell::Int(2), Cell::Int(1),
                 Cell::OfItem(Item(AtomicValue::String("The Rock")))});
  msg.AppendRow({Cell::Int(2), Cell::Int(2),
                 Cell::OfItem(Item(AtomicValue::String("Goldfinger")))});
  auto out = EquiJoin(map, msg, "iterp", "iterp");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 2u);
  EXPECT_EQ(out->At(0, 0).num, 3);  // original iter
  EXPECT_EQ(out->At(0, 2).num, 1);  // pos
}

TEST(EquiJoinTest, JoinsOnAtomicItems) {
  Table a({"k"});
  a.AppendRow({Cell::OfItem(Item(AtomicValue::String("y.example.org")))});
  Table b({"k", "v"});
  b.AppendRow({Cell::OfItem(Item(AtomicValue::String("y.example.org"))),
               Cell::Int(42)});
  b.AppendRow({Cell::OfItem(Item(AtomicValue::String("z.example.org"))),
               Cell::Int(7)});
  auto out = EquiJoin(a, b, "k", "k");
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->NumRows(), 1u);
  EXPECT_EQ(out->At(0, 1).num, 42);
}

TEST(EquiJoinTest, RenamesCollidingColumns) {
  Table a({"iter", "v"}), b({"iter", "v"});
  a.AppendRow({Cell::Int(1), Cell::Int(10)});
  b.AppendRow({Cell::Int(1), Cell::Int(20)});
  auto out = EquiJoin(a, b, "iter", "iter");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->column_names()[2], "v'");
}

TEST(RowNumberTest, DenseRankPerPartition) {
  // The ρ of Figure 2: number iterations per destination peer.
  Table t({"iter", "dst"});
  t.AppendRow({Cell::Int(1), Cell::OfItem(Item(AtomicValue::String("y")))});
  t.AppendRow({Cell::Int(2), Cell::OfItem(Item(AtomicValue::String("z")))});
  t.AppendRow({Cell::Int(3), Cell::OfItem(Item(AtomicValue::String("y")))});
  t.AppendRow({Cell::Int(4), Cell::OfItem(Item(AtomicValue::String("z")))});
  auto out = RowNumber(t, "iterp", {"iter"}, "dst");
  ASSERT_TRUE(out.ok()) << out.status();
  int c = out->ColumnIndex("iterp");
  EXPECT_EQ(out->At(0, c).num, 1);  // y #1
  EXPECT_EQ(out->At(1, c).num, 1);  // z #1
  EXPECT_EQ(out->At(2, c).num, 2);  // y #2
  EXPECT_EQ(out->At(3, c).num, 2);  // z #2
}

TEST(RowNumberTest, NoPartitionNumbersGlobally) {
  Table t({"iter"});
  t.AppendRow({Cell::Int(30)});
  t.AppendRow({Cell::Int(10)});
  t.AppendRow({Cell::Int(20)});
  auto out = RowNumber(t, "rank", {"iter"}, "");
  ASSERT_TRUE(out.ok());
  int c = out->ColumnIndex("rank");
  EXPECT_EQ(out->At(0, c).num, 3);
  EXPECT_EQ(out->At(1, c).num, 1);
  EXPECT_EQ(out->At(2, c).num, 2);
}

TEST(SortByTest, SortsByIntColumns) {
  Table t = Table::IterPosItem();
  t.AppendIPI(2, 1, Item(AtomicValue::String("b")));
  t.AppendIPI(1, 2, Item(AtomicValue::String("a2")));
  t.AppendIPI(1, 1, Item(AtomicValue::String("a1")));
  auto out = SortBy(t, {"iter", "pos"});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->ItemAt(0).atomic().ToString(), "a1");
  EXPECT_EQ(out->ItemAt(1).atomic().ToString(), "a2");
  EXPECT_EQ(out->ItemAt(2).atomic().ToString(), "b");
}

TEST(TableTest, ToStringRendersRows) {
  Table t = ActorTable();
  std::string s = t.ToString();
  EXPECT_NE(s.find("iter | pos | item"), std::string::npos);
  EXPECT_NE(s.find("Sean Connery"), std::string::npos);
}

// Renders a merged iter|pos|item table as "iter.pos:value" tokens for
// compact full-table assertions.
std::string Render(const Table& t) {
  std::string out;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    if (!out.empty()) out += " ";
    out += std::to_string(t.Iter(r)) + "." + std::to_string(t.Pos(r)) + ":" +
           t.ItemAt(r).atomic().ToString();
  }
  return out;
}

TEST(ScatterGatherMergeTest, ConcatenatesPerIterInRankOrder) {
  // Shard 0 answered iterations 1 and 2; shard 1 answered 1 and 3. Within
  // iteration 1 shard 0's items come first (rank order), each shard's own
  // items stay in pos order, and pos renumbers densely.
  Table s0 = Table::IterPosItem();
  s0.AppendIPI(2, 1, Item(AtomicValue::String("b")));
  s0.AppendIPI(1, 1, Item(AtomicValue::String("a0.1")));
  s0.AppendIPI(1, 2, Item(AtomicValue::String("a0.2")));
  Table s1 = Table::IterPosItem();
  s1.AppendIPI(3, 1, Item(AtomicValue::String("c")));
  s1.AppendIPI(1, 1, Item(AtomicValue::String("a1.1")));
  Table merged = ScatterGatherMerge({s0, s1});
  EXPECT_EQ(Render(merged), "1.1:a0.1 1.2:a0.2 1.3:a1.1 2.1:b 3.1:c");
}

TEST(ScatterGatherMergeTest, SingleSourceIsUnionPlusSortByIter) {
  // The degenerate 1-source merge (unsharded or fully pruned dispatch)
  // must reduce to sort-by-(iter,pos): same rows, canonical order, pos
  // untouched when already dense.
  Table s = Table::IterPosItem();
  s.AppendIPI(2, 1, Item(AtomicValue::String("b")));
  s.AppendIPI(1, 2, Item(AtomicValue::String("a2")));
  s.AppendIPI(1, 1, Item(AtomicValue::String("a1")));
  Table merged = ScatterGatherMerge({s});
  EXPECT_EQ(Render(merged), "1.1:a1 1.2:a2 2.1:b");
}

TEST(ScatterGatherMergeTest, EmptySourcesYieldEmptyTable) {
  Table merged = ScatterGatherMerge({});
  EXPECT_EQ(merged.NumRows(), 0u);
  merged = ScatterGatherMerge({Table::IterPosItem(), Table::IterPosItem()});
  EXPECT_EQ(merged.NumRows(), 0u);
  EXPECT_EQ(merged.ColumnIndex("item"), 2);
}

TEST(ScatterGatherMergeTest, SparsePosRenumbersDensely) {
  // Shards report their local pos; after the merge pos must be a dense
  // 1..n per iteration even when the inputs were sparse.
  Table s0 = Table::IterPosItem();
  s0.AppendIPI(1, 5, Item(AtomicValue::String("x")));
  Table s1 = Table::IterPosItem();
  s1.AppendIPI(1, 3, Item(AtomicValue::String("y")));
  Table merged = ScatterGatherMerge({s0, s1});
  EXPECT_EQ(Render(merged), "1.1:x 1.2:y");
}

// Builds an iter|pos|item table from a list of iter values (pos dense per
// iter, item = the row index as a string).
Table TableWithIters(const std::vector<int64_t>& iters) {
  Table t = Table::IterPosItem();
  int64_t pos = 0, prev = -1;
  for (size_t i = 0; i < iters.size(); ++i) {
    pos = iters[i] == prev ? pos + 1 : 1;
    prev = iters[i];
    t.AppendIPI(iters[i], pos,
                Item(AtomicValue::String(std::to_string(i))));
  }
  return t;
}

TEST(TableTest, AppendRowsFromConcatenatesCopyAndMove) {
  Table a = TableWithIters({1, 1});
  Table b = TableWithIters({2});
  a.AppendRowsFrom(b);  // copy flavor leaves the source intact
  EXPECT_EQ(a.NumRows(), 3u);
  EXPECT_EQ(b.NumRows(), 1u);
  EXPECT_EQ(a.Iter(2), 2);
  EXPECT_EQ(a.ItemAt(2).atomic().ToString(), "0");
}

TEST(TableTest, GatherRowsAndCopyColumns) {
  Table t = TableWithIters({1, 2, 3});
  Table g = t.GatherRows({2, 0});
  ASSERT_EQ(g.NumRows(), 2u);
  EXPECT_EQ(g.Iter(0), 3);
  EXPECT_EQ(g.Iter(1), 1);

  Table p = t.CopyColumns({0, 0}, {"outer", "inner"});
  EXPECT_EQ(p.NumRows(), 3u);
  EXPECT_EQ(p.ColumnIndex("outer"), 0);
  EXPECT_EQ(p.ColumnIndex("inner"), 1);
  EXPECT_EQ(p.At(1, 1).num, 2);
}

}  // namespace
}  // namespace xrpc::algebra
