// Tests for the iter|pos|item table and the kernels over it: the (iter,
// pos) sort, ⊎ and the scatter-gather merge.

#include <gtest/gtest.h>

#include "algebra/table.h"
#include "xml/node.h"

namespace xrpc::algebra {
namespace {

using xdm::AtomicValue;
using xdm::Item;

Table ActorTable() {
  // The $actor table of Section 3.2.
  Table t;
  t.AppendIPI(1, 1, Item(AtomicValue::String("Julie Andrews")));
  t.AppendIPI(2, 1, Item(AtomicValue::String("Sean Connery")));
  return t;
}

// Renders an iter|pos|item table as "iter.pos:value" tokens for compact
// full-table assertions.
std::string Render(const Table& t) {
  std::string out;
  for (size_t r = 0; r < t.NumRows(); ++r) {
    if (!out.empty()) out += " ";
    out += std::to_string(t.Iter(r)) + "." + std::to_string(t.Pos(r)) + ":" +
           t.ItemAt(r).atomic().ToString();
  }
  return out;
}

TEST(TableTest, CanonicalSchemaAccessors) {
  Table t = ActorTable();
  EXPECT_EQ(t.NumRows(), 2u);
  EXPECT_EQ(t.Iter(0), 1);
  EXPECT_EQ(t.Pos(1), 1);
  EXPECT_EQ(t.ItemAt(1).atomic().ToString(), "Sean Connery");
  EXPECT_EQ(t.TakeItemAt(0).atomic().ToString(), "Julie Andrews");
  EXPECT_EQ(t.NumRows(), 2u);  // taking an item keeps its row
}

TEST(DisjointUnionTest, ConcatenatesAndChecksSchema) {
  // Both inputs are iter|pos|item by type; the union keeps a's rows, then
  // b's, without reordering.
  Table a = ActorTable();
  Table b;
  b.AppendIPI(1, 2, Item(AtomicValue::String("Gerard Depardieu")));
  Table out = DisjointUnion(std::move(a), std::move(b));
  EXPECT_EQ(Render(out),
            "1.1:Julie Andrews 2.1:Sean Connery 1.2:Gerard Depardieu");
}

TEST(SortByTest, SortsByIntColumns) {
  Table t;
  t.AppendIPI(2, 1, Item(AtomicValue::String("b")));
  t.AppendIPI(1, 2, Item(AtomicValue::String("a2")));
  t.AppendIPI(1, 1, Item(AtomicValue::String("a1")));
  EXPECT_FALSE(t.SortedByIterPos());
  Table out = SortByIterPos(std::move(t));
  EXPECT_TRUE(out.SortedByIterPos());
  EXPECT_EQ(Render(out), "1.1:a1 1.2:a2 2.1:b");
}

TEST(SortByTest, EqualKeysKeepTheirOrder) {
  Table t;
  t.AppendIPI(2, 1, Item(AtomicValue::String("x")));
  t.AppendIPI(1, 1, Item(AtomicValue::String("first")));
  t.AppendIPI(1, 1, Item(AtomicValue::String("second")));
  EXPECT_EQ(Render(SortByIterPos(std::move(t))),
            "1.1:first 1.1:second 2.1:x");
}

TEST(TableTest, ToStringRendersRows) {
  Table t = ActorTable();
  t.AppendIPI(3, 1, Item::Node(xml::Node::NewElement(xml::QName("name"))));
  EXPECT_EQ(t.ToString(),
            "iter | pos | item\n"
            "1 | 1 | \"Julie Andrews\"\n"
            "2 | 1 | \"Sean Connery\"\n"
            "3 | 1 | <name>\n");
}

TEST(ScatterGatherMergeTest, ConcatenatesPerIterInRankOrder) {
  // Shard 0 answered iterations 1 and 2; shard 1 answered 1 and 3. Within
  // iteration 1 shard 0's items come first (rank order), each shard's own
  // items stay in pos order, and pos renumbers densely.
  Table s0;
  s0.AppendIPI(2, 1, Item(AtomicValue::String("b")));
  s0.AppendIPI(1, 1, Item(AtomicValue::String("a0.1")));
  s0.AppendIPI(1, 2, Item(AtomicValue::String("a0.2")));
  Table s1;
  s1.AppendIPI(3, 1, Item(AtomicValue::String("c")));
  s1.AppendIPI(1, 1, Item(AtomicValue::String("a1.1")));
  std::vector<Table> sources;
  sources.push_back(std::move(s0));
  sources.push_back(std::move(s1));
  Table merged = ScatterGatherMerge(std::move(sources));
  EXPECT_EQ(Render(merged), "1.1:a0.1 1.2:a0.2 1.3:a1.1 2.1:b 3.1:c");
}

TEST(ScatterGatherMergeTest, SingleSourceIsUnionPlusSortByIter) {
  // The degenerate 1-source merge (unsharded or fully pruned dispatch)
  // must reduce to sort-by-(iter,pos): same rows, canonical order, pos
  // untouched when already dense.
  Table s;
  s.AppendIPI(2, 1, Item(AtomicValue::String("b")));
  s.AppendIPI(1, 2, Item(AtomicValue::String("a2")));
  s.AppendIPI(1, 1, Item(AtomicValue::String("a1")));
  std::vector<Table> sources;
  sources.push_back(std::move(s));
  Table merged = ScatterGatherMerge(std::move(sources));
  EXPECT_EQ(Render(merged), "1.1:a1 1.2:a2 2.1:b");
}

TEST(ScatterGatherMergeTest, EmptySourcesYieldEmptyTable) {
  EXPECT_EQ(ScatterGatherMerge({}).NumRows(), 0u);
  EXPECT_EQ(ScatterGatherMerge(std::vector<Table>(2)).NumRows(), 0u);
}

TEST(ScatterGatherMergeTest, SparsePosRenumbersDensely) {
  // Shards report their local pos; after the merge pos must be a dense
  // 1..n per iteration even when the inputs were sparse.
  std::vector<Table> sources(2);
  sources[0].AppendIPI(1, 5, Item(AtomicValue::String("x")));
  sources[1].AppendIPI(1, 3, Item(AtomicValue::String("y")));
  Table merged = ScatterGatherMerge(std::move(sources));
  EXPECT_EQ(Render(merged), "1.1:x 1.2:y");
}

}  // namespace
}  // namespace xrpc::algebra
