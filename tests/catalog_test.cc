#include "core/catalog.h"

#include <gtest/gtest.h>

namespace xrpc::core {
namespace {

ShardedCollection HashCollection(int num_shards) {
  ShardedCollection c;
  c.name = "auctions.xml";
  c.kind = PartitionKind::kHash;
  c.partition_key = "buyer/@person";
  c.route_param = 0;
  for (int k = 0; k < num_shards; ++k) {
    c.shards.push_back(
        {k, "xrpc://shard" + std::to_string(k),
         "auctions.xml." + std::to_string(k), 0, 0});
  }
  return c;
}

TEST(CatalogTest, RegisterAndFind) {
  Catalog catalog;
  EXPECT_EQ(catalog.version(), 0);
  ASSERT_TRUE(catalog.RegisterCollection(HashCollection(4)).ok());
  EXPECT_EQ(catalog.version(), 1);
  ShardedCollection c;
  int64_t version = 0;
  ASSERT_TRUE(catalog.Snapshot("auctions.xml", &c, &version));
  EXPECT_EQ(c.shards.size(), 4u);
  EXPECT_EQ(version, 1);
  EXPECT_FALSE(catalog.Snapshot("nope.xml", &c, nullptr));
  EXPECT_EQ(catalog.CollectionNames().size(), 1u);
}

TEST(CatalogTest, RegistrationValidation) {
  Catalog catalog;
  ShardedCollection empty;
  empty.name = "x";
  EXPECT_FALSE(catalog.RegisterCollection(empty).ok());

  ShardedCollection unnamed = HashCollection(2);
  unnamed.name.clear();
  EXPECT_FALSE(catalog.RegisterCollection(unnamed).ok());

  ShardedCollection sparse = HashCollection(2);
  sparse.shards[1].index = 5;
  EXPECT_FALSE(catalog.RegisterCollection(sparse).ok());

  ShardedCollection no_peer = HashCollection(2);
  no_peer.shards[0].peer_uri.clear();
  EXPECT_FALSE(catalog.RegisterCollection(no_peer).ok());
}

TEST(CatalogTest, HashRoutingIsStableAndInRange) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterCollection(HashCollection(16)).ok());
  ShardedCollection c;
  ASSERT_TRUE(catalog.Snapshot("auctions.xml", &c, nullptr));
  for (int i = 0; i < 100; ++i) {
    std::string key = "person" + std::to_string(i);
    auto a = catalog.RouteKey(c, key);
    auto b = catalog.RouteKey(c, key);
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(a.value(), b.value());
    EXPECT_GE(a.value(), 0);
    EXPECT_LT(a.value(), 16);
    // The router and the loader must agree: RouteKey IS ShardHash mod n.
    EXPECT_EQ(a.value(), static_cast<int>(ShardHash(key) % 16));
  }
}

TEST(CatalogTest, RangeRouting) {
  Catalog catalog;
  ShardedCollection c;
  c.name = "persons.xml";
  c.kind = PartitionKind::kRange;
  c.partition_key = "@id";
  c.route_param = 0;
  c.shards.push_back({0, "xrpc://a", "persons.xml.0", 0, 100});
  c.shards.push_back({1, "xrpc://b", "persons.xml.1", 100, 250});
  ASSERT_TRUE(catalog.RegisterCollection(c).ok());
  ShardedCollection reg;
  ASSERT_TRUE(catalog.Snapshot("persons.xml", &reg, nullptr));
  EXPECT_EQ(catalog.RouteKey(reg, "person0").value(), 0);
  EXPECT_EQ(catalog.RouteKey(reg, "person99").value(), 0);
  EXPECT_EQ(catalog.RouteKey(reg, "person100").value(), 1);
  EXPECT_EQ(catalog.RouteKey(reg, "person249").value(), 1);
  // Out of every range, or no trailing integer: routing error (callers
  // broadcast instead of pruning).
  EXPECT_FALSE(catalog.RouteKey(reg, "person250").ok());
  EXPECT_FALSE(catalog.RouteKey(reg, "alice").ok());
}

TEST(CatalogTest, RangeValidationRejectsOverlapsAndEmptyRanges) {
  Catalog catalog;
  ShardedCollection c;
  c.name = "r";
  c.kind = PartitionKind::kRange;
  c.shards.push_back({0, "xrpc://a", "r.0", 0, 100});
  c.shards.push_back({1, "xrpc://b", "r.1", 50, 150});  // overlaps
  EXPECT_FALSE(catalog.RegisterCollection(c).ok());

  c.shards[1] = {1, "xrpc://b", "r.1", 100, 100};  // empty
  EXPECT_FALSE(catalog.RegisterCollection(c).ok());
}

TEST(CatalogTest, ShardUriHelpers) {
  EXPECT_TRUE(Catalog::IsShardUri("shard:auctions.xml"));
  EXPECT_FALSE(Catalog::IsShardUri("xrpc://b"));
  EXPECT_FALSE(Catalog::IsShardUri("shard:"));  // empty collection name
  EXPECT_EQ(Catalog::CollectionOf("shard:auctions.xml"), "auctions.xml");
  EXPECT_EQ(Catalog::ShardUri("auctions.xml"), "shard:auctions.xml");
}

TEST(CatalogTest, ReRegistrationBumpsVersionAndReplaces) {
  Catalog catalog;
  ASSERT_TRUE(catalog.RegisterCollection(HashCollection(4)).ok());
  ASSERT_TRUE(catalog.RegisterCollection(HashCollection(16)).ok());
  EXPECT_EQ(catalog.version(), 2);
  ShardedCollection c;
  ASSERT_TRUE(catalog.Snapshot("auctions.xml", &c, nullptr));
  EXPECT_EQ(c.shards.size(), 16u);
}

}  // namespace
}  // namespace xrpc::core
