// Regression corpus for the cross-engine differential harness (DESIGN.md
// §11): every query under tests/corpus/ must produce identical normalized
// results (and, for XQUF queries, identical post-update document state) on
// the loop-lifted relational engine and the tree-walking interpreter.
// Divergences found by tools/fuzz_differential get their minimized form
// checked in here so the disagreement stays fixed.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz/differential.h"
#include "fuzz/generator.h"

namespace xrpc::fuzz {
namespace {

#ifndef XRPC_CORPUS_DIR
#error "XRPC_CORPUS_DIR must point at tests/corpus"
#endif

bool IsUpdating(const std::string& text) {
  return text.find("insert nodes") != std::string::npos ||
         text.find("delete nodes") != std::string::npos ||
         text.find("replace value") != std::string::npos ||
         text.find("rename node") != std::string::npos ||
         text.find("put(") != std::string::npos;
}

/// The error code an entry marked `(: expect error CODE :)` must raise on
/// both engines, or "" for an entry that must answer.
std::string ExpectedError(const std::string& text) {
  const std::string marker = "(: expect error ";
  const size_t at = text.find(marker);
  if (at == std::string::npos) return "";
  const size_t code = at + marker.size();
  return text.substr(code, text.find(' ', code) - code);
}

std::vector<std::filesystem::path> CorpusFiles() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(XRPC_CORPUS_DIR)) {
    if (entry.path().extension() == ".xq") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string ReadFile(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(DifferentialCorpusTest, EveryCorpusQueryAgreesAcrossEngines) {
  const auto files = CorpusFiles();
  ASSERT_GE(files.size(), 10u) << "corpus went missing from "
                               << XRPC_CORPUS_DIR;
  DifferentialHarness harness;
  for (const auto& path : files) {
    const std::string text = ReadFile(path);
    ASSERT_FALSE(text.empty()) << path;
    Comparison c = harness.Run(text, IsUpdating(text));
    EXPECT_TRUE(c.agree) << path.filename() << "\n  relational : "
                         << c.relational_result
                         << "\n  interpreter: " << c.interpreter_result;
    const std::string error = ExpectedError(text);
    if (!error.empty()) {
      // Both engines fail, naming the error.
      EXPECT_FALSE(c.relational_ok) << path.filename();
      EXPECT_NE(c.relational_result.find(error), std::string::npos)
          << path.filename() << ": " << c.relational_result;
      EXPECT_NE(c.interpreter_result.find(error), std::string::npos)
          << path.filename() << ": " << c.interpreter_result;
      continue;
    }
    EXPECT_TRUE(c.relational_ok) << path.filename() << ": "
                                 << c.relational_result;
  }
}

TEST(DifferentialCorpusTest, ForcedDivergenceIsMinimizedAndReproducible) {
  // Self-test of the whole pipeline: with force_divergence on, the first
  // non-empty agreeing result counts as a divergence, gets minimized, and
  // round-trips through the repro file format.
  DifferentialConfig config;
  config.force_divergence = true;
  DifferentialHarness harness(config);
  GeneratorConfig gcfg;
  gcfg.seed = 99;
  QueryGenerator gen(gcfg);

  Divergence d;
  bool found = false;
  for (int i = 0; i < 10 && !found; ++i) {
    GeneratedQuery q = gen.Next();
    found = harness.RunAndMinimize(&q, &d);
  }
  ASSERT_TRUE(found);
  EXPECT_FALSE(d.query.empty());
  EXPECT_LE(d.query.size(), d.original_query.size());

  const std::string file = FormatReproFile(d);
  auto parsed = ParseReproFile(file);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed.value().query, d.query);
  EXPECT_EQ(parsed.value().seed, d.seed);
  EXPECT_TRUE(parsed.value().force);

  // Replaying the minimized query reproduces the recorded divergence.
  Comparison replay = harness.Run(parsed.value().query, parsed.value().updating);
  EXPECT_FALSE(replay.agree);
  EXPECT_EQ(replay.relational_result, d.comparison.relational_result);
  EXPECT_EQ(replay.interpreter_result, d.comparison.interpreter_result);
}

TEST(DifferentialCorpusTest, ShardedQueriesAgreeAndAreShardCountInvariant) {
  // Scatter-gather determinism, differentially. Two layered contracts:
  //  (a) at every shard count the relational scatter-gather merge and the
  //      interpreter's shard-order concatenation agree — including on the
  //      broadcast, whose result order is shard-rank order by design and
  //      therefore legitimately varies WITH the shard count;
  //  (b) queries whose order does not depend on shard ranks (the
  //      key-routed semijoin: one shard per call; aggregates over the
  //      assembled document) are byte-identical over 1, 4, and 16 shards.
  struct ShardQuery {
    std::string text;
    bool shard_count_invariant;
  };
  const std::vector<ShardQuery> queries = {
      // Key-routed Bulk RPC semijoin (prunes to one shard per call).
      {"import module namespace b=\"functions_b\" at \"b.xq\";\n"
       "for $p in doc(\"persons.xml\")//person\n"
       "let $ca := execute at {\"shard:auctions.xml\"}"
       " {b:Q_B3(string($p/@id))}\n"
       "return if (empty($ca)) then ()"
       " else <result>{$p, $ca/annotation}</result>",
       true},
      // Broadcast (no partition key bound): merged in shard-rank order.
      {"import module namespace b=\"functions_b\" at \"b.xq\";\n"
       "execute at {\"shard:auctions.xml\"} {b:Q_B1()}",
       false},
      // Aggregate over the shard-assembled virtual document at p0.
      {"count(doc(\"shard:auctions.xml\")//closed_auction)", true},
  };
  std::vector<std::string> baseline(queries.size());
  for (int shards : {1, 4, 16}) {
    DifferentialConfig config;
    config.num_shards = shards;
    DifferentialHarness harness(config);
    for (size_t i = 0; i < queries.size(); ++i) {
      Comparison c = harness.Run(queries[i].text, /*updating=*/false);
      EXPECT_TRUE(c.agree) << shards << " shards, query " << i << ":\n  rel "
                           << c.relational_result << "\n  int "
                           << c.interpreter_result;
      ASSERT_TRUE(c.relational_ok) << c.relational_result;
      EXPECT_FALSE(c.relational_result.empty());
      if (shards == 1) {
        baseline[i] = c.relational_result;
      } else if (queries[i].shard_count_invariant) {
        EXPECT_EQ(c.relational_result, baseline[i])
            << shards << " shards, query " << i;
      }
    }
  }
}

TEST(DifferentialCorpusTest, NormalizationCanonicalizesNumericLexicalForms) {
  xdm::Sequence ints{xdm::Item(xdm::AtomicValue::Integer(4))};
  xdm::Sequence doubles{xdm::Item(xdm::AtomicValue::Double(4.0))};
  EXPECT_EQ(NormalizeSequence(ints), NormalizeSequence(doubles));
  xdm::Sequence frac{xdm::Item(xdm::AtomicValue::Double(2.5))};
  EXPECT_EQ(NormalizeSequence(frac), "2.5");
  EXPECT_EQ(NormalizeSequence({}), "");
}

}  // namespace
}  // namespace xrpc::fuzz
