#ifndef XRPC_FUZZ_GENERATOR_H_
#define XRPC_FUZZ_GENERATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/prng.h"

namespace xrpc::fuzz {

/// A generated query fragment. Rendering concatenates the pieces in order;
/// a piece is either literal text or a reference into `children`. The tree
/// structure (rather than a flat string) is what makes hierarchical
/// test-case minimization possible: any subtree that declares a `reduced`
/// form can be swapped for it without breaking XQuery syntax.
class GenNode {
 public:
  struct Piece {
    std::string text;  ///< literal fragment (used when child < 0)
    int child = -1;    ///< index into children (used when >= 0)
  };

  std::vector<Piece> pieces;
  std::vector<std::unique_ptr<GenNode>> children;

  /// A syntactically valid, strictly simpler replacement for this subtree
  /// ("1", "()", "\"x\"", ...). Empty = not reducible as a unit, unless
  /// `droppable` marks the empty string itself as the valid replacement
  /// (e.g. a whole predicate "[...]" can vanish).
  std::string reduced;
  bool droppable = false;

  /// When set, minimization replaced this node: Render() emits `reduced`
  /// and ignores pieces/children.
  bool collapsed = false;

  /// Renders the fragment this subtree stands for.
  std::string Render() const;

  /// Appends a literal piece.
  void Lit(std::string text);

  /// Appends (and owns) a child piece.
  GenNode* Add(std::unique_ptr<GenNode> child);

  /// Pre-order walk over all non-collapsed descendants (including this).
  void Walk(const std::function<void(GenNode*)>& fn);
};

/// Knobs of the random query generator.
struct GeneratorConfig {
  uint64_t seed = 1;
  int max_depth = 4;
  /// Fraction of generated queries that are XQUF updating queries.
  double update_ratio = 0.15;
  /// Generate `execute at` calls against peer "B" (requires the fixture's
  /// functions_b/test modules to be importable).
  bool allow_rpc = true;
  /// Fraction of queries importing + calling remote module functions.
  double rpc_ratio = 0.35;
};

/// One generated query: the reducible fragment tree plus metadata.
struct GeneratedQuery {
  std::unique_ptr<GenNode> root;
  bool updating = false;   ///< contains XQUF update syntax
  uint64_t seed = 0;       ///< generator state that produced this query
  int index = 0;           ///< ordinal in the generator's output stream

  std::string Text() const { return root->Render(); }
};

/// Seeded random XQuery generator biased toward the XMark schema split of
/// Section 5 (persons.xml at the local peer, auctions.xml at peer B) plus
/// the film database of Section 2. Every query it emits parses under
/// src/xquery, and every read-only one runs on the loop-lifted engine
/// without falling back (`fuzz_differential` fails otherwise), so the
/// differential harness exercises genuinely different execution paths.
///
/// Determinism: the whole stream is a pure function of `config.seed`; query
/// k of a given seed is identical across runs and platforms
/// (DeterministicPrng, no global state).
class QueryGenerator {
 public:
  explicit QueryGenerator(const GeneratorConfig& config);

  /// Generates the next query in the stream.
  GeneratedQuery Next();

  /// Prolog text (module imports) every generated query may rely on; the
  /// differential fixture registers these modules on both networks.
  static std::string FixturePrologue();

 private:
  struct Scope;  // in-scope variables during generation

  // Each Gen* returns a fragment tree for one grammar production.
  std::unique_ptr<GenNode> GenQueryBody(bool updating, bool with_rpc);
  std::unique_ptr<GenNode> GenExpr(int depth, Scope* scope);
  std::unique_ptr<GenNode> GenFlwor(int depth, Scope* scope);
  std::unique_ptr<GenNode> GenQuantified(int depth, Scope* scope);
  std::unique_ptr<GenNode> GenIf(int depth, Scope* scope);
  std::unique_ptr<GenNode> GenPath(int depth, Scope* scope);
  std::unique_ptr<GenNode> GenPredicate(int depth, Scope* scope,
                                        const std::string& elem);
  std::unique_ptr<GenNode> GenComparison(int depth, Scope* scope);
  std::unique_ptr<GenNode> GenArith(int depth, Scope* scope);
  std::unique_ptr<GenNode> GenStringExpr(int depth, Scope* scope);
  std::unique_ptr<GenNode> GenAggregate(int depth, Scope* scope);
  std::unique_ptr<GenNode> GenConstructor(int depth, Scope* scope);
  std::unique_ptr<GenNode> GenExecuteAt(int depth, Scope* scope);
  std::unique_ptr<GenNode> GenUpdate(Scope* scope);
  std::unique_ptr<GenNode> GenAtomic(Scope* scope);

  uint64_t Below(uint64_t n) { return n == 0 ? 0 : prng_.NextUint64() % n; }
  bool Chance(double p) { return prng_.NextDouble() < p; }

  GeneratorConfig config_;
  DeterministicPrng prng_;
  int next_index_ = 0;
  int var_counter_ = 0;  ///< fresh variable names per query
};

}  // namespace xrpc::fuzz

#endif  // XRPC_FUZZ_GENERATOR_H_
