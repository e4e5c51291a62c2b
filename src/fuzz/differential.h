#ifndef XRPC_FUZZ_DIFFERENTIAL_H_
#define XRPC_FUZZ_DIFFERENTIAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/peer_network.h"
#include "fuzz/generator.h"

namespace xrpc::fuzz {

/// Outcome of running one query through both engines.
struct Comparison {
  bool agree = false;
  bool skipped = false;      ///< hit a documented known-divergence pattern
  std::string skip_reason;

  bool relational_ok = false;
  bool interpreter_ok = false;
  bool fell_back = false;    ///< relational p0 fell back to the interpreter
  std::string relational_result;   ///< normalized result (or error text)
  std::string interpreter_result;  ///< normalized result (or error text)
  /// For updating queries: normalized post-state of every document on every
  /// peer, per engine.
  std::string relational_state;
  std::string interpreter_state;
};

/// Counters of a differential campaign.
struct DiffStats {
  int64_t executed = 0;
  int64_t agreed = 0;
  int64_t diverged = 0;
  int64_t skipped = 0;       ///< skiplisted known spec gaps
  int64_t both_error = 0;    ///< both engines rejected the query
  int64_t fell_back = 0;     ///< relational engine fell back (no signal)
  int64_t updating = 0;
};

/// A divergence found by the harness, after minimization.
struct Divergence {
  std::string query;           ///< minimized query text
  std::string original_query;  ///< as generated
  Comparison comparison;       ///< of the minimized query
  uint64_t seed = 0;
  int index = 0;
  bool updating = false;       ///< replay must capture document state
  bool force = false;          ///< produced under force_divergence self-test
};

struct DifferentialConfig {
  /// XMark scale of the fixture documents (kept small: the harness
  /// rebuilds document state after every updating query).
  int num_persons = 12;
  int num_closed_auctions = 18;
  int num_open_auctions = 5;
  int num_items = 8;
  int num_matches = 3;
  /// When > 0, both fixture networks additionally carry the XMark
  /// documents sharded over this many peers (xmark::LoadShardedXmark), so
  /// generated/corpus queries can target "shard:auctions.xml" and the
  /// scatter-gather merge is differentially checked against the
  /// interpreter's shard-order concatenation.
  int num_shards = 0;
  /// Self-test mode: treat every non-empty agreeing result as a
  /// divergence, to exercise minimization + repro writing end to end.
  bool force_divergence = false;
};

/// Runs one query through two identically provisioned peer networks — one
/// whose peers run the loop-lifted relational engine, one whose peers run
/// the tree-walking interpreter — and compares sequence-normalized results
/// (and, for updating queries, final document state).
///
/// Normalization rules (documented in DESIGN.md §11):
///  - items are rendered space-separated (xdm::SequenceToString) with
///    numeric atomics re-rendered through a canonical %.12g so that
///    integer/decimal/double lexical differences of equal values vanish;
///  - an evaluation error normalizes to "ERROR"; the two engines agree on
///    an erroring query iff both error (messages are NOT compared — the
///    engines legitimately phrase failures differently);
///  - document state is serialized per peer as "peer:name=<xml>" lines.
class DifferentialHarness {
 public:
  explicit DifferentialHarness(const DifferentialConfig& config = {});
  ~DifferentialHarness();

  /// Runs `query_text` on both engines. `updating` rebuilds the fixtures
  /// afterwards so the next query sees pristine documents.
  Comparison Run(const std::string& query_text, bool updating);

  /// Runs a generated query, and on divergence minimizes it: repeatedly
  /// collapses reducible subtrees while the divergence persists.
  /// Returns true if a divergence was recorded into `out`.
  bool RunAndMinimize(GeneratedQuery* query, Divergence* out);

  /// Classifies a query against the known-divergence skiplist. Returns a
  /// non-empty reason when the query exercises a documented spec gap that
  /// the two engines answer differently on purpose.
  static std::string SkiplistReason(const std::string& query_text);

  const DiffStats& stats() const { return stats_; }

 private:
  void BuildFixtures();
  /// Evaluates on one network; returns the normalized result string.
  std::string RunOn(core::PeerNetwork* net, const std::string& query,
                    bool* ok, bool* fell_back);
  std::string CaptureState(core::PeerNetwork* net);

  DifferentialConfig config_;
  DiffStats stats_;
  std::unique_ptr<core::PeerNetwork> relational_net_;
  std::unique_ptr<core::PeerNetwork> interpreter_net_;
};

/// Formats a self-contained repro file for a divergence; ReadReproFile
/// parses it back. The file replays deterministically: it carries the
/// query text itself, not the generator state.
std::string FormatReproFile(const Divergence& d);
StatusOr<Divergence> ParseReproFile(const std::string& content);

/// Canonical sequence normalization used by the harness and the corpus
/// test (exposed for reuse).
std::string NormalizeSequence(const xdm::Sequence& seq);

}  // namespace xrpc::fuzz

#endif  // XRPC_FUZZ_DIFFERENTIAL_H_
