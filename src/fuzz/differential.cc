#include "fuzz/differential.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "xmark/shard_loader.h"
#include "xmark/xmark.h"
#include "xml/serializer.h"

namespace xrpc::fuzz {

namespace {

/// Canonical rendering of one atomic value: numeric values of equal
/// magnitude render identically regardless of their static type, so
/// xs:integer 4 from one engine matches xs:double 4 from the other.
std::string CanonicalAtomic(const xdm::AtomicValue& v) {
  if (!v.IsNumeric()) return v.ToString();
  double d = v.AsDouble();
  if (std::isnan(d)) return "NaN";
  if (std::isinf(d)) return d > 0 ? "INF" : "-INF";
  if (d == static_cast<double>(static_cast<int64_t>(d))) {
    return std::to_string(static_cast<int64_t>(d));
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", d);
  return buf;
}

}  // namespace

std::string NormalizeSequence(const xdm::Sequence& seq) {
  std::string out;
  for (size_t i = 0; i < seq.size(); ++i) {
    if (i > 0) out += " ";
    const xdm::Item& item = seq[i];
    if (item.IsNode()) {
      out += xml::SerializeNode(*item.node());
    } else {
      out += CanonicalAtomic(item.atomic());
    }
  }
  return out;
}

// ------------------------------------------------------------- skiplist

std::string DifferentialHarness::SkiplistReason(
    const std::string& query_text) {
  // Known, documented engine spec gaps. Every entry must explain WHY the
  // two engines answer differently and why that is accepted rather than
  // fixed; keep this list short and auditable.
  //
  // fn:put bypasses the PUL on the interpreter's immediate path but is
  // rejected on the relational read-only path; the generator does not
  // emit it, but replayed/corpus queries might.
  if (query_text.find("put(") != std::string::npos) {
    return "fn:put document creation is outside the relational subset";
  }
  return "";
}

// ------------------------------------------------------ fixture plumbing

DifferentialHarness::DifferentialHarness(const DifferentialConfig& config)
    : config_(config) {
  BuildFixtures();
}

DifferentialHarness::~DifferentialHarness() = default;

void DifferentialHarness::BuildFixtures() {
  xmark::XmarkConfig xcfg;
  xcfg.num_persons = config_.num_persons;
  xcfg.num_closed_auctions = config_.num_closed_auctions;
  xcfg.num_open_auctions = config_.num_open_auctions;
  xcfg.num_items = config_.num_items;
  xcfg.num_matches = config_.num_matches;
  xcfg.annotation_bytes = 16;

  const std::string persons = xmark::GeneratePersons(xcfg);
  const std::string auctions = xmark::GenerateAuctions(xcfg);
  const std::string films = xmark::GenerateFilmDb(2);

  auto build = [&](core::EngineKind kind) {
    auto net = std::make_unique<core::PeerNetwork>();
    core::Peer* p0 = net->AddPeer("p0", kind);
    core::Peer* b = net->AddPeer("B", kind);
    (void)p0->AddDocument("persons.xml", persons);
    (void)p0->AddDocument("films.xml", films);
    (void)b->AddDocument("auctions.xml", auctions);
    const std::string mod_b = xmark::FunctionsBModuleSource("xrpc://p0");
    const std::string mod_tst = xmark::TestModuleSource();
    for (core::Peer* p : {p0, b}) {
      (void)p->RegisterModule(mod_b, "b.xq");
      (void)p->RegisterModule(mod_tst, "test.xq");
    }
    if (config_.num_shards > 0) {
      xmark::ShardLoadOptions sopts;
      sopts.num_shards = config_.num_shards;
      sopts.engine = kind;
      (void)xmark::LoadShardedXmark(net.get(), xcfg, sopts);
    }
    return net;
  };
  relational_net_ = build(core::EngineKind::kRelational);
  interpreter_net_ = build(core::EngineKind::kInterpreter);
}

std::string DifferentialHarness::RunOn(core::PeerNetwork* net,
                                       const std::string& query, bool* ok,
                                       bool* fell_back) {
  auto report = net->Execute("p0", query);
  if (!report.ok()) {
    *ok = false;
    return "ERROR: " + report.status().ToString();
  }
  *ok = true;
  if (fell_back != nullptr) *fell_back = report->fell_back;
  return NormalizeSequence(report->result);
}

std::string DifferentialHarness::CaptureState(core::PeerNetwork* net) {
  std::string out;
  for (const char* peer_name : {"p0", "B"}) {
    core::Peer* peer = net->GetPeer(peer_name);
    for (const std::string& doc_name : peer->database().DocumentNames()) {
      auto doc = peer->database().GetDocument(doc_name);
      out += std::string(peer_name) + ":" + doc_name + "=";
      out += doc.ok() ? xml::SerializeNode(*doc.value()) : "<unreadable/>";
      out += "\n";
    }
  }
  return out;
}

Comparison DifferentialHarness::Run(const std::string& query_text,
                                    bool updating) {
  Comparison c;
  std::string reason = SkiplistReason(query_text);
  if (!reason.empty()) {
    c.skipped = true;
    c.skip_reason = std::move(reason);
    c.agree = true;
    return c;
  }

  c.relational_result = RunOn(relational_net_.get(), query_text,
                              &c.relational_ok, &c.fell_back);
  c.interpreter_result =
      RunOn(interpreter_net_.get(), query_text, &c.interpreter_ok, nullptr);
  if (updating) {
    c.relational_state = CaptureState(relational_net_.get());
    c.interpreter_state = CaptureState(interpreter_net_.get());
    // Every updating query may have touched documents: restore pristine
    // fixtures for the next query (both networks, keeping them identical).
    BuildFixtures();
  }

  if (c.relational_ok != c.interpreter_ok) {
    c.agree = false;
  } else if (!c.relational_ok) {
    // Both errored: agreement (messages legitimately differ).
    c.agree = true;
  } else {
    c.agree = c.relational_result == c.interpreter_result &&
              c.relational_state == c.interpreter_state;
  }
  if (config_.force_divergence && c.agree && c.relational_ok &&
      !c.relational_result.empty()) {
    c.agree = false;  // self-test of the minimize/repro pipeline
  }
  return c;
}

bool DifferentialHarness::RunAndMinimize(GeneratedQuery* query,
                                         Divergence* out) {
  const std::string text = query->Text();
  Comparison c = Run(text, query->updating);
  ++stats_.executed;
  if (query->updating) ++stats_.updating;
  if (c.skipped) {
    ++stats_.skipped;
    return false;
  }
  if (c.fell_back) {
    ++(query->updating ? stats_.fell_back_update : stats_.fell_back_read);
  }
  if (!c.relational_ok && !c.interpreter_ok) ++stats_.both_error;
  if (c.agree) {
    ++stats_.agreed;
    return false;
  }
  ++stats_.diverged;

  // Hierarchical minimization: repeatedly collapse any reducible subtree
  // whose removal preserves the divergence, until a fixpoint.
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    std::vector<GenNode*> nodes;
    query->root->Walk([&nodes](GenNode* n) { nodes.push_back(n); });
    for (GenNode* n : nodes) {
      if (n == query->root.get() || n->collapsed) continue;
      if (n->reduced.empty() && !n->droppable) continue;
      n->collapsed = true;
      const std::string candidate = query->root->Render();
      Comparison cc = Run(candidate, query->updating);
      if (cc.skipped || cc.agree) {
        n->collapsed = false;  // reduction lost the divergence; undo
      } else {
        shrunk = true;
      }
    }
  }

  out->original_query = text;
  out->query = query->root->Render();
  out->comparison = Run(out->query, query->updating);
  out->seed = query->seed;
  out->index = query->index;
  out->updating = query->updating;
  out->force = config_.force_divergence;
  return true;
}

// ------------------------------------------------------------ repro files

std::string FormatReproFile(const Divergence& d) {
  std::string out;
  out += "# xrpc-fuzz differential repro\n";
  out += "seed: " + std::to_string(d.seed) + "\n";
  out += "index: " + std::to_string(d.index) + "\n";
  out += "updating: " + std::to_string(d.updating ? 1 : 0) + "\n";
  out += "force: " + std::to_string(d.force ? 1 : 0) + "\n";
  out += "--- minimized ---\n" + d.query + "\n";
  out += "--- original ---\n" + d.original_query + "\n";
  out += "--- relational ---\n" + d.comparison.relational_result + "\n";
  out += "--- interpreter ---\n" + d.comparison.interpreter_result + "\n";
  return out;
}

StatusOr<Divergence> ParseReproFile(const std::string& content) {
  Divergence d;
  size_t pos = 0;
  std::string* section = nullptr;
  bool saw_minimized = false;
  while (pos < content.size()) {
    size_t eol = content.find('\n', pos);
    if (eol == std::string::npos) eol = content.size();
    std::string line = content.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("seed: ", 0) == 0) {
      d.seed = std::strtoull(line.c_str() + 6, nullptr, 10);
    } else if (line.rfind("index: ", 0) == 0) {
      d.index = std::atoi(line.c_str() + 7);
    } else if (line.rfind("updating: ", 0) == 0) {
      d.updating = std::atoi(line.c_str() + 10) != 0;
    } else if (line.rfind("force: ", 0) == 0) {
      d.force = std::atoi(line.c_str() + 7) != 0;
    } else if (line == "--- minimized ---") {
      section = &d.query;
      saw_minimized = true;
    } else if (line == "--- original ---") {
      section = &d.original_query;
    } else if (line == "--- relational ---") {
      section = &d.comparison.relational_result;
    } else if (line == "--- interpreter ---") {
      section = &d.comparison.interpreter_result;
    } else if (section != nullptr) {
      *section += (section->empty() ? "" : "\n") + line;
    }
  }
  if (!saw_minimized || d.query.empty()) {
    return Status::InvalidArgument("repro file has no minimized query");
  }
  return d;
}

}  // namespace xrpc::fuzz
