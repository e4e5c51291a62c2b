// Cross-engine differential fuzzing CLI (DESIGN.md §11): generates seeded
// random XQuery over the XMark fixtures and runs every query on both the
// loop-lifted relational engine and the tree-walking interpreter, comparing
// sequence-normalized results (and, for updating queries, final document
// state). Divergences are minimized and dumped as self-contained repro
// files that replay deterministically.
//
//   fuzz_differential --seed 7 --count 500
//   fuzz_differential --seed 7 --count 20 --force-divergence   # self-test
//   fuzz_differential --replay diff-7-13.repro
//
// Exit status: 0 = no unexplained divergence (or, under
// --force-divergence, the forced divergence was caught, minimized and
// written); 1 = an unexplained divergence was found (repro file written);
// 2 = usage / replay input error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "fuzz/differential.h"
#include "fuzz/generator.h"

namespace {

using xrpc::fuzz::Comparison;
using xrpc::fuzz::DifferentialConfig;
using xrpc::fuzz::DifferentialHarness;
using xrpc::fuzz::Divergence;
using xrpc::fuzz::GeneratedQuery;
using xrpc::fuzz::GeneratorConfig;
using xrpc::fuzz::QueryGenerator;

int Usage() {
  std::fprintf(stderr,
               "usage: fuzz_differential [--seed N] [--count N]\n"
               "                         [--update-ratio F] [--no-rpc]\n"
               "                         [--force-divergence]\n"
               "                         [--out-dir DIR] [--verbose]\n"
               "       fuzz_differential --replay FILE\n");
  return 2;
}

int Replay(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "fuzz_differential: cannot open %s\n", path.c_str());
    return 2;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  auto parsed = xrpc::fuzz::ParseReproFile(buf.str());
  if (!parsed.ok()) {
    std::fprintf(stderr, "fuzz_differential: %s\n",
                 parsed.status().ToString().c_str());
    return 2;
  }
  const Divergence& d = parsed.value();
  DifferentialConfig config;
  config.force_divergence = d.force;
  DifferentialHarness harness(config);
  Comparison c = harness.Run(d.query, d.updating);
  std::printf("replay seed=%llu index=%d updating=%d\n",
              static_cast<unsigned long long>(d.seed), d.index,
              d.updating ? 1 : 0);
  std::printf("query:\n%s\n", d.query.c_str());
  std::printf("relational : %s\n", c.relational_result.c_str());
  std::printf("interpreter: %s\n", c.interpreter_result.c_str());
  if (c.skipped) {
    std::printf("verdict: SKIPPED (%s)\n", c.skip_reason.c_str());
    return 0;
  }
  std::printf("verdict: %s\n", c.agree ? "AGREE" : "DIVERGE");
  return c.agree ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  GeneratorConfig gcfg;
  DifferentialConfig dcfg;
  int count = 500;
  bool verbose = false;
  std::string out_dir = ".";
  std::string replay_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage();
      gcfg.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--count") {
      const char* v = next();
      if (v == nullptr) return Usage();
      count = std::atoi(v);
    } else if (arg == "--update-ratio") {
      const char* v = next();
      if (v == nullptr) return Usage();
      gcfg.update_ratio = std::atof(v);
    } else if (arg == "--no-rpc") {
      gcfg.allow_rpc = false;
    } else if (arg == "--force-divergence") {
      dcfg.force_divergence = true;
    } else if (arg == "--out-dir") {
      const char* v = next();
      if (v == nullptr) return Usage();
      out_dir = v;
    } else if (arg == "--replay") {
      const char* v = next();
      if (v == nullptr) return Usage();
      replay_path = v;
    } else if (arg == "--verbose") {
      verbose = true;
    } else {
      return Usage();
    }
  }
  if (!replay_path.empty()) return Replay(replay_path);

  QueryGenerator gen(gcfg);
  DifferentialHarness harness(dcfg);
  int divergences = 0;
  for (int i = 0; i < count; ++i) {
    GeneratedQuery q = gen.Next();
    if (verbose) {
      std::printf("-- query %d --\n%s\n", i, q.Text().c_str());
    }
    Divergence d;
    if (!harness.RunAndMinimize(&q, &d)) continue;
    ++divergences;
    const std::string path = out_dir + "/diff-" + std::to_string(d.seed) +
                             "-" + std::to_string(d.index) + ".repro";
    std::ofstream out(path);
    out << xrpc::fuzz::FormatReproFile(d);
    std::printf("DIVERGENCE at query %d (minimized, repro: %s)\n", d.index,
                path.c_str());
    std::printf("  query      : %s\n", d.query.c_str());
    std::printf("  relational : %s\n",
                d.comparison.relational_result.c_str());
    std::printf("  interpreter: %s\n",
                d.comparison.interpreter_result.c_str());
  }

  const auto& s = harness.stats();
  std::printf(
      "fuzz_differential: seed=%llu executed=%lld agreed=%lld "
      "diverged=%lld skipped=%lld both_error=%lld fell_back=%lld "
      "updating=%lld\n",
      static_cast<unsigned long long>(gcfg.seed),
      static_cast<long long>(s.executed), static_cast<long long>(s.agreed),
      static_cast<long long>(s.diverged), static_cast<long long>(s.skipped),
      static_cast<long long>(s.both_error),
      static_cast<long long>(s.fell_back),
      static_cast<long long>(s.updating));
  if (dcfg.force_divergence) {
    // Self-test mode: success means the pipeline caught and minimized at
    // least one (artificial) divergence.
    return divergences > 0 ? 0 : 1;
  }
  return divergences == 0 ? 0 : 1;
}
