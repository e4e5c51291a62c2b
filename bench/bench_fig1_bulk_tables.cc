// Regenerates Figure 1: "Relational Processing of Bulk RPC (Multiple
// Destinations Example)" — the intermediate map/req/msg/res/result tables
// of query Q3's loop-lifted `execute at`, captured live from the engine.
// Also prints the Figure 2 translation rule context (dst and parameter
// tables) that drives it.

#include <cstdio>

#include "bench/bench_util.h"
#include "xmark/xmark.h"

namespace {

using xrpc::core::EngineKind;
using xrpc::core::ExecuteOptions;
using xrpc::core::Peer;
using xrpc::core::PeerNetwork;

constexpr char kFilmDbY[] =
    "<films>"
    "<film><name>The Rock</name><actor>Sean Connery</actor></film>"
    "<film><name>Goldfinger</name><actor>Sean Connery</actor></film>"
    "</films>";

constexpr char kFilmDbZ[] =
    "<films>"
    "<film><name>Sound Of Music</name><actor>Julie Andrews</actor></film>"
    "</films>";

}  // namespace

int main() {
  PeerNetwork net;
  net.AddPeer("p0.example.org", EngineKind::kRelational);
  Peer* y = net.AddPeer("y.example.org", EngineKind::kRelational);
  Peer* z = net.AddPeer("z.example.org", EngineKind::kRelational);
  (void)y->AddDocument("filmDB.xml", kFilmDbY);
  (void)z->AddDocument("filmDB.xml", kFilmDbZ);
  (void)y->RegisterModule(xrpc::xmark::FilmModuleSource(), "film.xq");
  (void)z->RegisterModule(xrpc::xmark::FilmModuleSource(), "film.xq");

  // Query Q3 of the paper (two actors x two destinations).
  const char* q3 = R"(
    import module namespace f="films" at "http://x.example.org/film.xq";
    for $actor in ("Julie Andrews", "Sean Connery")
    for $dst in ("xrpc://y.example.org", "xrpc://z.example.org")
    return execute at {$dst} {f:filmsByActor($actor)})";

  ExecuteOptions opts;
  opts.trace_bulk_rpc = true;
  auto report = net.Execute("p0.example.org", q3, opts);
  if (!report.ok()) {
    std::fprintf(stderr, "bench_fig1: %s\n",
                 report.status().ToString().c_str());
    return 1;
  }
  if (report->traces.empty()) {
    std::fprintf(stderr, "bench_fig1: no Bulk RPC trace captured\n");
    return 1;
  }

  std::printf(
      "Figure 1 — relational processing of Bulk RPC for query Q3\n"
      "(loop-lifted `execute at` with two destination peers).\n\n");

  const auto& trace = report->traces[0];
  std::printf("dst (loop-lifted destination variable):\n%s\n",
              trace.dst.ToString().c_str());
  for (const auto& peer : trace.peers) {
    std::printf("---- peer %s ----\n", peer.peer.c_str());
    std::printf("map (iter <-> iterp, the rho renumbering):\n%s\n",
                peer.MapToString().c_str());
    for (size_t p = 0; p < peer.req.size(); ++p) {
      std::printf("req parameter %zu (iterp|pos|item):\n%s\n", p + 1,
                  peer.req[p].ToString().c_str());
    }
    std::printf("msg (Bulk RPC response, iterp|pos|item):\n%s\n",
                peer.msg.ToString().c_str());
    std::printf("res (mapped back to original iters):\n%s\n",
                peer.res.ToString().c_str());
  }
  std::printf("result (merge-union of all res tables, query order):\n%s\n",
              trace.result.ToString().c_str());
  std::printf("final value: %s\n",
              xrpc::xdm::SequenceToString(report->result).c_str());
  return 0;
}
