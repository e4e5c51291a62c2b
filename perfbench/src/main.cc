// Wall-clock benchmark program: runs one workload closed loop (one client
// thread, no think time) against the library's public API and prints the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run).
// The last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
//   xrpc_perfbench --workload point_mix|semijoin|ship --seed N
//                  --seconds S --trace 0|1 [--drift-bound F] [--out-dir DIR]
//   xrpc_perfbench --selftest
//
// See ../README.md for the workloads and the metric definitions.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_json.h"
#include "fuzz/differential.h"
#include "reference.h"
#include "shred/shredded_doc.h"
#include "soap/message.h"
#include "trace.h"
#include "workloads.h"
#include "xquery/parser.h"

#ifndef XRPC_PERFBENCH_BUILD_TYPE
#define XRPC_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace xrpc::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double drift_bound = 0.1;  ///< stationarity limit on half-run p50s
  std::string out_dir = ".bench_out";
  bool selftest = false;
  // Set only by the self-test.
  int setups = 8;        ///< deployments (timed segments) per run
  bool http = true;      ///< point_mix transport
  std::string sabotage;  ///< "", "answer" or "message"
  int64_t max_ops = 0;   ///< > 0: stop after this many ops instead of time
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;  ///< end-to-end, or per-layer when traced
  std::vector<Metric> extra;    ///< reported, but not part of the contract
  uint64_t answer_digest = 14695981039346656037ull;  ///< FNV-1a of answers
  std::string final_check;  ///< "" when the final state is as expected
  double drift = 0;  ///< |second-half p50 - first-half p50| / first-half p50
  bool span_check_ok = true;
};

/// Linear-interpolated percentile of an unsorted sample; 0 when empty.
double Percentile(std::vector<int64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1 - frac) +
         static_cast<double>(v[hi]) * frac;
}

double Median(std::vector<int64_t> v) { return Percentile(std::move(v), 50); }

int64_t CpuMicros() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto us = [](const timeval& t) {
    return static_cast<int64_t>(t.tv_sec) * 1'000'000 + t.tv_usec;
  };
  return us(usage.ru_utime) + us(usage.ru_stime);
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void Digest(uint64_t* h, const std::string& s) {
  for (unsigned char c : s) {
    *h ^= c;
    *h *= 1099511628211ull;
  }
  *h ^= 0xff;
  *h *= 1099511628211ull;
}

/// Shortest text that reads back as exactly `v`.
std::string Number(double v) {
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

/// Per-layer accumulators of the traced ops.
struct LayerTotals {
  int64_t ops = 0;
  int64_t updates = 0;
  int64_t parse_us = 0;
  int64_t xrpc_msgs = 0;
  int64_t calls = 0;
  int64_t req_bytes = 0;
  int64_t resp_bytes = 0;
  int64_t decode_req_us = 0;
  int64_t decode_resp_us = 0;
  int64_t encode_req_us = 0;
  int64_t encode_resp_us = 0;
  int64_t handle_us = 0;
  int64_t wsat_msgs = 0;
  int64_t wsat_handle_us = 0;
};

/// Replays one traced op outside its timed window: the op text through the
/// XQuery parser and every captured xrpc envelope through soap::*.
void Replay(Tracer* tracer, const Op& op, LayerTotals* t) {
  const int64_t root = tracer->Open("replay", "p0", "");
  auto timed = [&](const char* name, auto&& fn) {
    const int64_t span = tracer->Open(name, "", "");
    fn();
    return tracer->Close(span);
  };
  t->parse_us += timed("replay.xquery.parse", [&] {
    (void)xquery::ParseMainModule(op.text);
  });
  for (const Capture& c : tracer->TakeCaptures()) {
    if (c.path == "wsat") {
      ++t->wsat_msgs;
      t->wsat_handle_us += c.handle_us;
      continue;
    }
    if (!c.path.empty()) continue;
    ++t->xrpc_msgs;
    t->handle_us += c.handle_us;
    t->req_bytes += static_cast<int64_t>(c.request.size());
    t->resp_bytes += static_cast<int64_t>(c.response.size());
    StatusOr<soap::XrpcRequest> request = Status::Internal("unset");
    StatusOr<soap::XrpcResponse> response = Status::Internal("unset");
    t->decode_req_us += timed("replay.soap.parse_request", [&] {
      request = soap::ParseRequest(c.request);
    });
    t->decode_resp_us += timed("replay.soap.parse_response", [&] {
      response = soap::ParseResponse(c.response);
    });
    if (request.ok()) {
      t->calls += static_cast<int64_t>(request->calls.size());
      t->encode_req_us += timed("replay.soap.serialize_request", [&] {
        (void)soap::SerializeRequest(*request);
      });
    }
    if (response.ok()) {
      t->encode_resp_us += timed("replay.soap.serialize_response", [&] {
        (void)soap::SerializeResponse(*response);
      });
    }
  }
  tracer->Close(root);
}

/// Span-derived per-layer figures: p0 self time, HTTP post and overhead.
struct SpanTotals {
  int64_t ops = 0;
  int64_t op_us = 0;
  int64_t depth0_us = 0;
  int64_t http_msgs = 0;
  int64_t http_post_us = 0;
  int64_t http_handle_us = 0;
  bool consistent = true;  ///< every op's depth-0 spans fit inside it
};

SpanTotals SumSpans(const std::vector<Span>& spans) {
  SpanTotals t;
  std::vector<int64_t> depth0(spans.size(), 0);
  std::vector<int64_t> child_handle(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(s.parent)];
    if (parent.name == "op" &&
        (s.name == "http.post" || s.name == "server.handle")) {
      depth0[static_cast<size_t>(s.parent)] += s.dur_us;
      if (s.start_us < parent.start_us ||
          s.start_us + s.dur_us > parent.start_us + parent.dur_us) {
        t.consistent = false;
      }
    }
    if (parent.name == "http.post" && s.name == "server.handle") {
      child_handle[static_cast<size_t>(s.parent)] += s.dur_us;
    }
  }
  for (const Span& s : spans) {
    if (s.name == "op") {
      ++t.ops;
      t.op_us += s.dur_us;
      t.depth0_us += depth0[static_cast<size_t>(s.id)];
      if (depth0[static_cast<size_t>(s.id)] > s.dur_us) t.consistent = false;
    } else if (s.name == "http.post") {
      ++t.http_msgs;
      t.http_post_us += s.dur_us;
      t.http_handle_us += child_handle[static_cast<size_t>(s.id)];
    }
  }
  return t;
}

/// One measured interval: its midpoint and wall time, in steady-clock ns.
struct Timed {
  int64_t mid_ns = 0;
  int64_t wall_ns = 0;
};

/// Wall times in microseconds, as measured.
std::vector<int64_t> RawMicros(const std::vector<Timed>& v) {
  std::vector<int64_t> out;
  out.reserve(v.size());
  for (const Timed& t : v) out.push_back(t.wall_ns / 1000);
  return out;
}

/// Wall times in microseconds at the nominal host speed.
std::vector<int64_t> NominalMicros(const ReferenceClock& ref,
                                   const std::vector<Timed>& v) {
  std::vector<int64_t> out;
  out.reserve(v.size());
  for (const Timed& t : v) {
    out.push_back(static_cast<int64_t>(std::llround(
        static_cast<double>(t.wall_ns) * ref.Factor(t.mid_ns) / 1000.0)));
  }
  return out;
}

int64_t Sum(const std::vector<int64_t>& v) {
  int64_t s = 0;
  for (int64_t x : v) s += x;
  return s;
}

/// Confines the calling thread, and every thread it starts later, to the
/// CPU it runs on now.
Status PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  cpu_set_t one;
  CPU_ZERO(&one);
  if (cpu >= 0) CPU_SET(cpu, &one);
  if (cpu < 0 || sched_setaffinity(0, sizeof(one), &one) != 0) {
    return Status::Internal("cannot pin the benchmark to one CPU");
  }
  return Status::OK();
}

StatusOr<RunResult> Run(const Args& args, WorkloadKind kind) {
  WorkloadOptions options;
  options.kind = kind;
  options.seed = args.seed;
  options.http = args.http;
  options.fault_every = args.sabotage == "message" ? 5 : 0;
  Workload workload(options);

  std::unique_ptr<Tracer> tracer;
  if (args.trace) tracer = std::make_unique<Tracer>();

  // Co-tenants on a shared host change the speed of each vCPU by up to 2x,
  // for seconds to minutes at a time. Every timing is therefore also scaled
  // to the nominal host speed by the reference kernel, which runs on this
  // thread between the ops (for kReferenceShare of their time) and around
  // each set-up. On semijoin and ship every op runs on this thread. point_mix
  // ops also run on the HTTP server threads, which work strictly in turn
  // with this one (closed loop, serial dispatch); the process is confined to
  // the CPU it starts on, so they share the kernel's CPU too.
  constexpr double kReferenceShare = 0.15;
  constexpr int kReferenceAroundSetup = 5;
  if (kind == WorkloadKind::kPointMix && args.http) {
    XRPC_RETURN_IF_ERROR(PinToCurrentCpu());
  }
  ReferenceClock ref;
  int64_t busy_ns = 0;

  RunResult out;
  std::vector<Timed> setups;
  std::vector<Timed> update_t;
  std::vector<Timed> traced_t;   // traced run: traced primary ops
  std::vector<Timed> first_half, second_half;
  int64_t updates = 0, committed = 0, commit_retries = 0, in_doubt = 0;
  int64_t fell_back = 0, wire_bytes = 0, retries = 0, failures = 0;
  int64_t route_misses = 0, dials = 0, pool_hits = 0;
  int64_t shred_growth = 0, shred_clears = 0;
  int64_t modeled_wire_us = 0, cpu_us = 0, op_wall_us = 0;
  LayerTotals layers;

  // The timed phase is split into segments, each on a fresh deployment of
  // its own data set: set-up is measured once per segment, and latencies
  // are pooled over several data sets and deployments instead of one.
  struct Segment {
    std::vector<Timed> primary;  // reads (point_mix) or every op
    std::vector<Timed> all;      // every op
    int64_t ok_ops = 0;
    int64_t start_ns = 0, end_ns = 0;
  };
  std::vector<Segment> done;
  const int segments = std::max(1, args.setups);
  const int64_t segment_us =
      static_cast<int64_t>(args.seconds * 1e6) / segments;
  int64_t i = 0;
  int64_t oracle_us = 0;
  for (int segment = 0; segment < segments; ++segment) {
    workload.UseDataset(segment);
    const int64_t oracle_start = NowMicros();
    XRPC_RETURN_IF_ERROR(workload.BuildOracle());
    oracle_us += NowMicros() - oracle_start;
    // Freeing the previous deployment (tens of ms of unmapping on ship, and
    // noisy) is not part of the next set-up.
    workload.Teardown();
    for (int k = 0; k < kReferenceAroundSetup; ++k) ref.Sample();
    const int64_t setup_start = ReferenceClock::Now();
    XRPC_RETURN_IF_ERROR(workload.Setup(tracer.get()));
    const int64_t setup_ns = ReferenceClock::Now() - setup_start;
    setups.push_back({setup_start + setup_ns / 2, setup_ns});
    for (int k = 0; k < kReferenceAroundSetup; ++k) ref.Sample();

    core::PeerNetwork& net = workload.network();
    net::SimulatedNetwork& sim = net.network();
    net::RpcMetrics* hm = workload.http_metrics();
    const int64_t bytes0 = sim.bytes_sent() + sim.bytes_received();
    const int64_t retries0 = net.metrics().retries();
    const int64_t failures0 = net.metrics().failures();
    const int64_t misses0 = net.metrics().route_misses();
    const int64_t dials0 = hm ? hm->conn_dials() : 0;
    const int64_t hits0 = hm ? hm->conn_reuse_hits() : 0;
    // p0's shred cache keeps every shredded result tree it receives, so on
    // ship it grows by about 2000 entries (~16 MB) per op. It is emptied
    // outside the timed windows whenever it passes kShredCacheLimit
    // entries, which bounds the run's memory; the growth is reported.
    constexpr size_t kShredCacheLimit = 16384;
    shred::ShredCache& shreds = workload.p0()->relational_engine()->shred_cache();
    Segment seg;

    seg.start_ns = ReferenceClock::Now();
    const int64_t max_ops = args.max_ops * (segment + 1) / segments;
    for (;; ++i) {
      const int64_t elapsed_ns = ReferenceClock::Now() - seg.start_ns;
      if (args.max_ops > 0 ? i >= max_ops : elapsed_ns >= segment_us * 1000) {
        break;
      }
      const Op op = workload.NextOp();
      const bool traced = tracer != nullptr && i % 2 == 0;
      int64_t span = -1;
      if (tracer) {
        tracer->set_op(i);
        tracer->set_enabled(traced);
        if (traced) span = tracer->Open("op", "p0", "");
      }
      const size_t shreds_before = shreds.size();
      const int64_t cpu_start = CpuMicros();
      const int64_t start = ReferenceClock::Now();
      StatusOr<core::ExecutionReport> report = net.Execute("p0", op.text);
      const int64_t wall_ns = ReferenceClock::Now() - start;
      const Timed timed{start + wall_ns / 2, wall_ns};
      cpu_us += CpuMicros() - cpu_start;
      op_wall_us += wall_ns / 1000;
      busy_ns += wall_ns;
      if (tracer) {
        if (traced) tracer->Close(span);
        tracer->set_enabled(false);
      }

      shred_growth += static_cast<int64_t>(shreds.size()) -
                      static_cast<int64_t>(shreds_before);
      if (shreds.size() > kShredCacheLimit) {
        shreds.Clear();
        ++shred_clears;
      }

      ++out.attempted;
      bool ok = report.ok();
      std::string answer = "error";
      if (ok) {
        modeled_wire_us += report->network_micros;
        if (!report->used_relational) ++fell_back;
        if (op.update) {
          commit_retries += report->commit_retries;
          in_doubt += static_cast<int64_t>(report->in_doubt.size());
          ok = report->committed;
          if (ok) ++committed;
        }
        if (args.sabotage == "answer" && !report->result.empty()) {
          report->result.pop_back();
        }
        answer = fuzz::NormalizeSequence(report->result);
        ok = ok && workload.CheckAnswer(op, answer);
        if (ok) workload.RecordCommit(op);
      }
      Digest(&out.answer_digest, answer);
      if (!ok) {
        ++out.failed;
      } else {
        ++seg.ok_ops;
      }
      seg.all.push_back(timed);
      if (op.update) {
        ++updates;
        if (!traced) update_t.push_back(timed);
      } else if (traced) {
        traced_t.push_back(timed);
      } else {
        seg.primary.push_back(timed);
      }
      if (traced) {
        ++layers.ops;
        if (op.update) ++layers.updates;
        Replay(tracer.get(), op, &layers);
      } else if (tracer) {
        (void)tracer->TakeCaptures();
      }
      ref.KeepUp(busy_ns, kReferenceShare);
    }
    seg.end_ns = ReferenceClock::Now();

    Status final_state = workload.FinalCheck();
    if (!final_state.ok() && out.final_check.empty()) {
      out.final_check = final_state.ToString();
    }
    wire_bytes += sim.bytes_sent() + sim.bytes_received() - bytes0;
    retries += net.metrics().retries() - retries0;
    failures += net.metrics().failures() - failures0;
    route_misses += net.metrics().route_misses() - misses0;
    dials += hm ? hm->conn_dials() - dials0 : 0;
    pool_hits += hm ? hm->conn_reuse_hits() - hits0 : 0;
    const auto mid =
        seg.primary.begin() + static_cast<long>(seg.primary.size() / 2);
    first_half.insert(first_half.end(), seg.primary.begin(), mid);
    second_half.insert(second_half.end(), mid, seg.primary.end());
    done.push_back(std::move(seg));
  }
  for (int k = 0; k < kReferenceAroundSetup; ++k) ref.Sample();

  // Pooled over every segment, as measured and at the nominal host speed.
  std::vector<Timed> primary_t, all_t;
  int64_t ok_ops = 0;
  std::string segment_p50s, segment_refs;
  for (const Segment& seg : done) {
    primary_t.insert(primary_t.end(), seg.primary.begin(), seg.primary.end());
    all_t.insert(all_t.end(), seg.all.begin(), seg.all.end());
    ok_ops += seg.ok_ops;
    segment_p50s += " " + Number(Median(RawMicros(seg.primary)) / 1000.0);
    segment_refs +=
        " " + Number(ref.MedianNanos(seg.start_ns, seg.end_ns) / 1e6);
  }
  std::printf("segment raw p50_ms:%s\n", segment_p50s.c_str());
  std::printf("segment reference_ms:%s\n", segment_refs.c_str());
  const std::vector<int64_t> raw_us = RawMicros(primary_t);
  const std::vector<int64_t> nominal_us = NominalMicros(ref, primary_t);
  const std::vector<int64_t> update_us = NominalMicros(ref, update_t);
  out.correct = out.failed == 0 && out.final_check.empty();

  const double ops = static_cast<double>(out.attempted);
  const double wire_kib = static_cast<double>(wire_bytes) / 1024.0;
  const double p50_first = Median(NominalMicros(ref, first_half));
  const double p50_second = Median(NominalMicros(ref, second_half));
  const double drift = Ratio(std::fabs(p50_second - p50_first), p50_first);
  out.drift = drift;

  auto ms = [](double us) { return us / 1000.0; };
  out.extra = {
      {"fail_frac", Ratio(static_cast<double>(out.failed), ops), "ratio"},
      {"p99_ms", ms(Percentile(nominal_us, 99)), "ms"},
      {"update_p50_ms", ms(Median(update_us)), "ms"},
      {"update_p99_ms", ms(Percentile(update_us, 99)), "ms"},
      {"raw_setup_s", Median(RawMicros(setups)) / 1e6, "s"},
      {"raw_qps",
       Ratio(static_cast<double>(ok_ops),
             static_cast<double>(Sum(RawMicros(all_t)))) * 1e6, "1/s"},
      {"raw_p50_ms", ms(Median(raw_us)), "ms"},
      {"raw_p90_ms", ms(Percentile(raw_us, 90)), "ms"},
      {"raw_update_p50_ms", ms(Median(RawMicros(update_t))), "ms"},
      {"reference_ms", ref.MedianNanos() / 1e6, "ms"},
      {"reference_samples", static_cast<double>(ref.samples()), "count"},
      {"p50_first_half_ms", ms(p50_first), "ms"},
      {"p50_second_half_ms", ms(p50_second), "ms"},
      {"p50_drift_frac", drift, "ratio"},
      {"stationary", drift <= args.drift_bound ? 1.0 : 0.0, "bool"},
      {"oracle_s", static_cast<double>(oracle_us) / 1e6, "s"},
      {"shred_cache_clears", static_cast<double>(shred_clears), "count"},
      {"cpu_util", Ratio(static_cast<double>(cpu_us),
                         static_cast<double>(op_wall_us)), "ratio"},
  };

  if (!args.trace) {
    out.metrics = {
        {"setup_s", Median(NominalMicros(ref, setups)) / 1e6, "s"},
        {"qps",
         Ratio(static_cast<double>(ok_ops),
               static_cast<double>(Sum(NominalMicros(ref, all_t)))) * 1e6,
         "1/s"},
        {"p50_ms", ms(Median(nominal_us)), "ms"},
        {"p90_ms", ms(Percentile(nominal_us, 90)), "ms"},
        {"wire_kb_per_query", Ratio(wire_kib, ops), "KiB"},
        {"rss_mb", PeakRssMiB(), "MiB"},
    };
    return out;
  }

  const std::vector<Span> spans = tracer->spans();
  const SpanTotals st = SumSpans(spans);
  out.span_check_ok = st.consistent;
  const double lops = static_cast<double>(layers.ops);
  const double lupdates = static_cast<double>(layers.updates);
  const double exec_us = static_cast<double>(
      layers.handle_us - layers.decode_req_us - layers.encode_resp_us);
  auto per_op = [&](int64_t v) { return Ratio(static_cast<double>(v), lops); };
  out.metrics = {
      {"xquery.parse_us", per_op(layers.parse_us), "us"},
      {"compiler.p0_self_ms",
       ms(Ratio(static_cast<double>(st.op_us - st.depth0_us),
                static_cast<double>(st.ops))), "ms"},
      {"compiler.fallback_frac", Ratio(static_cast<double>(fell_back), ops),
       "ratio"},
      {"core.posts_per_op", per_op(layers.xrpc_msgs), "count"},
      {"core.route_misses", static_cast<double>(route_misses), "count"},
      {"soap.req_bytes_per_op", per_op(layers.req_bytes), "B"},
      {"soap.resp_bytes_per_op", per_op(layers.resp_bytes), "B"},
      {"soap.decode_req_us_per_op", per_op(layers.decode_req_us), "us"},
      {"soap.decode_resp_us_per_op", per_op(layers.decode_resp_us), "us"},
      {"soap.encode_req_us_per_op", per_op(layers.encode_req_us), "us"},
      {"soap.encode_resp_us_per_op", per_op(layers.encode_resp_us), "us"},
      {"soap.decode_resp_mb_s",
       Ratio(static_cast<double>(layers.resp_bytes) / 1e6,
             static_cast<double>(layers.decode_resp_us) / 1e6), "MB/s"},
      {"server.handle_ms_per_op", ms(per_op(layers.handle_us)), "ms"},
      {"server.calls_per_request",
       Ratio(static_cast<double>(layers.calls),
             static_cast<double>(layers.xrpc_msgs)), "count"},
      {"server.exec_us_per_call",
       Ratio(exec_us, static_cast<double>(layers.calls)), "us"},
      {"wsat.msgs_per_update",
       Ratio(static_cast<double>(layers.wsat_msgs), lupdates), "count"},
      {"wsat.handle_us_per_update",
       Ratio(static_cast<double>(layers.wsat_handle_us), lupdates), "us"},
      {"txn.commit_frac",
       Ratio(static_cast<double>(committed), static_cast<double>(updates)),
       "ratio"},
      {"txn.commit_retries", static_cast<double>(commit_retries), "count"},
      {"txn.in_doubt", static_cast<double>(in_doubt), "count"},
      {"txn.update_p50_ms", ms(Median(update_us)), "ms"},
      {"http.post_us_per_msg",
       Ratio(static_cast<double>(st.http_post_us),
             static_cast<double>(st.http_msgs)), "us"},
      {"http.overhead_us_per_msg",
       Ratio(static_cast<double>(st.http_post_us - st.http_handle_us),
             static_cast<double>(st.http_msgs)), "us"},
      {"http.dials", static_cast<double>(dials), "count"},
      {"http.pool_hit_frac",
       Ratio(static_cast<double>(pool_hits),
             static_cast<double>(pool_hits + dials)), "ratio"},
      {"net.modeled_wire_ms_per_op",
       ms(Ratio(static_cast<double>(modeled_wire_us), ops)), "ms"},
      {"net.retries", static_cast<double>(retries), "count"},
      {"net.failures", static_cast<double>(failures), "count"},
      {"shred.p0_cached_docs_per_op",
       Ratio(static_cast<double>(shred_growth), ops), "count"},
      {"proc.cpu_util", Ratio(static_cast<double>(cpu_us),
                              static_cast<double>(op_wall_us)), "ratio"},
      {"proc.cpu_ms_per_op", ms(Ratio(static_cast<double>(cpu_us), ops)),
       "ms"},
      {"trace.overhead_ms",
       ms(Median(NominalMicros(ref, traced_t)) - Median(nominal_us)), "ms"},
      {"trace.spans_per_op",
       Ratio(static_cast<double>(spans.size()), lops), "count"},
  };

  std::filesystem::create_directories(args.out_dir);
  const std::string trace_path = args.out_dir + "/" + WorkloadName(kind) +
                                 "-seed" + std::to_string(args.seed) +
                                 ".trace.json";
  XRPC_RETURN_IF_ERROR(tracer->WriteChromeJson(trace_path));
  std::printf("spans: %zu written to %s\n", spans.size(), trace_path.c_str());
  std::printf(
      "span check: %lld traced ops; depth-0 posts %.3f ms + p0 self %.3f ms "
      "= op wall %.3f ms per op; every post inside its op: %s\n",
      static_cast<long long>(st.ops),
      ms(Ratio(static_cast<double>(st.depth0_us), static_cast<double>(st.ops))),
      ms(Ratio(static_cast<double>(st.op_us - st.depth0_us),
               static_cast<double>(st.ops))),
      ms(Ratio(static_cast<double>(st.op_us), static_cast<double>(st.ops))),
      st.consistent ? "yes" : "NO");
  return out;
}

void PrintReport(const Args& args, WorkloadKind kind, const RunResult& r) {
  const std::string git = bench::GitRev();
  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("workload=%s seed=%llu trace=%d transport=%s nproc=%u "
              "build=%s git=%s\n",
              WorkloadName(kind), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0,
              kind == WorkloadKind::kPointMix && args.http ? "http" : "sim",
              nproc, XRPC_PERFBENCH_BUILD_TYPE, git.c_str());
  for (const std::vector<Metric>* list : {&r.metrics, &r.extra}) {
    for (const Metric& m : *list) {
      std::printf("  %-28s %14.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  if (r.drift > args.drift_bound) {
    std::printf("WARNING: not stationary: first/second-half p50 differ by "
                "%.1f%% (bound %.1f%%)\n",
                r.drift * 100, args.drift_bound * 100);
  }
  if (!r.final_check.empty()) {
    std::printf("final state check FAILED: %s\n", r.final_check.c_str());
  }

  // Provenance record in the shared bench_json.h schema.
  bench::BenchJson json("perfbench");
  json.set_git_rev(git);
  json.config()
      .Set("workload", WorkloadName(kind))
      .Set("seed", static_cast<int64_t>(args.seed))
      .Set("trace", args.trace)
      .Set("seconds", args.seconds)
      .Set("setups", args.setups)
      .Set("transport",
           kind == WorkloadKind::kPointMix && args.http ? "http" : "sim")
      .Set("nproc", static_cast<int64_t>(nproc))
      .Set("build_type", XRPC_PERFBENCH_BUILD_TYPE);
  bench::JsonObject& row = json.AddRow();
  row.Set("correct", r.correct)
      .Set("attempted", r.attempted)
      .Set("failed", r.failed);
  for (const std::vector<Metric>* list : {&r.metrics, &r.extra}) {
    for (const Metric& m : *list) row.Set(m.name, m.value);
  }
  std::filesystem::create_directories(args.out_dir);
  const std::string path = args.out_dir + "/" + WorkloadName(kind) + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  if (!json.WriteFile(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }

  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

/// Non-vacuity self-test: sabotage must be caught, and the HTTP and
/// simulated transports must return identical answers.
int SelfTest() {
  int failures = 0;
  auto run = [](Args args) -> StatusOr<RunResult> {
    args.setups = 1;
    args.out_dir = ".bench_out/selftest";
    XRPC_ASSIGN_OR_RETURN(WorkloadKind kind, ParseWorkloadKind(args.workload));
    return Run(args, kind);
  };
  auto check = [&failures](const char* what, bool pass) {
    std::printf("%s: %s\n", pass ? "PASS" : "FAIL", what);
    if (!pass) ++failures;
  };

  Args base;
  base.workload = "point_mix";
  base.seed = 7;
  base.max_ops = 120;
  auto http = run(base);
  Args sim_args = base;
  sim_args.http = false;
  auto sim = run(sim_args);
  check("point_mix over HTTP answers every op correctly",
        http.ok() && http->correct && http->failed == 0);
  check("point_mix over the simulated transport answers correctly",
        sim.ok() && sim->correct && sim->failed == 0);
  check("HTTP and simulated point_mix return identical answers",
        http.ok() && sim.ok() && http->answer_digest == sim->answer_digest);

  Args faulted = base;
  faulted.max_ops = 40;
  faulted.sabotage = "message";
  auto message = run(faulted);
  check("a forwarder fault makes point_mix fail_frac non-zero",
        message.ok() && message->failed > 0 && !message->correct);

  for (const char* name : {"point_mix", "semijoin", "ship"}) {
    Args traced = base;
    traced.workload = name;
    traced.trace = true;
    traced.max_ops = std::string(name) == "point_mix" ? 40 : 4;
    auto r = run(traced);
    check((std::string("traced ") + name +
           " is correct and its spans nest inside their ops").c_str(),
          r.ok() && r->correct && r->span_check_ok);
    Args dropped = traced;
    dropped.trace = false;
    dropped.sabotage = "answer";
    auto s = run(dropped);
    check((std::string("a dropped answer item makes ") + name +
           " fail_frac non-zero").c_str(),
          s.ok() && s->failed > 0 && !s->correct);
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = value == "1";
      if (value != "0" && value != "1") return false;
    } else if (flag == "--drift-bound") {
      args->drift_bound = std::strtod(value.c_str(), &end);
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return true;
}

}  // namespace
}  // namespace xrpc::perfbench

int main(int argc, char** argv) {
  using namespace xrpc::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr, "perfbench: bad arguments (see main.cc header)\n");
    return 2;
  }
  if (args.selftest) return SelfTest();
  auto kind = ParseWorkloadKind(args.workload);
  if (!kind.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", kind.status().ToString().c_str());
    return 2;
  }
  auto result = Run(args, kind.value());
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  PrintReport(args, kind.value(), result.value());
  return 0;
}
