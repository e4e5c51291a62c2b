// The benchmark's three workloads: deployment, seeded op stream and answer
// oracle. See ../README.md for why each one exists.

#ifndef XRPC_PERFBENCH_WORKLOADS_H_
#define XRPC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/prng.h"
#include "base/statusor.h"
#include "core/peer_network.h"
#include "load/zipf.h"
#include "net/http.h"
#include "trace.h"
#include "xmark/xmark.h"

namespace xrpc::perfbench {

enum class WorkloadKind { kPointMix, kSemijoin, kShip };

StatusOr<WorkloadKind> ParseWorkloadKind(const std::string& name);
const char* WorkloadName(WorkloadKind kind);

/// One operation of the closed loop: the query text p0 receives, plus what
/// the benchmark needs to check its answer.
struct Op {
  std::string text;
  bool update = false;
  int key = 0;  ///< oracle entry of a read
  /// Updates: `value` is written into film number `film` (1-based) of the
  /// film document at shard peers `shard_a` and `shard_b`.
  int film = 0;
  int shard_a = 0;
  int shard_b = 0;
  std::string value;
};

struct WorkloadOptions {
  WorkloadKind kind = WorkloadKind::kPointMix;
  uint64_t seed = 1;
  /// point_mix only: shard peers listen on loopback HttpServers; false runs
  /// the same deployment on the simulated transport.
  bool http = true;
  /// Self-test sabotage: the HTTP forwarder answers every n-th message
  /// with a SOAP Fault (0 = off).
  int fault_every = 0;
};

class Workload {
 public:
  explicit Workload(WorkloadOptions options);
  ~Workload();

  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  /// Selects the generated data of later BuildOracle and Setup calls: data
  /// set `index` of this workload's seed.
  void UseDataset(int index);

  /// Computes the expected answer of every distinct read on an unsharded
  /// single-peer deployment of the same generated data.
  Status BuildOracle();

  /// Builds the deployment from scratch (data generation, peer load,
  /// module registration, server start) and warms it up so plan and shred
  /// caches are filled. With a tracer, every shard peer's service is
  /// wrapped in a TimingEndpoint. Replaces any earlier deployment.
  Status Setup(Tracer* tracer);
  void Teardown();

  /// Next op of the seeded stream (independent of setup and warm-up).
  Op NextOp();

  /// True when `normalized` (fuzz::NormalizeSequence of the result) equals
  /// the oracle's answer byte for byte.
  bool CheckAnswer(const Op& op, const std::string& normalized) const;

  /// Records a committed update for the final-state check.
  void RecordCommit(const Op& op);

  /// point_mix: every shard peer's film document equals the serial
  /// expectation (the last value committed for each of its films).
  Status FinalCheck() const;

  core::PeerNetwork& network() { return *net_; }
  core::Peer* p0() { return p0_; }
  /// Connection-pool events of the HTTP transport (null without HTTP).
  net::RpcMetrics* http_metrics() { return http_metrics_.get(); }

 private:
  xmark::XmarkConfig DataConfig() const;
  Status Execute(const Op& op);
  Status WarmUp();
  /// The single op of semijoin and ship.
  Op Q7Op() const;

  WorkloadOptions options_;
  uint64_t data_seed_;
  DeterministicPrng prng_;
  load::ZipfSampler keys_;
  int64_t next_update_ = 0;

  std::vector<std::string> oracle_;
  /// film_names_[shard][film - 1]: last committed value.
  std::vector<std::vector<std::string>> film_names_;

  // Destruction order matters: servers stop (joining their workers) before
  // the endpoints and peers they call into go away.
  std::unique_ptr<core::PeerNetwork> net_;
  std::vector<core::Peer*> shards_;
  core::Peer* p0_ = nullptr;
  std::vector<std::unique_ptr<TimingEndpoint>> timers_;
  std::unique_ptr<net::RpcMetrics> http_metrics_;
  std::unique_ptr<net::HttpTransport> http_;
  std::vector<std::unique_ptr<HttpForwarder>> forwarders_;
  std::vector<std::unique_ptr<net::HttpServer>> servers_;
};

}  // namespace xrpc::perfbench

#endif  // XRPC_PERFBENCH_WORKLOADS_H_
