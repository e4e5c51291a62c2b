// Host-speed reference: a fixed XML-like parse/index/serialize kernel that
// is timed between the benchmark's ops, so that every measured interval can
// be scaled to a nominal host speed.
//
// The kernel is the benchmark's own code and never calls into the library,
// so a change to the library moves the ops' times but not the kernel's. A
// co-tenant that slows this host's vCPUs (steal, shared caches, memory
// bandwidth) slows both alike, and the ratio cancels it. The kernel does no
// heap allocation after construction, so the state of the library's heap
// does not leak into it either.

#ifndef XRPC_PERFBENCH_REFERENCE_H_
#define XRPC_PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace xrpc::perfbench {

class ReferenceClock {
 public:
  /// Reference time of one kernel run on the nominal host, in nanoseconds:
  /// the speed every normalized figure is reported at. About what the
  /// kernel takes on an idle 4-vCPU Xeon VM.
  static constexpr double kNominalNanos = 400'000;

  ReferenceClock();

  /// Runs the kernel once and records its duration with its midpoint.
  void Sample();

  /// Runs the kernel until its recorded time reaches `share` of `busy_ns`
  /// (time spent in measured work so far), so samples stay spread over the
  /// run in proportion to the work they normalize.
  void KeepUp(int64_t busy_ns, double share);

  /// Nominal-speed factor for an interval with midpoint `mid_ns`: the
  /// nominal kernel time over the interquartile mean of the samples within
  /// kHalfWindowNs of it (at least the kMinWindow nearest). 1 when nothing
  /// has been sampled.
  double Factor(int64_t mid_ns) const;

  /// Median kernel time of the samples with midpoints in [from_ns, to_ns),
  /// in nanoseconds; 0 when there are none.
  double MedianNanos(int64_t from_ns = INT64_MIN,
                     int64_t to_ns = INT64_MAX) const;
  int64_t samples() const { return static_cast<int64_t>(samples_.size()); }

  /// Monotonic nanoseconds (steady_clock).
  static int64_t Now();

 private:
  static constexpr int64_t kHalfWindowNs = 250'000'000;
  static constexpr size_t kMinWindow = 9;

  struct KernelRun {
    int64_t mid_ns;
    int64_t dur_ns;
  };

  uint64_t RunKernel();

  struct Node {
    uint32_t name_begin, name_end;
    uint32_t text_begin, text_end;
    int32_t first_child = -1;
    int32_t next_sibling = -1;
  };

  std::string input_;
  std::vector<Node> nodes_;
  std::vector<int32_t> stack_;
  std::vector<int32_t> table_;  ///< open-addressing index by name+text hash
  std::string output_;
  std::vector<KernelRun> samples_;  ///< in time order
  int64_t sampled_ns_ = 0;
  uint64_t sink_ = 0;
};

}  // namespace xrpc::perfbench

#endif  // XRPC_PERFBENCH_REFERENCE_H_
