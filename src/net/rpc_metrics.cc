#include "net/rpc_metrics.h"

#include <algorithm>
#include <cstdio>

namespace xrpc::net {

namespace {

int BucketFor(int64_t micros) {
  int b = 0;
  int64_t bound = 1;
  while (b < LatencyHistogram::kBuckets - 1 && micros >= bound) {
    bound <<= 1;
    ++b;
  }
  return b;
}

size_t Index(Metric m) { return static_cast<size_t>(m); }
const MetricRow& RowOf(Metric m) { return kMetricRows[Index(m)]; }

/// Position of each histogram row's cell in Cells::hist.
constexpr std::array<size_t, kMetricCount> kHistogramSlot = [] {
  std::array<size_t, kMetricCount> slot{};
  size_t next = 0;
  for (size_t i = 0; i < kMetricCount; ++i) {
    if (kMetricRows[i].kind == MetricKind::kHistogram) slot[i] = next++;
  }
  return slot;
}();

}  // namespace

void LatencyHistogram::Record(int64_t micros) {
  if (micros < 0) micros = 0;
  counts_[static_cast<size_t>(BucketFor(micros))]++;
  if (samples_ == 0 || micros < min_micros_) min_micros_ = micros;
  if (micros > max_micros_) max_micros_ = micros;
  total_micros_ += micros;
  ++samples_;
}

int64_t LatencyHistogram::PercentileUpperBound(double p) const {
  if (samples_ == 0) return 0;
  int64_t rank = static_cast<int64_t>(p * static_cast<double>(samples_));
  if (rank >= samples_) rank = samples_ - 1;
  int64_t seen = 0;
  for (int b = 0; b < kBuckets - 1; ++b) {
    seen += counts_[static_cast<size_t>(b)];
    if (seen > rank) return int64_t{1} << b;
  }
  return max_micros_ + 1;  // the open-ended last bucket
}

std::string LatencyHistogram::Summary() const {
  if (samples_ == 0) return "n=0";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%lld mean=%lldus p50<%lldus p99<%lldus max=%lldus",
                static_cast<long long>(samples_),
                static_cast<long long>(total_micros_ / samples_),
                static_cast<long long>(PercentileUpperBound(0.50)),
                static_cast<long long>(PercentileUpperBound(0.99)),
                static_cast<long long>(max_micros_));
  return buf;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int b = 0; b < kBuckets; ++b) {
    counts_[static_cast<size_t>(b)] += other.counts_[static_cast<size_t>(b)];
  }
  if (other.samples_ > 0) {
    if (samples_ == 0 || other.min_micros_ < min_micros_) {
      min_micros_ = other.min_micros_;
    }
    max_micros_ = std::max(max_micros_, other.max_micros_);
  }
  samples_ += other.samples_;
  total_micros_ += other.total_micros_;
}

void RpcMetrics::Cells::Apply(Metric m, int64_t n) {
  int64_t& v = value[Index(m)];
  switch (RowOf(m).kind) {
    case MetricKind::kCounter: v += n; break;
    case MetricKind::kGauge: v = std::max<int64_t>(0, v + n); break;
    case MetricKind::kMax: v = std::max(v, n); break;
    case MetricKind::kHistogram:
      ++v;
      hist[kHistogramSlot[Index(m)]].Record(n);
  }
}

void RpcMetrics::Cells::Merge(const Cells& other, Metric m) {
  value[Index(m)] += other.value[Index(m)];
  if (RowOf(m).kind == MetricKind::kHistogram) {
    const size_t slot = kHistogramSlot[Index(m)];
    hist[slot].Merge(other.hist[slot]);
  }
}

const LatencyHistogram& RpcMetrics::Cells::Hist(Metric m) const {
  return hist[kHistogramSlot[Index(m)]];
}

std::string RpcMetrics::Cells::Render(Metric m) const {
  const MetricRow& row = RowOf(m);
  std::string out = " ";
  out += row.key;
  out += row.kind == MetricKind::kHistogram ? ": " : "=";
  out += row.kind == MetricKind::kHistogram
             ? Hist(m).Summary()
             : std::to_string(value[Index(m)]);
  return out;
}

RpcMetrics::Cells& RpcMetrics::CellsFor(Metric m, std::string_view label) {
  const MetricLabel kind = RowOf(m).label;
  if (kind == MetricLabel::kNone) return unlabelled_;
  LabelMap& cells = labelled_[static_cast<size_t>(kind)];
  auto it = cells.find(label);
  if (it == cells.end()) it = cells.emplace(std::string(label), Cells{}).first;
  return it->second;
}

RpcMetrics::Cells RpcMetrics::SelectLocked(std::string_view label,
                                            size_t first, size_t last) const {
  Cells out;
  for (size_t i = first; i < last; ++i) {
    const MetricRow& row = kMetricRows[i];
    if (row.label == MetricLabel::kNone) {
      out.Merge(unlabelled_, row.metric);
      continue;
    }
    const LabelMap& cells = labelled_[static_cast<size_t>(row.label)];
    if (label.empty()) {
      for (const auto& [name, c] : cells) out.Merge(c, row.metric);
    } else if (auto it = cells.find(label); it != cells.end()) {
      out.Merge(it->second, row.metric);
    }
  }
  return out;
}

void RpcMetrics::Add(Metric m, int64_t n, std::string_view label) {
  std::lock_guard<std::mutex> lock(mu_);
  CellsFor(m, label).Apply(m, n);
}

int64_t RpcMetrics::Get(Metric m, std::string_view label) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t i = Index(m);
  return SelectLocked(label, i, i + 1).value[i];
}

LatencyHistogram RpcMetrics::Histogram(Metric m,
                                       std::string_view label) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t i = Index(m);
  return SelectLocked(label, i, i + 1).Hist(m);
}

void RpcMetrics::RecordExchange(std::string_view peer, size_t bytes_sent,
                                size_t bytes_received, int64_t latency_micros,
                                bool ok) {
  std::lock_guard<std::mutex> lock(mu_);
  Cells& c = CellsFor(Metric::kRequests, peer);
  c.Apply(Metric::kRequests, 1);
  c.Apply(Metric::kFailures, ok ? 0 : 1);
  c.Apply(Metric::kBytesSent, static_cast<int64_t>(bytes_sent));
  c.Apply(Metric::kBytesReceived, static_cast<int64_t>(bytes_received));
  c.Apply(Metric::kLatency, latency_micros);
}

void RpcMetrics::RecordTenantQuery(std::string_view tenant,
                                   TenantOutcome outcome, int64_t latency_us,
                                   bool slo_met) {
  static constexpr Metric kOutcome[] = {
      Metric::kTenantOk, Metric::kTenantRejected,
      Metric::kTenantDeadlineExceeded, Metric::kTenantFailed};
  std::lock_guard<std::mutex> lock(mu_);
  Cells& c = CellsFor(Metric::kTenantOffered, tenant);
  c.Apply(Metric::kTenantOffered, 1);
  c.Apply(kOutcome[static_cast<size_t>(outcome)], 1);
  c.Apply(Metric::kTenantSloMet, slo_met ? 1 : 0);
  if (outcome != TenantOutcome::kRejected) {
    c.Apply(Metric::kTenantLatency, latency_us);
  }
}

std::string RpcMetrics::Report() const {
  std::lock_guard<std::mutex> lock(mu_);
  const Cells total = SelectLocked({});
  std::string out = "RPC metrics\n";
  for (size_t begin = 0, end = 0; begin < kMetricCount; begin = end) {
    const std::string group(kMetricRows[begin].group);
    MetricLabel label = MetricLabel::kNone;
    for (end = begin; end < kMetricCount && kMetricRows[end].group == group;
         ++end) {
      if (kMetricRows[end].label != MetricLabel::kNone) {
        label = kMetricRows[end].label;
      }
    }
    // Totals line, then the buckets of every non-empty histogram.
    out += "  " + group + ":";
    std::string buckets;
    for (size_t i = begin; i < end; ++i) {
      const MetricRow& row = kMetricRows[i];
      out += total.Render(row.metric);
      if (row.kind != MetricKind::kHistogram) continue;
      const LatencyHistogram& h = total.Hist(row.metric);
      if (h.samples() == 0) continue;
      buckets += "  " + group + " " + std::string(row.key) + " histogram (us):";
      for (int b = 0; b < LatencyHistogram::kBuckets; ++b) {
        if (h.bucket(b) == 0) continue;
        buckets += b + 1 < LatencyHistogram::kBuckets
                       ? " [<" + std::to_string(int64_t{1} << b) + "]="
                       : " [>=" + std::to_string(int64_t{1} << (b - 1)) + "]=";
        buckets += std::to_string(h.bucket(b));
      }
      buckets += "\n";
    }
    out += "\n" + buckets;
    // One line per label value, carrying the group's labelled rows.
    if (label == MetricLabel::kNone) continue;
    for (const auto& [name, c] : labelled_[static_cast<size_t>(label)]) {
      out += "  " + group + " " + name + ":";
      for (size_t i = begin; i < end; ++i) {
        const MetricRow& row = kMetricRows[i];
        if (row.label == label) out += c.Render(row.metric);
      }
      out += "\n";
    }
  }
  return out;
}

void RpcMetrics::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  unlabelled_ = Cells{};
  for (LabelMap& cells : labelled_) cells.clear();
}

}  // namespace xrpc::net
