#include "reference.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string_view>

namespace xrpc::perfbench {

namespace {

constexpr int kRecords = 600;

uint64_t Fnv(std::string_view s, uint64_t h = 14695981039346656037ull) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// A fixed document of kRecords records, four text children each. It does
/// not depend on the workload seed: every run times the same kernel.
std::string MakeInput() {
  static constexpr const char* kWords[] = {
      "auction", "bidder", "closed", "person", "annotation", "item", "price",
      "seller", "buyer", "category", "region", "europe", "africa", "quantity",
      "interval", "description", "mailbox", "watch", "profile", "income"};
  uint64_t x = 88172645463325252ull;
  auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  auto words = [&](int n) {
    std::string s;
    for (int i = 0; i < n; ++i) {
      if (i > 0) s += ' ';
      s += kWords[next() % (sizeof(kWords) / sizeof(kWords[0]))];
    }
    return s;
  };
  std::string doc = "<site>";
  for (int r = 0; r < kRecords; ++r) {
    doc += "<record id=\"r" + std::to_string(r) + "\">";
    doc += "<name>" + words(2) + "</name>";
    doc += "<city>" + words(1) + "</city>";
    doc += "<price>" + std::to_string(next() % 100000) + "</price>";
    doc += "<note>" + words(1 + static_cast<int>(next() % 6)) + "</note>";
    doc += "</record>";
  }
  return doc + "</site>";
}

}  // namespace

ReferenceClock::ReferenceClock() : input_(MakeInput()) {
  // Size every buffer once; RunKernel only reuses them.
  nodes_.reserve(input_.size() / 8);
  stack_.reserve(64);
  size_t table = 1;
  while (table < nodes_.capacity() * 2) table <<= 1;
  table_.assign(table, -1);
  output_.reserve(input_.size() * 2);
  samples_.reserve(1 << 16);
  (void)RunKernel();  // fault the buffers in
}

int64_t ReferenceClock::Now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t ReferenceClock::RunKernel() {
  // Parse: one node per element, text ranges into input_, first-child /
  // next-sibling links.
  nodes_.clear();
  stack_.clear();
  std::vector<int32_t>& open = stack_;
  const char* s = input_.data();
  const uint32_t n = static_cast<uint32_t>(input_.size());
  int32_t last_child = -1;  // of the innermost open element
  for (uint32_t i = 0; i < n;) {
    if (s[i] != '<') {
      const uint32_t begin = i;
      while (i < n && s[i] != '<') ++i;
      if (!open.empty()) {
        nodes_[static_cast<size_t>(open.back())].text_begin = begin;
        nodes_[static_cast<size_t>(open.back())].text_end = i;
      }
      continue;
    }
    if (s[i + 1] == '/') {
      while (s[i] != '>') ++i;
      ++i;
      last_child = open.back();
      open.pop_back();
      continue;
    }
    Node node{};
    node.name_begin = ++i;
    while (s[i] != '>' && s[i] != ' ') ++i;
    node.name_end = i;
    while (s[i] != '>') ++i;
    ++i;
    node.text_begin = node.text_end = i;
    const int32_t id = static_cast<int32_t>(nodes_.size());
    nodes_.push_back(node);
    if (!open.empty()) {
      Node& parent = nodes_[static_cast<size_t>(open.back())];
      if (parent.first_child < 0 || last_child < 0) {
        parent.first_child = id;
      } else {
        nodes_[static_cast<size_t>(last_child)].next_sibling = id;
      }
    }
    open.push_back(id);
    last_child = -1;
  }

  // Index every node by name and text, then look each one up again.
  auto key = [&](const Node& node) {
    return Fnv(std::string_view(s + node.text_begin,
                                node.text_end - node.text_begin),
               Fnv(std::string_view(s + node.name_begin,
                                    node.name_end - node.name_begin)));
  };
  std::fill(table_.begin(), table_.end(), -1);
  const size_t mask = table_.size() - 1;
  for (size_t k = 0; k < nodes_.size(); ++k) {
    size_t slot = key(nodes_[k]) & mask;
    while (table_[slot] >= 0) slot = (slot + 1) & mask;
    table_[slot] = static_cast<int32_t>(k);
  }
  uint64_t matches = 0;
  for (const Node& node : nodes_) {
    for (size_t slot = key(node) & mask; table_[slot] >= 0;
         slot = (slot + 1) & mask) {
      const Node& other = nodes_[static_cast<size_t>(table_[slot])];
      const uint32_t len = node.text_end - node.text_begin;
      if (other.text_end - other.text_begin == len &&
          std::memcmp(s + other.text_begin, s + node.text_begin, len) == 0) {
        ++matches;
        break;
      }
    }
  }

  // Serialize depth first.
  output_.clear();
  open.clear();
  if (!nodes_.empty()) open.push_back(0);
  while (!open.empty()) {
    const int32_t id = open.back();
    if (id < 0) {  // close tag of element ~id
      const Node& node = nodes_[static_cast<size_t>(~id)];
      open.pop_back();
      output_ += "</";
      output_.append(s + node.name_begin, node.name_end - node.name_begin);
      output_ += '>';
      if (node.next_sibling >= 0) open.push_back(node.next_sibling);
      continue;
    }
    const Node& node = nodes_[static_cast<size_t>(id)];
    open.back() = ~id;
    output_ += '<';
    output_.append(s + node.name_begin, node.name_end - node.name_begin);
    output_ += '>';
    output_.append(s + node.text_begin, node.text_end - node.text_begin);
    if (node.first_child >= 0) open.push_back(node.first_child);
  }
  return Fnv(output_) ^ matches;
}

void ReferenceClock::Sample() {
  const int64_t start = Now();
  sink_ += RunKernel();
  const int64_t dur = Now() - start;
  samples_.push_back({start + dur / 2, dur});
  sampled_ns_ += dur;
}

void ReferenceClock::KeepUp(int64_t busy_ns, double share) {
  while (static_cast<double>(sampled_ns_) <
         share * static_cast<double>(busy_ns)) {
    Sample();
  }
}

double ReferenceClock::Factor(int64_t mid_ns) const {
  if (samples_.empty()) return 1;
  auto at = [&](int64_t t) {
    auto before = [](const KernelRun& run, int64_t x) {
      return run.mid_ns < x;
    };
    return static_cast<size_t>(
        std::lower_bound(samples_.begin(), samples_.end(), t, before) -
        samples_.begin());
  };
  size_t lo = at(mid_ns - kHalfWindowNs);
  size_t hi = at(mid_ns + kHalfWindowNs);
  // Too few samples in the time window: widen to the nearest ones.
  while (hi - lo < kMinWindow && (lo > 0 || hi < samples_.size())) {
    if (lo == 0) {
      ++hi;
    } else if (hi == samples_.size() || mid_ns - samples_[lo - 1].mid_ns <=
                                            samples_[hi].mid_ns - mid_ns) {
      --lo;
    } else {
      ++hi;
    }
  }
  std::vector<int64_t> durs;
  for (size_t k = lo; k < hi; ++k) durs.push_back(samples_[k].dur_ns);
  std::sort(durs.begin(), durs.end());
  // Interquartile mean: robust to outliers, and smooth when the samples
  // fall into two modes.
  const size_t q1 = durs.size() / 4;
  const size_t q3 = durs.size() - q1;
  double sum = 0;
  for (size_t k = q1; k < q3; ++k) sum += static_cast<double>(durs[k]);
  return kNominalNanos * static_cast<double>(q3 - q1) / sum;
}

double ReferenceClock::MedianNanos(int64_t from_ns, int64_t to_ns) const {
  std::vector<int64_t> durs;
  for (const KernelRun& run : samples_) {
    if (run.mid_ns >= from_ns && run.mid_ns < to_ns) durs.push_back(run.dur_ns);
  }
  if (durs.empty()) return 0;
  std::nth_element(durs.begin(), durs.begin() + durs.size() / 2, durs.end());
  return static_cast<double>(durs[durs.size() / 2]);
}

}  // namespace xrpc::perfbench
