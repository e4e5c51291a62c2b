#include "trace.h"

#include <chrono>
#include <cstdio>
#include <utility>

#include "bench/bench_json.h"
#include "soap/message.h"

namespace xrpc::perfbench {

namespace {

/// Open spans of the calling thread, innermost last.
thread_local std::vector<int64_t> open_spans;

}  // namespace

int64_t NowMicros() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int Tracer::ThreadNumberLocked() {
  auto [it, inserted] = threads_.emplace(std::this_thread::get_id(),
                                         static_cast<int>(threads_.size()));
  return it->second;
}

int64_t Tracer::Open(const std::string& name, const std::string& peer,
                     const std::string& path) {
  Span span;
  span.name = name;
  span.peer = peer;
  span.path = path;
  span.parent = open_spans.empty()
                    ? remote_parent_.load(std::memory_order_acquire)
                    : open_spans.back();
  span.op = op_.load(std::memory_order_acquire);
  {
    std::lock_guard<std::mutex> lock(mu_);
    span.id = static_cast<int64_t>(spans_.size());
    span.thread = ThreadNumberLocked();
    span.start_us = NowMicros();
    spans_.push_back(std::move(span));
    open_spans.push_back(spans_.back().id);
  }
  return open_spans.back();
}

int64_t Tracer::Close(int64_t id) {
  const int64_t end = NowMicros();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  Span& span = spans_[static_cast<size_t>(id)];
  span.dur_us = end - span.start_us;
  return span.dur_us;
}

void Tracer::AddCapture(Capture capture) {
  std::lock_guard<std::mutex> lock(mu_);
  captures_.push_back(std::move(capture));
}

std::vector<Capture> Tracer::TakeCaptures() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(captures_, {});
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

Status Tracer::WriteChromeJson(const std::string& path) const {
  std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + path);
  std::fputs("{\"traceEvents\":[\n", f);
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%lld,\"dur\":%lld,\"args\":{\"id\":%lld,"
                 "\"parent\":%lld,\"op\":%lld,\"peer\":\"%s\","
                 "\"path\":\"%s\"}}%s\n",
                 bench::JsonEscape(s.name).c_str(), s.thread,
                 static_cast<long long>(s.start_us),
                 static_cast<long long>(s.dur_us),
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.op),
                 bench::JsonEscape(s.peer).c_str(),
                 bench::JsonEscape(s.path).c_str(),
                 i + 1 < all.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  if (std::fclose(f) != 0) return Status::Internal("cannot write " + path);
  return Status::OK();
}

StatusOr<std::string> TimingEndpoint::Handle(const std::string& path,
                                             const std::string& body) {
  if (!tracer_->enabled()) return inner_->Handle(path, body);
  const int64_t span = tracer_->Open("server.handle", peer_, path);
  StatusOr<std::string> reply = inner_->Handle(path, body);
  const int64_t handle_us = tracer_->Close(span);
  // The copies are made after the span closed: capture is not handling.
  if (reply.ok()) {
    tracer_->AddCapture({peer_, path, body, reply.value(), handle_us});
  }
  return reply;
}

StatusOr<std::string> HttpForwarder::Handle(const std::string& path,
                                            const std::string& body) {
  if (fault_every_ > 0 && ++messages_ % fault_every_ == 0) {
    return soap::SerializeFault({"env:Receiver", "sabotaged message"});
  }
  const std::string uri = path.empty() ? base_uri_ : base_uri_ + "/" + path;
  const bool traced = tracer_ != nullptr && tracer_->enabled();
  int64_t span = -1;
  if (traced) {
    span = tracer_->Open("http.post", peer_, path);
    tracer_->set_remote_parent(span);
  }
  StatusOr<net::PostResult> posted = http_->Post(uri, body);
  if (traced) {
    tracer_->set_remote_parent(-1);
    tracer_->Close(span);
  }
  if (!posted.ok()) return posted.status();
  return std::move(posted).value().body;
}

}  // namespace xrpc::perfbench
