#include "net/connection_pool.h"

#include <unistd.h>

namespace xrpc::net {

namespace {

bool Expired(const std::chrono::steady_clock::time_point& released_at,
             int64_t idle_timeout_millis,
             const std::chrono::steady_clock::time_point& now) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(now -
                                                               released_at)
             .count() >= idle_timeout_millis;
}

}  // namespace

int HttpConnectionPool::Acquire(const std::string& peer_key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto now = std::chrono::steady_clock::now();
  auto it = idle_.find(peer_key);
  if (it != idle_.end()) {
    std::deque<IdleConn>& conns = it->second;
    while (!conns.empty()) {
      IdleConn conn = conns.back();  // LIFO: most recently released
      conns.pop_back();
      if (Expired(conn.released_at, options_.idle_timeout_millis, now)) {
        ::close(conn.fd);
        ++expired_;
        if (metrics_) metrics_->Add(Metric::kConnExpired);
        continue;
      }
      ++hits_;
      if (metrics_) metrics_->Add(Metric::kConnReuseHits);
      return conn.fd;
    }
  }
  ++misses_;
  if (metrics_) metrics_->Add(Metric::kConnDials);
  return -1;
}

void HttpConnectionPool::Release(const std::string& peer_key, int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  std::deque<IdleConn>& conns = idle_[peer_key];
  if (conns.size() >= options_.max_idle_per_peer) {
    ::close(fd);
    return;
  }
  conns.push_back({fd, std::chrono::steady_clock::now()});
  if (metrics_) {
    metrics_->Add(Metric::kPoolMaxIdle,
                  static_cast<int64_t>(IdleCountLocked()));
  }
}

void HttpConnectionPool::CloseAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [peer, conns] : idle_) {
    for (const IdleConn& conn : conns) ::close(conn.fd);
    conns.clear();
  }
  idle_.clear();
}

int64_t HttpConnectionPool::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

int64_t HttpConnectionPool::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

int64_t HttpConnectionPool::expired() const {
  std::lock_guard<std::mutex> lock(mu_);
  return expired_;
}

size_t HttpConnectionPool::idle_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return IdleCountLocked();
}

size_t HttpConnectionPool::IdleCountLocked() const {
  size_t total = 0;
  for (const auto& [peer, conns] : idle_) total += conns.size();
  return total;
}

}  // namespace xrpc::net
