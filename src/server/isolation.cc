#include "server/isolation.h"

#include <chrono>
#include <limits>

namespace xrpc::server {

namespace {

int64_t SteadyNowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

IsolationManager::IsolationManager(std::function<int64_t()> now_us)
    : now_us_(now_us ? std::move(now_us) : SteadyNowMicros) {}

StatusOr<QuerySession*> IsolationManager::GetSession(const soap::QueryId& id) {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = now_us_();
  auto it = sessions_.find(id.id);
  if (it != sessions_.end()) {
    QuerySession* s = it->second.get();
    // A prepared session holds a logged PUL the coordinator may still
    // commit; it must not fall to snapshot expiry (see ExpireSessions).
    if (now > s->deadline_us && !s->prepared) {
      expired_ids_.insert(id.id);
      auto& latest = latest_expired_timestamp_by_host_[s->id.host];
      latest = std::max(latest, s->id.timestamp);
      sessions_.erase(it);
      return Status::IsolationError("queryID expired: " + id.id);
    }
    return s;
  }
  if (expired_ids_.count(id.id) > 0 ||
      (latest_expired_timestamp_by_host_.count(id.host) > 0 &&
       id.timestamp <= latest_expired_timestamp_by_host_[id.host] &&
       id.timestamp != 0)) {
    return Status::IsolationError("request arrived after queryID expired: " +
                                  id.id);
  }
  auto session = std::make_unique<QuerySession>();
  session->id = id;
  // The decoder bounds timeout_sec so its micros fit; the sum saturates.
  const int64_t timeout_us = id.timeout_sec * 1'000'000;
  session->deadline_us = timeout_us > std::numeric_limits<int64_t>::max() - now
                             ? std::numeric_limits<int64_t>::max()
                             : now + timeout_us;
  QuerySession* raw = session.get();
  sessions_[id.id] = std::move(session);
  return raw;
}

StatusOr<QuerySession*> IsolationManager::FindSession(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::IsolationError("unknown queryID: " + id);
  }
  return it->second.get();
}

void IsolationManager::EndSession(const std::string& id) {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.erase(id);
}

void IsolationManager::ExpireSessions() {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t now = now_us_();
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now > it->second->deadline_us && !it->second->prepared) {
      expired_ids_.insert(it->first);
      auto& latest = latest_expired_timestamp_by_host_[it->second->id.host];
      latest = std::max(latest, it->second->id.timestamp);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

QuerySession* IsolationManager::RestoreSession(
    std::unique_ptr<QuerySession> session) {
  std::lock_guard<std::mutex> lock(mu_);
  QuerySession* raw = session.get();
  expired_ids_.erase(session->id.id);
  sessions_[session->id.id] = std::move(session);
  return raw;
}

void IsolationManager::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  sessions_.clear();
  expired_ids_.clear();
  latest_expired_timestamp_by_host_.clear();
}

size_t IsolationManager::active_sessions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return sessions_.size();
}

}  // namespace xrpc::server
