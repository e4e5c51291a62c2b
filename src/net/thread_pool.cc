#include "net/thread_pool.h"

#include <algorithm>

namespace xrpc::net {

ThreadPool::ThreadPool(int threads) {
  threads = std::max(1, threads);
  threads_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

int64_t ThreadPool::peak_in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_in_flight_;
}

int64_t ThreadPool::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_flight_;
}

int64_t ThreadPool::uncaught_exceptions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return uncaught_exceptions_;
}

std::exception_ptr ThreadPool::TakeUncaughtException() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_exceptions_.empty()) return nullptr;
  std::exception_ptr e = pending_exceptions_.front();
  pending_exceptions_.pop_front();
  return e;
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain remaining work even when stopping: destructor-submitted-before
      // tasks carry promises the submitter is waiting on.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
      peak_in_flight_ = std::max(peak_in_flight_, in_flight_);
    }
    // A throw out of task() would unwind the worker thread and terminate the
    // process (std::thread with an active exception); catch here, keep the
    // worker alive, and retain the exception for the submitter.
    std::exception_ptr thrown;
    try {
      task();
    } catch (...) {
      thrown = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (thrown) {
        ++uncaught_exceptions_;
        pending_exceptions_.push_back(std::move(thrown));
      }
    }
  }
}

}  // namespace xrpc::net
