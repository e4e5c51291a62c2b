#ifndef XRPC_NET_THREAD_POOL_H_
#define XRPC_NET_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xrpc::net {

/// Bounded worker pool for parallel multi-destination dispatch: a fixed
/// number of threads drain a FIFO task queue.
/// Concurrency is bounded by the thread count (destinations beyond it
/// queue), so a 100-way fan-out cannot spawn 100 sockets'/threads' worth
/// of pressure at once.
///
/// Tasks must not Submit() back into the same pool and then block on the
/// result — with all workers blocked that way the queue never drains.
/// (Nested `execute at` calls made by server handlers use their own
/// RpcClient without a dispatch pool, so they never re-enter.)
///
/// A task that throws does NOT take the worker (or the process) down: the
/// exception is caught at the worker loop, counted, and retained for the
/// submitter to collect via TakeUncaughtException().
class ThreadPool {
 public:
  explicit ThreadPool(int threads);
  ~ThreadPool();  ///< drains the queue, then joins all workers

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` for execution on a worker thread. The caller owns
  /// completion tracking (promise/latch); Submit never blocks.
  void Submit(std::function<void()> fn);

  int size() const { return static_cast<int>(threads_.size()); }

  /// Highest number of tasks that were running simultaneously — the pool
  /// occupancy gauge reported by RpcMetrics.
  int64_t peak_in_flight() const;
  /// Tasks currently running.
  int64_t in_flight() const;

  /// Exceptions that escaped Submit() tasks (caught at the worker loop).
  int64_t uncaught_exceptions() const;
  /// Removes and returns the oldest retained task exception; null when
  /// none is pending.
  std::exception_ptr TakeUncaughtException();

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  bool stopping_ = false;
  int64_t in_flight_ = 0;
  int64_t peak_in_flight_ = 0;
  int64_t uncaught_exceptions_ = 0;
  std::deque<std::exception_ptr> pending_exceptions_;
};

}  // namespace xrpc::net

#endif  // XRPC_NET_THREAD_POOL_H_
