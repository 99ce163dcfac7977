// Copyright (c) the XKeyword authors.
//
// Work-stealing thread pool. Two uses: the top-k executor's per-CN pool —
// "a thread is assigned to each CN starting from the smaller ones"
// (Section 6) — and the serving layer's worker pool. Tasks are submitted
// round-robin to per-worker deques; a worker drains its own deque FIFO and,
// when empty, steals from the back of a sibling's deque.

#ifndef XK_ENGINE_THREAD_POOL_H_
#define XK_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xk::engine {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task onto the next worker's deque (round-robin); idle workers
  /// steal it if its owner is busy.
  void Submit(std::function<void()> task);

  /// Blocks until every submitted task has finished.
  void Wait();

 private:
  void WorkerLoop(int worker);
  /// Pops the next task: own deque front first, then steal from the back of
  /// another worker's deque. Returns false if every deque is empty.
  bool PopTask(int worker, std::function<void()>* task);

  std::mutex mutex_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::vector<std::deque<std::function<void()>>> queues_;  // one per worker
  std::vector<std::thread> threads_;
  size_t next_queue_ = 0;  // round-robin submit cursor
  size_t pending_ = 0;     // tasks queued across all deques
  int active_ = 0;
  bool shutdown_ = false;
};

}  // namespace xk::engine

#endif  // XK_ENGINE_THREAD_POOL_H_
