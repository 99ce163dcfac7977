#include "engine/thread_pool.h"

#include "common/logging.h"

namespace xk::engine {

ThreadPool::ThreadPool(int num_threads) {
  XK_CHECK_GT(num_threads, 0);
  queues_.resize(static_cast<size_t>(num_threads));
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    queues_[next_queue_].push_back(std::move(task));
    next_queue_ = (next_queue_ + 1) % queues_.size();
    ++pending_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return pending_ == 0 && active_ == 0; });
}

bool ThreadPool::PopTask(int worker, std::function<void()>* task) {
  std::deque<std::function<void()>>& own = queues_[static_cast<size_t>(worker)];
  if (!own.empty()) {
    *task = std::move(own.front());
    own.pop_front();
    return true;
  }
  // Steal from the back of a sibling's deque (oldest-first keeps the victim's
  // locality on its recent submissions).
  const size_t n = queues_.size();
  for (size_t d = 1; d < n; ++d) {
    std::deque<std::function<void()>>& victim =
        queues_[(static_cast<size_t>(worker) + d) % n];
    if (!victim.empty()) {
      *task = std::move(victim.back());
      victim.pop_back();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(int worker) {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return shutdown_ || pending_ > 0; });
      if (pending_ == 0) {
        if (shutdown_) return;
        continue;
      }
      XK_CHECK(PopTask(worker, &task));
      --pending_;
      ++active_;
    }
    task();
    {
      std::unique_lock<std::mutex> lock(mutex_);
      --active_;
      if (pending_ == 0 && active_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace xk::engine
