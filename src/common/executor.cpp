#include "common/executor.h"

namespace rockfs::common {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = 1;
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::execute(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(fn));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> fn;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      fn = std::move(queue_.front());
      queue_.pop_front();
    }
    // Count before running: fn() may fulfil a future its submitter waits
    // on, and a count taken afterwards could lag what the submitter sees.
    executed_.fetch_add(1, std::memory_order_relaxed);
    fn();
  }
}

void parallel_for_index(Executor* exec, std::size_t count,
                        const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  if (exec == nullptr || exec->concurrency() <= 1 || count == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  struct Barrier {
    std::mutex mu;
    std::condition_variable cv;
    std::size_t pending;
    std::exception_ptr first_error;
  };
  auto bar = std::make_shared<Barrier>();
  bar->pending = count;
  for (std::size_t i = 0; i < count; ++i) {
    exec->execute([bar, i, &fn] {
      std::exception_ptr err;
      try {
        fn(i);
      } catch (...) {
        err = std::current_exception();
      }
      std::lock_guard<std::mutex> lk(bar->mu);
      if (err && !bar->first_error) bar->first_error = err;
      if (--bar->pending == 0) bar->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lk(bar->mu);
  bar->cv.wait(lk, [&bar] { return bar->pending == 0; });
  if (bar->first_error) std::rethrow_exception(bar->first_error);
}

}  // namespace rockfs::common
