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
    fn();
  }
}

void parallel_for_index(Executor* exec, std::size_t count,
                        const std::function<void(std::size_t)>& fn) {
  InlineExecutor inline_exec;
  Executor& where =
      exec != nullptr && exec->concurrency() > 1 && count > 1 ? *exec : inline_exec;
  QuorumJoin<bool> join(count);
  for (std::size_t i = 0; i < count; ++i) {
    join.launch(
        where, i,
        [&fn, i](const CancelToken&) {
          fn(i);
          return true;
        },
        nullptr);
  }
  for (const std::exception_ptr& err : join.wait().errors) {
    if (err) std::rethrow_exception(err);
  }
}

}  // namespace rockfs::common
