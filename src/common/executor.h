// Real execution for the simulated stack: a fixed thread pool, cooperative
// cancellation, and first-(n-f) quorum joins.
//
// Every fan-out launches its branches on an Executor and joins them with a
// QuorumJoin (parallel_for_index is a barrier join over an index range), in
// one of two disciplines:
//
//   barrier      — every launched branch completes before the join returns;
//                  operation *completion time* is then composed from the
//                  branches' virtual delays (sim/timed.h quorum_delay), so a
//                  seeded run is byte-identical whether the branches executed
//                  sequentially or on N threads. This is the deterministic
//                  discipline every test oracle relies on.
//   first-quorum — the join freezes its included set at the quorum-th
//                  wall-clock success and cancels the stragglers (their
//                  emulated I/O sleeps are interrupted; the residual compute
//                  drains in the background before the join returns, so no
//                  caller memory can dangle). Wall-clock optimal. DepSky
//                  picks it only when wall-clock latency is emulated on a
//                  multi-thread pool, i.e. in the latency-emulating benches.
//
// A straggler that "lands" after the freeze keeps its result out of the
// included set — callers must account (metrics, acks) only over included
// branches, which is what makes late acks unable to double-count.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace rockfs::common {

/// Shared cooperative-cancellation flag. Copies refer to the same state.
/// cancel() wakes every sleep_for() immediately.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<State>()) {}

  void cancel() const {
    {
      std::lock_guard<std::mutex> lk(state_->mu);
      state_->cancelled = true;
    }
    state_->cv.notify_all();
  }

  bool cancelled() const {
    std::lock_guard<std::mutex> lk(state_->mu);
    return state_->cancelled;
  }

  /// Sleeps up to `d` of wall time; returns false when woken by cancel()
  /// (or already cancelled), true when the full duration elapsed.
  bool sleep_for(std::chrono::microseconds d) const {
    std::unique_lock<std::mutex> lk(state_->mu);
    return !state_->cv.wait_for(lk, d, [this] { return state_->cancelled; });
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    bool cancelled = false;
  };
  std::shared_ptr<State> state_;
};

/// Where fan-out branches run. concurrency() == 1 means branches execute in
/// the caller's thread, in launch order — the sequential baseline.
class Executor {
 public:
  virtual ~Executor() = default;

  /// Schedules `fn`. Implementations never throw out of the worker; `fn`
  /// must not either (QuorumJoin::launch catches a branch's exception).
  virtual void execute(std::function<void()> fn) = 0;
  virtual std::size_t concurrency() const noexcept = 0;
};

/// Runs everything inline in the calling thread (the deterministic serial
/// baseline every pooled path degrades to).
class InlineExecutor final : public Executor {
 public:
  void execute(std::function<void()> fn) override { fn(); }
  std::size_t concurrency() const noexcept override { return 1; }
};

/// Fixed pool of worker threads over an unbounded FIFO queue. The destructor
/// drains every queued task before joining, so scheduled work never vanishes.
class ThreadPool final : public Executor {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool() override;

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void execute(std::function<void()> fn) override;
  std::size_t concurrency() const noexcept override { return workers_.size(); }

 private:
  void worker_loop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Join for `n` homogeneous branches with an optional first-quorum freeze.
///
/// With quorum_goal == 0 (barrier): every branch is included; wait() returns
/// once all have completed. With quorum_goal > 0: the included set freezes
/// the instant the goal-th successful branch lands; the shared CancelToken
/// fires so stragglers abandon their emulated waits, and wait() still drains
/// them (bounded by their residual compute) before returning — results that
/// land after the freeze are recorded but excluded. If the goal turns out to
/// be unreachable the freeze never happens and every branch is included,
/// degrading to barrier semantics (the caller sees the failure in its own
/// quorum arithmetic).
template <typename T>
class QuorumJoin {
 public:
  using Task = std::function<T(const CancelToken&)>;
  using SuccessPredicate = std::function<bool(const T&)>;

  explicit QuorumJoin(std::size_t n, std::size_t quorum_goal = 0)
      : state_(std::make_shared<State>()) {
    state_->results.resize(n);
    state_->errors.resize(n);
    state_->included.assign(n, false);
    state_->quorum_goal = quorum_goal;
  }

  const CancelToken& token() const { return state_->cancel; }

  void launch(Executor& exec, std::size_t index, Task task, SuccessPredicate is_success) {
    auto state = state_;
    {
      std::lock_guard<std::mutex> lk(state->mu);
      ++state->launched;
    }
    exec.execute([state, index, task = std::move(task), ok = std::move(is_success)] {
      std::optional<T> value;
      std::exception_ptr error;
      try {
        value.emplace(task(state->cancel));
      } catch (...) {
        error = std::current_exception();
      }
      const bool success = value.has_value() && (!ok || ok(*value));
      bool frozen_now = false;
      {
        std::lock_guard<std::mutex> lk(state->mu);
        state->results[index] = std::move(value);
        state->errors[index] = error;
        if (!state->frozen) {
          state->included[index] = true;
          if (success) ++state->included_successes;
          if (state->quorum_goal > 0 &&
              state->included_successes >= state->quorum_goal) {
            state->frozen = true;
          }
        }
        ++state->completed;
        frozen_now = state->frozen;  // snapshot under the lock (TSan-clean)
      }
      if (frozen_now) state->cancel.cancel();  // idempotent re-cancel is fine
      state->cv.notify_all();
    });
  }

  struct Snapshot {
    std::vector<std::optional<T>> results;     // every completed branch
    std::vector<std::exception_ptr> errors;    // per-branch task exception
    std::vector<bool> included;                // in the frozen quorum set
    std::size_t included_successes = 0;
    bool frozen = false;                       // the quorum goal was reached
  };

  /// Blocks until every launched branch completed (stragglers drain fast:
  /// a freeze cancels their token), then snapshots the frozen state.
  Snapshot wait() {
    std::unique_lock<std::mutex> lk(state_->mu);
    state_->cv.wait(lk, [this] { return state_->completed == state_->launched; });
    Snapshot snap;
    snap.results = std::move(state_->results);
    snap.errors = state_->errors;
    snap.included = state_->included;
    snap.included_successes = state_->included_successes;
    snap.frozen = state_->frozen;
    state_->results.clear();
    return snap;
  }

 private:
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::vector<std::optional<T>> results;
    std::vector<std::exception_ptr> errors;
    std::vector<bool> included;
    std::size_t launched = 0;
    std::size_t completed = 0;
    std::size_t included_successes = 0;
    std::size_t quorum_goal = 0;
    bool frozen = false;
    CancelToken cancel;
  };
  std::shared_ptr<State> state_;
};

/// Runs fn(0..count-1) to completion as one barrier QuorumJoin: on `exec`
/// when it has more than one thread and there is more than one branch,
/// inline otherwise. Every branch runs; then the lowest-index branch's
/// exception, if any, is rethrown. Branch results must be written to
/// disjoint slots.
void parallel_for_index(Executor* exec, std::size_t count,
                        const std::function<void(std::size_t)>& fn);

}  // namespace rockfs::common
