// Executor subsystem tests: thread-pool basics (execute, drain-on-
// destruction), parallel_for_index slot and barrier semantics (every branch
// runs, the lowest-index exception is rethrown), QuorumJoin in both modes
// (barrier and first-quorum freeze), cooperative cancellation, and the
// straggler-lands-late property at the join level — a result that arrives
// after the freeze is recorded but never included.
// Also the 8-thread hammer regression for the shared-state fixes this PR
// made thread-safe: MetricsRegistry instruments and the per-cloud
// HealthTracker breaker (run under -DROCKFS_SANITIZE=thread in CI).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "depsky/health.h"
#include "obs/metrics.h"
#include "sim/clock.h"

namespace rockfs::common {
namespace {

TEST(ThreadPool, RunsSubmittedTasksAndReportsConcurrency) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.concurrency(), 4u);

  const auto caller = std::this_thread::get_id();
  std::vector<int> squares(64, -1);
  std::vector<std::thread::id> ran_on(64);
  parallel_for_index(&pool, squares.size(), [&](std::size_t i) {
    squares[i] = static_cast<int>(i * i);
    ran_on[i] = std::this_thread::get_id();
  });
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(squares[i], static_cast<int>(i * i));
    EXPECT_NE(ran_on[i], caller) << "branch " << i << " ran on the caller";
  }
}

TEST(ThreadPool, ZeroThreadsDegradesToOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.concurrency(), 1u);
  std::promise<std::thread::id> ran;
  std::future<std::thread::id> ran_on = ran.get_future();
  pool.execute([&ran] { ran.set_value(std::this_thread::get_id()); });
  EXPECT_NE(ran_on.get(), std::this_thread::get_id());
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 32; ++i) {
      pool.execute([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        ran.fetch_add(1);
      });
    }
    // The pool destructor must run every queued task before joining.
  }
  EXPECT_EQ(ran.load(), 32);
}

TEST(InlineExecutor, RunsInCallerThreadImmediately) {
  InlineExecutor exec;
  EXPECT_EQ(exec.concurrency(), 1u);
  const auto caller = std::this_thread::get_id();
  bool ran = false;
  exec.execute([&] {
    ran = true;
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_TRUE(ran);
}

TEST(ParallelForIndex, WritesDisjointSlotsOnPoolAndInline) {
  std::vector<int> inline_out(100, -1), pool_out(100, -1);
  parallel_for_index(nullptr, 100, [&](std::size_t i) {
    inline_out[i] = static_cast<int>(i) * 3;
  });
  ThreadPool pool(8);
  parallel_for_index(&pool, 100, [&](std::size_t i) {
    pool_out[i] = static_cast<int>(i) * 3;
  });
  EXPECT_EQ(inline_out, pool_out);
  EXPECT_EQ(std::accumulate(pool_out.begin(), pool_out.end(), 0), 3 * 99 * 100 / 2);
}

TEST(ParallelForIndex, RethrowsFirstBranchExceptionAfterBarrier) {
  ThreadPool pool(4);
  for (Executor* exec : {static_cast<Executor*>(&pool), static_cast<Executor*>(nullptr)}) {
    SCOPED_TRACE(exec ? "pooled" : "inline");
    std::atomic<int> ran{0};
    try {
      parallel_for_index(exec, 16, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i == 11) throw std::runtime_error("branch 11");
        if (i == 5) throw std::runtime_error("branch 5");
      });
      ADD_FAILURE() << "no exception";
    } catch (const std::runtime_error& e) {
      // The lowest-index branch's exception, whatever order they finished in.
      EXPECT_STREQ(e.what(), "branch 5");
    }
    // Barrier semantics: every branch ran even though two threw.
    EXPECT_EQ(ran.load(), 16);
  }
  // The workers survive throwing branches.
  std::vector<int> out(8, 0);
  parallel_for_index(&pool, out.size(), [&](std::size_t i) { out[i] = 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 8);
}

TEST(CancelToken, CancelWakesSleepersImmediately) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.sleep_for(std::chrono::microseconds(100)));

  std::thread waker([copy = token] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    copy.cancel();
  });
  const auto t0 = std::chrono::steady_clock::now();
  // A 10-second sleep must return early (false) when the copy cancels.
  EXPECT_FALSE(token.sleep_for(std::chrono::seconds(10)));
  const auto waited = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(waited, std::chrono::seconds(5));
  EXPECT_TRUE(token.cancelled());
  waker.join();
  // Once cancelled, sleeps return false without waiting.
  EXPECT_FALSE(token.sleep_for(std::chrono::seconds(10)));
}

TEST(QuorumJoin, BarrierModeIncludesEveryBranch) {
  ThreadPool pool(4);
  QuorumJoin<int> join(4, /*quorum_goal=*/0);
  for (std::size_t i = 0; i < 4; ++i) {
    join.launch(pool, i, [i](const CancelToken&) { return static_cast<int>(i) + 10; },
                [](const int&) { return true; });
  }
  auto snap = join.wait();
  EXPECT_FALSE(snap.frozen);
  EXPECT_EQ(snap.included_successes, 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(snap.included[i]);
    ASSERT_TRUE(snap.results[i].has_value());
    EXPECT_EQ(*snap.results[i], static_cast<int>(i) + 10);
    EXPECT_EQ(snap.errors[i], nullptr);
  }
}

TEST(QuorumJoin, FirstQuorumFreezesAndCancelsStragglers) {
  // Branches 0 and 1 succeed immediately; 2 and 3 sleep "forever" on the
  // token — they can only finish because the freeze cancels them.
  ThreadPool pool(4);
  QuorumJoin<int> join(4, /*quorum_goal=*/2);
  for (std::size_t i = 0; i < 4; ++i) {
    join.launch(pool, i,
                [i](const CancelToken& cancel) {
                  if (i >= 2) cancel.sleep_for(std::chrono::seconds(60));
                  return static_cast<int>(i);
                },
                [](const int&) { return true; });
  }
  const auto t0 = std::chrono::steady_clock::now();
  auto snap = join.wait();
  // The join returned long before the stragglers' 60s sleeps would elapse.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
  EXPECT_TRUE(snap.frozen);
  EXPECT_EQ(snap.included_successes, 2u);
  EXPECT_TRUE(snap.included[0]);
  EXPECT_TRUE(snap.included[1]);
  // The stragglers completed (their results were recorded — wait() drains
  // everything) but the freeze keeps them out of the included set.
  EXPECT_FALSE(snap.included[2]);
  EXPECT_FALSE(snap.included[3]);
  ASSERT_TRUE(snap.results[2].has_value());
  ASSERT_TRUE(snap.results[3].has_value());
}

TEST(QuorumJoin, UnreachableGoalDegradesToBarrier) {
  ThreadPool pool(2);
  QuorumJoin<int> join(3, /*quorum_goal=*/2);
  for (std::size_t i = 0; i < 3; ++i) {
    join.launch(pool, i, [i](const CancelToken&) { return static_cast<int>(i); },
                [](const int& v) { return v > 100; });  // nothing succeeds
  }
  auto snap = join.wait();
  EXPECT_FALSE(snap.frozen);
  EXPECT_EQ(snap.included_successes, 0u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(snap.included[i]);
}

TEST(QuorumJoin, ErrorsAreRecordedPerBranch) {
  ThreadPool pool(2);
  QuorumJoin<int> join(2);
  join.launch(pool, 0, [](const CancelToken&) { return 1; },
              [](const int&) { return true; });
  join.launch(pool, 1,
              [](const CancelToken&) -> int { throw std::runtime_error("cloud died"); },
              [](const int&) { return true; });
  auto snap = join.wait();
  EXPECT_EQ(snap.included_successes, 1u);
  EXPECT_EQ(snap.errors[0], nullptr);
  ASSERT_NE(snap.errors[1], nullptr);
  EXPECT_THROW(std::rethrow_exception(snap.errors[1]), std::runtime_error);
  EXPECT_FALSE(snap.results[1].has_value());
}

// The double-count property at the join level: run many first-quorum rounds
// where a straggler always lands late (it sleeps until cancelled, then still
// *returns a success*). Accounting over included branches only must always
// see exactly `goal` successes — the late ack can never be counted.
TEST(QuorumJoin, LateLandingStragglerNeverInflatesIncludedAccounting) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    QuorumJoin<std::uint64_t> join(4, /*quorum_goal=*/3);
    for (std::size_t i = 0; i < 4; ++i) {
      join.launch(pool, i,
                  [i](const CancelToken& cancel) -> std::uint64_t {
                    if (i == 3) cancel.sleep_for(std::chrono::seconds(60));
                    return 1000 + i;  // every branch "acks", even the straggler
                  },
                  [](const std::uint64_t&) { return true; });
    }
    auto snap = join.wait();
    ASSERT_TRUE(snap.frozen);
    std::uint64_t included_acks = 0;
    for (std::size_t i = 0; i < 4; ++i) {
      if (snap.included[i] && snap.results[i].has_value()) ++included_acks;
    }
    EXPECT_EQ(included_acks, 3u) << "round " << round;
    EXPECT_EQ(snap.included_successes, 3u) << "round " << round;
    EXPECT_FALSE(snap.included[3]) << "round " << round;
  }
}

// ---- satellite #2 regression: shared observability + breaker state ----

// Eight threads hammer one Counter, one Gauge, registry lookups of the same
// key, and one HealthTracker. Exact final counts prove no lost updates; the
// TSan CI job proves no data races.
TEST(SharedStateHammer, MetricsRegistryAndHealthTrackerSurviveEightThreads) {
  obs::MetricsRegistry reg;
  auto clock = std::make_shared<sim::SimClock>();
  depsky::HealthOptions opts;
  opts.failure_threshold = 3;
  opts.open_cooldown_us = 50;
  depsky::HealthTracker breaker(clock, opts);

  constexpr int kThreads = 8;
  constexpr int kIters = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& counter = reg.counter("hammer.counter");
      auto& gauge = reg.gauge("hammer.gauge");
      for (int i = 0; i < kIters; ++i) {
        counter.add(1);
        gauge.add(t % 2 == 0 ? 1 : -1);
        reg.histogram("hammer.hist").record(static_cast<std::uint64_t>(i % 97));
        if (i % 5 == 0) {
          breaker.record_failure();
        } else {
          breaker.record_success();
        }
        (void)breaker.state();
        (void)breaker.allow_request();
        (void)breaker.consecutive_failures();
        (void)breaker.times_opened();
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(reg.counter("hammer.counter").value(),
            static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(reg.gauge("hammer.gauge").value(), 0);
  // The breaker stayed internally consistent: failures never go negative and
  // every trip was tallied.
  EXPECT_GE(breaker.consecutive_failures(), 0);
  (void)breaker.times_opened();
}

}  // namespace
}  // namespace rockfs::common
