// Unit tests for the observability layer (src/obs): metric key formatting,
// counter thread-safety, histogram bucket-edge and percentile math, registry
// reset semantics, and the sim-clock-aware span tracer (nesting, fanout
// groups, exclusive-time reconciliation, ring-buffer wraparound, and the
// per-branch TaskTrace buffers a fan-out splices back).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/clock.h"

namespace rockfs::obs {
namespace {

// ------------------------------------------------------------- metric_key

TEST(MetricKey, PlainWhenLabelEmpty) {
  EXPECT_EQ(metric_key("depsky.retries", ""), "depsky.retries");
}

TEST(MetricKey, BracesAroundLabel) {
  EXPECT_EQ(metric_key("cloud.put.bytes", "cloud-0"), "cloud.put.bytes{cloud-0}");
}

// ---------------------------------------------------------------- Counter

TEST(Counter, ConcurrentIncrementsAreLossless) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 50'000;
  Counter c;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.add();
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Counter, AddNAndReset) {
  Counter c;
  c.add(41);
  c.add();
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);
}

// ------------------------------------------------------------------ Gauge

TEST(Gauge, SetAddAndNegativeValues) {
  Gauge g;
  g.set(10);
  g.add(-25);
  EXPECT_EQ(g.value(), -15);
  g.reset();
  EXPECT_EQ(g.value(), 0);
}

// -------------------------------------------------------------- Histogram

TEST(Histogram, BucketOfFollowsBitWidth) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(UINT64_MAX), 64u);
}

TEST(Histogram, BucketUpperIsInclusiveEdge) {
  EXPECT_EQ(Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Histogram::bucket_upper(10), 1023u);
  EXPECT_EQ(Histogram::bucket_upper(64), UINT64_MAX);
  // Every value lands in a bucket whose bounds contain it.
  for (std::uint64_t v : {0ull, 1ull, 2ull, 3ull, 4ull, 7ull, 8ull, 1'000'000ull}) {
    const std::size_t b = Histogram::bucket_of(v);
    EXPECT_LE(v, Histogram::bucket_upper(b));
    if (b > 0) {
      EXPECT_GT(v, Histogram::bucket_upper(b - 1));
    }
  }
}

TEST(Histogram, CountSumMinMax) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0u);  // empty reports 0, not UINT64_MAX
  EXPECT_EQ(h.percentile(50), 0u);
  h.record(5);
  h.record(100);
  h.record(0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 105u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 100u);
  EXPECT_EQ(h.bucket_count(0), 1u);   // the 0
  EXPECT_EQ(h.bucket_count(3), 1u);   // 5 has bit width 3
  EXPECT_EQ(h.bucket_count(7), 1u);   // 100 has bit width 7
}

TEST(Histogram, PercentileClampsToObservedMax) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.record(5);  // bucket 3, upper bound 7
  EXPECT_EQ(h.percentile(50), 5u);  // min(7, max=5)
  EXPECT_EQ(h.percentile(99), 5u);
}

TEST(Histogram, PercentileOnBimodalDistribution) {
  Histogram h;
  for (int i = 0; i < 90; ++i) h.record(10);    // bucket 4, upper 15
  for (int i = 0; i < 10; ++i) h.record(1000);  // bucket 10, upper 1023
  // p50 lands in the low mode: reported as that bucket's upper bound.
  EXPECT_EQ(h.percentile(50), 15u);
  // p95 crosses into the tail: clamped to the observed max.
  EXPECT_EQ(h.percentile(95), 1000u);
  EXPECT_EQ(h.percentile(99), 1000u);
}

TEST(Histogram, ConcurrentRecordsKeepCountAndSumConsistent) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  Histogram h;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) h.record(static_cast<std::uint64_t>(t + 1));
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) expected_sum += static_cast<std::uint64_t>(t + 1) * kPerThread;
  EXPECT_EQ(h.sum(), expected_sum);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), static_cast<std::uint64_t>(kThreads));
}

// ---------------------------------------------------------------- Registry

TEST(Registry, HandlesSurviveReset) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a.count");
  Histogram& h = reg.histogram("a.delay_us");
  c.add(7);
  h.record(123);
  reg.reset();
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.count(), 0u);
  // Same instrument comes back from a fresh lookup (never deallocated).
  c.add(1);
  EXPECT_EQ(reg.counter("a.count").value(), 1u);
}

TEST(Registry, CounterValueDoesNotRegister) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.counter_value("never.registered"), 0u);
  // A read-only probe must not have created the key.
  EXPECT_EQ(reg.to_json().find("never.registered"), std::string::npos);
}

TEST(Registry, JsonIsDeterministicAndSorted) {
  MetricsRegistry a;
  MetricsRegistry b;
  for (auto* reg : {&a, &b}) {
    reg->counter("z.count").add(3);
    reg->counter("a.count").add(1);
    reg->gauge("queue.depth").set(-2);
    reg->histogram("op.delay_us").record(100);
  }
  EXPECT_EQ(a.to_json(), b.to_json());
  const std::string json = a.to_json();
  // Keys come out sorted regardless of registration order.
  EXPECT_LT(json.find("\"a.count\""), json.find("\"z.count\""));
  EXPECT_NE(json.find("\"queue.depth\":-2"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

// ------------------------------------------------------------------ Tracer

TEST(TracerTest, NestingAssignsParents) {
  Tracer t;
  {
    Span root = t.span("root");
    Span child = t.span("child");
    Span grandchild = t.span("grandchild");
    grandchild.finish();
    child.finish();
    root.finish();
  }
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].name, "root");
  EXPECT_EQ(evs[0].parent, 0u);
  EXPECT_EQ(evs[1].name, "child");
  EXPECT_EQ(evs[1].parent, evs[0].id);
  EXPECT_EQ(evs[2].name, "grandchild");
  EXPECT_EQ(evs[2].parent, evs[1].id);
  // Siblings of a non-fanout parent are serial.
  for (const auto& e : evs) EXPECT_EQ(e.kind, SpanKind::kSerial);
}

TEST(TracerTest, FanoutChildrenAreParallel) {
  Tracer t;
  {
    Span group = t.span("group", {.fanout = true});
    for (int i = 0; i < 3; ++i) {
      Span branch = t.span("branch");
      {
        // Children *of a branch* are serial again: fanout only applies one
        // level down.
        Span inner = t.span("inner");
      }
    }
    group.set_duration(42);
  }
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 7u);
  for (const auto& e : evs) {
    if (e.name == "branch") {
      EXPECT_EQ(e.kind, SpanKind::kParallel);
    }
    if (e.name == "inner") {
      EXPECT_EQ(e.kind, SpanKind::kSerial);
    }
    if (e.name == "group") {
      EXPECT_EQ(e.duration_us, 42u);
    }
  }
}

TEST(TracerTest, SimTimeAttribution) {
  Tracer t;
  auto clock = std::make_shared<sim::SimClock>();
  t.bind_clock(clock);
  clock->advance_us(1'000);
  Span a = t.span("a");
  a.finish();
  clock->advance_us(500);
  Span b = t.span("b");
  b.finish();
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].start_us, 1'000u);
  EXPECT_EQ(evs[1].start_us, 1'500u);
}

TEST(TracerTest, AttributesRecorded) {
  Tracer t;
  {
    Span s = t.span("op");
    s.set_label("cloud-3");
    s.set_duration(250);
    s.charge_child(100);
    s.charge_child(50);
    s.set_retries(2);
    s.set_bytes(4096);
    s.set_outcome(ErrorCode::kTimeout);
  }
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].label, "cloud-3");
  EXPECT_EQ(evs[0].duration_us, 250u);
  EXPECT_EQ(evs[0].charged_us, 150u);
  EXPECT_EQ(evs[0].retries, 2u);
  EXPECT_EQ(evs[0].bytes, 4096u);
  EXPECT_EQ(evs[0].outcome, ErrorCode::kTimeout);
}

TEST(TracerTest, DisabledTracerYieldsInertSpans) {
  Tracer t;
  t.set_enabled(false);
  Span s = t.span("ignored");
  EXPECT_FALSE(s.active());
  s.set_duration(99);  // must not crash
  s.finish();
  EXPECT_EQ(t.finished_count(), 0u);
  t.set_enabled(true);
  { Span live = t.span("live"); }
  EXPECT_EQ(t.finished_count(), 1u);
}

TEST(TracerTest, RingWrapsAndReportsDrops) {
  Tracer t(4);
  for (int i = 0; i < 6; ++i) {
    Span s = t.span("op" + std::to_string(i));
  }
  EXPECT_EQ(t.finished_count(), 6u);
  EXPECT_EQ(t.dropped_count(), 2u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 4u);
  // Oldest two fell out; the survivors are op2..op5 in id order.
  EXPECT_EQ(evs.front().name, "op2");
  EXPECT_EQ(evs.back().name, "op5");
}

TEST(TracerTest, ResetClearsEventsAndIds) {
  Tracer t;
  { Span s = t.span("a"); }
  t.reset();
  EXPECT_EQ(t.finished_count(), 0u);
  EXPECT_TRUE(t.events().empty());
  { Span s = t.span("b"); }
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].id, 1u);  // ids restart from 1
}

TEST(TracerTest, OutOfOrderFinishRetiresSuffixOnly) {
  Tracer t;
  Span root = t.span("root");
  Span child = t.span("child");
  root.finish();  // out of order: root finishes before child
  EXPECT_EQ(t.finished_count(), 0u);  // root waits for the open child
  child.finish();
  EXPECT_EQ(t.finished_count(), 2u);
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 2u);
  EXPECT_EQ(evs[0].name, "root");
  EXPECT_EQ(evs[1].parent, evs[0].id);
}

// -------------------------------------------------------------- TaskTrace

// Two branch buffers under a fanout group, each with a branch span and a
// nested span carrying every field. The buffers stay out of the ring until
// splice, which renumbers them after the group and parents their roots to it.
TEST(TaskTraceTest, SpliceRenumbersAndParentsBranchSpans) {
  Tracer t;
  auto clock = std::make_shared<sim::SimClock>();
  t.bind_clock(clock);
  clock->advance_us(100);
  Span group = t.span("group", {.fanout = true});
  std::vector<TaskTrace> tasks;
  for (int b = 0; b < 2; ++b) tasks.push_back(t.make_task());
  for (std::uint32_t b = 0; b < 2; ++b) {
    TaskBinding bind(&tasks[b]);
    clock->advance_us(10);
    Span branch = t.span("branch");
    branch.set_duration(40 + b);
    branch.charge_child(15 + b);
    branch.set_retries(1 + b);
    branch.set_bytes(1000 + b);
    branch.set_label("cloud-" + std::to_string(b));
    branch.set_outcome(b == 0 ? ErrorCode::kOk : ErrorCode::kTimeout);
    Span nested = t.span("nested");
    nested.set_duration(15 + b);
    nested.charge_child(5 + b);
    nested.set_retries(3 + b);
    nested.set_bytes(500 + b);
    nested.set_label("put-" + std::to_string(b));
    nested.set_outcome(b == 0 ? ErrorCode::kUnavailable : ErrorCode::kOk);
  }
  EXPECT_EQ(t.finished_count(), 0u);
  EXPECT_TRUE(t.events().empty());
  t.splice(tasks);
  group.set_duration(45);
  group.finish();
  { Span after = t.span("after"); }

  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 6u);
  std::set<std::uint64_t> ids;
  for (const auto& e : evs) EXPECT_TRUE(ids.insert(e.id).second) << "duplicate id " << e.id;
  const TraceEvent& g = evs[0];
  EXPECT_EQ(g.name, "group");
  EXPECT_EQ(evs.back().name, "after");
  for (std::uint32_t b = 0; b < 2; ++b) {
    SCOPED_TRACE("branch " + std::to_string(b));
    const TraceEvent& branch = evs[1 + 2 * b];
    const TraceEvent& nested = evs[2 + 2 * b];
    EXPECT_EQ(branch.name, "branch");
    EXPECT_EQ(branch.parent, g.id);
    EXPECT_EQ(branch.kind, SpanKind::kParallel);
    EXPECT_EQ(branch.start_us, 110u + 10 * b);
    EXPECT_EQ(branch.duration_us, 40u + b);
    EXPECT_EQ(branch.charged_us, 15u + b);
    EXPECT_EQ(branch.retries, 1u + b);
    EXPECT_EQ(branch.bytes, 1000u + b);
    EXPECT_EQ(branch.label, "cloud-" + std::to_string(b));
    EXPECT_EQ(branch.outcome, b == 0 ? ErrorCode::kOk : ErrorCode::kTimeout);
    EXPECT_EQ(nested.name, "nested");
    EXPECT_EQ(nested.parent, branch.id);
    EXPECT_EQ(nested.kind, SpanKind::kSerial);
    EXPECT_EQ(nested.start_us, 110u + 10 * b);
    EXPECT_EQ(nested.duration_us, 15u + b);
    EXPECT_EQ(nested.charged_us, 5u + b);
    EXPECT_EQ(nested.retries, 3u + b);
    EXPECT_EQ(nested.bytes, 500u + b);
    EXPECT_EQ(nested.label, "put-" + std::to_string(b));
    EXPECT_EQ(nested.outcome, b == 0 ? ErrorCode::kUnavailable : ErrorCode::kOk);
  }
}

TEST(TaskTraceTest, DisabledTracerGivesInertBufferSpans) {
  Tracer t;
  t.set_enabled(false);
  std::vector<TaskTrace> tasks;
  tasks.push_back(t.make_task());
  EXPECT_FALSE(tasks[0].enabled());
  {
    TaskBinding bind(&tasks[0]);
    Span s = t.span("ignored");
    EXPECT_FALSE(s.active());
    s.set_duration(99);  // must not crash
    s.charge_child(1);
    s.set_label("x");
    Span direct = tasks[0].span("direct");
    EXPECT_FALSE(direct.active());
  }
  t.set_enabled(true);
  t.splice(tasks);
  EXPECT_EQ(t.finished_count(), 0u);
  { Span live = t.span("live"); }
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 1u);
  EXPECT_EQ(evs[0].id, 1u);  // the inert buffer consumed no ids
}

TEST(TaskTraceTest, OutOfOrderFinishInsideBufferRetiresSuffixOnly) {
  Tracer t;
  std::vector<TaskTrace> tasks;
  tasks.push_back(t.make_task());
  tasks.push_back(t.make_task());
  {
    TaskBinding bind(&tasks[0]);
    Span root = t.span("root");
    Span child = t.span("child");
    root.finish();  // out of order: root finishes before child
    Span late = t.span("late");  // the open child is still the innermost span
    late.finish();
    child.set_duration(7);  // child is still open and editable
    child.finish();         // retires child, then the waiting root
  }
  Span open_child;
  {
    TaskBinding bind(&tasks[1]);
    Span root = t.span("root2");
    open_child = t.span("child2");
    root.finish();  // waits for child2, which is still open at the splice
  }
  t.splice(tasks);
  EXPECT_EQ(t.finished_count(), 3u);  // root2 never retired
  const auto evs = t.events();
  ASSERT_EQ(evs.size(), 3u);
  EXPECT_EQ(evs[0].name, "root");
  EXPECT_EQ(evs[0].parent, 0u);
  EXPECT_EQ(evs[1].name, "child");
  EXPECT_EQ(evs[1].parent, evs[0].id);
  EXPECT_EQ(evs[1].duration_us, 7u);
  EXPECT_EQ(evs[2].name, "late");
  EXPECT_EQ(evs[2].parent, evs[1].id);
}

// A fan-out traced through parallel_for_index dumps the same bytes whether
// its branches ran on a pool or inline: splice order is the branch index.
TEST(TaskTraceTest, PooledBranchesDumpLikeInlineOnes) {
  const auto run = [](common::Executor* exec) {
    Tracer t;
    auto clock = std::make_shared<sim::SimClock>();
    t.bind_clock(clock);
    clock->advance_us(50);
    {
      Span group = t.span("group", {.fanout = true});
      std::vector<TaskTrace> tasks;
      for (int b = 0; b < 8; ++b) tasks.push_back(t.make_task());
      common::parallel_for_index(exec, tasks.size(), [&](std::size_t b) {
        TaskBinding bind(&tasks[b]);
        Span branch = t.span("branch");
        branch.set_label("cloud-" + std::to_string(b));
        branch.set_duration(100 + b);
        branch.charge_child(10 + b);
        {
          Span inner = t.span("inner");
          inner.set_duration(10 + b);
          inner.set_bytes(64 * b);
          inner.set_retries(static_cast<std::uint32_t>(b % 3));
        }
        if (b % 2 == 1) {
          Span second = t.span("inner");
          second.set_outcome(ErrorCode::kTimeout);
        }
      });
      t.splice(tasks);
      group.set_duration(120);
    }
    return t.to_json();
  };
  common::ThreadPool pool(4);
  const std::string pooled = run(&pool);
  const std::string inlined = run(nullptr);
  EXPECT_EQ(pooled, inlined);
  EXPECT_NE(pooled.find("\"finished\":21"), std::string::npos);
}

// ------------------------------------------------------ reconcile_exclusive

TEST(Reconcile, SerialChargingSumsToRootDuration) {
  Tracer t;
  std::uint64_t root_id = 0;
  {
    Span root = t.span("root");
    root_id = root.id();
    {
      Span child = t.span("child");
      child.set_duration(60);
      child.charge_child(20);
      {
        Span grandchild = t.span("grandchild");
        grandchild.set_duration(20);
      }
    }
    root.set_duration(100);
    root.charge_child(60);
  }
  // Exclusive: root 100-60=40, child 60-20=40, grandchild 20. Total 100.
  EXPECT_EQ(reconcile_exclusive_us(t.events(), root_id), 100u);
}

TEST(Reconcile, ParallelSubtreesCountOnlyTheGroupDuration) {
  Tracer t;
  std::uint64_t root_id = 0;
  {
    Span root = t.span("root");
    root_id = root.id();
    {
      Span group = t.span("group", {.fanout = true});
      for (int i = 0; i < 3; ++i) {
        Span branch = t.span("branch");
        branch.set_duration(80);  // overlapping branches; NOT summed
      }
      group.set_duration(90);  // composed quorum delay
    }
    root.set_duration(100);
    root.charge_child(90);
  }
  // Exclusive: root 10 + group 90; branches are skipped.
  EXPECT_EQ(reconcile_exclusive_us(t.events(), root_id), 100u);
}

TEST(TracerTest, JsonIsDeterministic) {
  auto run = [] {
    Tracer t;
    auto clock = std::make_shared<sim::SimClock>();
    t.bind_clock(clock);
    for (int i = 0; i < 5; ++i) {
      clock->advance_us(10);
      Span s = t.span("op");
      s.set_bytes(static_cast<std::uint64_t>(i) * 100);
      s.set_duration(7);
    }
    return t.to_json();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"finished\":5"), std::string::npos);
}

}  // namespace
}  // namespace rockfs::obs
