// Unit tests for the observability layer (src/obs): metric key formatting,
// counter thread-safety, histogram bucket-edge and percentile math, registry
// reset semantics, and the sim-clock-aware span tracer (nesting, fanout
// groups, exclusive-time reconciliation, ring-buffer wraparound).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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
