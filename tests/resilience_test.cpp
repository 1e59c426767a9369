// Unit tests for the resilience building blocks: decorrelated-jitter
// backoff + retry_timed (common/retry.h), the FaultSchedule chaos engine
// (sim/faults.h) and the per-cloud HealthTracker circuit breaker
// (depsky/health.h), plus their integration into CloudProvider and
// DepSkyClient.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cloud/provider.h"
#include "common/retry.h"
#include "depsky/client.h"
#include "depsky/health.h"
#include "obs/metrics.h"
#include "scfs/lease.h"
#include "scfs/scfs.h"
#include "sim/faults.h"

namespace rockfs {
namespace {

// ---------------------------------------------------------------- Backoff

TEST(Backoff, DeterministicForFixedSeed) {
  RetryPolicy policy;
  Backoff a(policy, 42);
  Backoff b(policy, 42);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a.next_us(), b.next_us());
}

TEST(Backoff, DifferentSeedsDiffer) {
  RetryPolicy policy;
  Backoff a(policy, 1);
  Backoff b(policy, 2);
  int same = 0;
  for (int i = 0; i < 32; ++i) same += (a.next_us() == b.next_us());
  EXPECT_LT(same, 4);
}

TEST(Backoff, StaysWithinBounds) {
  RetryPolicy policy;
  policy.base_backoff_us = 10'000;
  policy.max_backoff_us = 500'000;
  Backoff backoff(policy, 7);
  for (int i = 0; i < 200; ++i) {
    const auto us = backoff.next_us();
    EXPECT_GE(us, policy.base_backoff_us);
    EXPECT_LE(us, policy.max_backoff_us);
  }
}

// ------------------------------------------------------------ retry_timed

TEST(RetryTimed, SuccessFirstTryChargesNoBackoff) {
  RetryPolicy policy;
  RetryOutcome outcome;
  int calls = 0;
  auto timed = retry_timed(
      policy, 1,
      [&]() -> sim::Timed<Status> {
        ++calls;
        return {Status::Ok(), 1'000};
      },
      &outcome);
  EXPECT_TRUE(timed.value.ok());
  EXPECT_EQ(timed.delay, 1'000);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(outcome.backoff_us, 0);
  EXPECT_FALSE(outcome.deadline_exhausted);
}

TEST(RetryTimed, RetriesTransientFailureUntilSuccess) {
  RetryPolicy policy;
  RetryOutcome outcome;
  int calls = 0;
  auto timed = retry_timed(
      policy, 1,
      [&]() -> sim::Timed<Status> {
        ++calls;
        if (calls < 3) return {Status{ErrorCode::kUnavailable, "blip"}, 1'000};
        return {Status::Ok(), 1'000};
      },
      &outcome);
  EXPECT_TRUE(timed.value.ok());
  EXPECT_EQ(outcome.attempts, 3);
  // Total delay = three attempts plus two backoff pauses.
  EXPECT_EQ(timed.delay, 3 * 1'000 + outcome.backoff_us);
  EXPECT_GE(outcome.backoff_us, 2 * policy.base_backoff_us);
}

TEST(RetryTimed, NonRetryableFailsImmediately) {
  RetryPolicy policy;
  RetryOutcome outcome;
  int calls = 0;
  auto timed = retry_timed(
      policy, 1,
      [&]() -> sim::Timed<Result<Bytes>> {
        ++calls;
        return {Error{ErrorCode::kPermissionDenied, "no"}, 500};
      },
      &outcome);
  EXPECT_EQ(timed.value.code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(outcome.attempts, 1);
  EXPECT_EQ(timed.delay, 500);
}

TEST(RetryTimed, BoundedByMaxAttempts) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  RetryOutcome outcome;
  int calls = 0;
  auto timed = retry_timed(
      policy, 9,
      [&]() -> sim::Timed<Status> {
        ++calls;
        return {Status{ErrorCode::kTimeout, "stuck"}, 2'000};
      },
      &outcome);
  EXPECT_EQ(timed.value.code(), ErrorCode::kTimeout);
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(outcome.attempts, 3);
}

TEST(RetryTimed, DeadlineStopsRetrying) {
  RetryPolicy policy;
  policy.base_backoff_us = 50'000;
  policy.deadline_us = 10'000;  // smaller than any single backoff pause
  RetryOutcome outcome;
  int calls = 0;
  auto timed = retry_timed(
      policy, 3,
      [&]() -> sim::Timed<Status> {
        ++calls;
        return {Status{ErrorCode::kUnavailable, "down"}, 100};
      },
      &outcome);
  EXPECT_EQ(timed.value.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(calls, 1);  // the first pause would already overrun the deadline
  EXPECT_TRUE(outcome.deadline_exhausted);
  EXPECT_EQ(timed.delay, 100);  // the un-taken pause is not charged
}

TEST(RetryTimed, ZeroDeadlineMeansUnlimited) {
  RetryPolicy policy;
  policy.deadline_us = 0;
  policy.max_attempts = 4;
  RetryOutcome outcome;
  auto timed = retry_timed(
      policy, 3,
      [&]() -> sim::Timed<Status> {
        return {Status{ErrorCode::kUnavailable, "down"}, 100};
      },
      &outcome);
  EXPECT_EQ(outcome.attempts, 4);
  EXPECT_FALSE(outcome.deadline_exhausted);
}

// ---------------------------------------------------------- FaultSchedule

struct FaultScheduleTest : ::testing::Test {
  sim::SimClockPtr clock = std::make_shared<sim::SimClock>();
  sim::FaultSchedule sched{clock, 1234};
};

TEST_F(FaultScheduleTest, HealthyByDefault) {
  for (int i = 0; i < 50; ++i) {
    const auto a = sched.on_operation(sim::FaultOp::kRead);
    EXPECT_EQ(a.fail, ErrorCode::kOk);
    EXPECT_DOUBLE_EQ(a.latency_factor, 1.0);
    EXPECT_FALSE(a.corrupt_payload);
    EXPECT_FALSE(a.truncate_payload);
  }
  EXPECT_EQ(sched.decisions(), 50u);
}

TEST_F(FaultScheduleTest, DownDominates) {
  sched.set_down(true);
  EXPECT_EQ(sched.on_operation(sim::FaultOp::kControl).fail, ErrorCode::kUnavailable);
  sched.set_down(false);
  EXPECT_EQ(sched.on_operation(sim::FaultOp::kControl).fail, ErrorCode::kOk);
}

TEST_F(FaultScheduleTest, OutageWindowFollowsVirtualTime) {
  sched.add_outage(1'000'000, 2'000'000);
  EXPECT_FALSE(sched.in_outage(clock->now_us()));
  EXPECT_EQ(sched.on_operation(sim::FaultOp::kRead).fail, ErrorCode::kOk);
  clock->advance_us(1'500'000);
  EXPECT_TRUE(sched.in_outage(clock->now_us()));
  EXPECT_EQ(sched.on_operation(sim::FaultOp::kRead).fail, ErrorCode::kUnavailable);
  clock->advance_us(1'000'000);  // now 2.5 s — window is half-open [start, end)
  EXPECT_FALSE(sched.in_outage(clock->now_us()));
  EXPECT_EQ(sched.on_operation(sim::FaultOp::kRead).fail, ErrorCode::kOk);
}

TEST_F(FaultScheduleTest, TransientAndTimeoutProbabilities) {
  sched.set_transient_error_prob(1.0);
  EXPECT_EQ(sched.on_operation(sim::FaultOp::kControl).fail, ErrorCode::kUnavailable);
  sched.set_transient_error_prob(0.0);
  sched.set_timeout_prob(1.0);
  const auto a = sched.on_operation(sim::FaultOp::kControl);
  EXPECT_EQ(a.fail, ErrorCode::kTimeout);
  EXPECT_TRUE(is_retryable(a.fail));
}

TEST_F(FaultScheduleTest, TailLatencyAmplifies) {
  sched.set_tail_latency(1.0, 8.0);
  const auto a = sched.on_operation(sim::FaultOp::kRead);
  EXPECT_EQ(a.fail, ErrorCode::kOk);
  EXPECT_DOUBLE_EQ(a.latency_factor, 8.0);
}

TEST_F(FaultScheduleTest, ReadCorruptionOnlyAffectsReads) {
  sched.set_read_corruption_prob(1.0);
  EXPECT_TRUE(sched.on_operation(sim::FaultOp::kRead).corrupt_payload);
  EXPECT_FALSE(sched.on_operation(sim::FaultOp::kWrite).corrupt_payload);
  EXPECT_FALSE(sched.on_operation(sim::FaultOp::kControl).corrupt_payload);
}

TEST_F(FaultScheduleTest, ByzantineCorruptsEveryRead) {
  sched.set_byzantine(true);
  EXPECT_TRUE(sched.on_operation(sim::FaultOp::kRead).corrupt_payload);
  EXPECT_EQ(sched.on_operation(sim::FaultOp::kRead).fail, ErrorCode::kOk);
}

TEST_F(FaultScheduleTest, PartialWriteTruncatesAndFails) {
  sched.set_partial_write_prob(1.0);
  const auto w = sched.on_operation(sim::FaultOp::kWrite);
  EXPECT_EQ(w.fail, ErrorCode::kUnavailable);
  EXPECT_TRUE(w.truncate_payload);
  // Reads and control ops are unaffected by the write knob.
  EXPECT_EQ(sched.on_operation(sim::FaultOp::kRead).fail, ErrorCode::kOk);
}

TEST_F(FaultScheduleTest, DeterministicPerSeed) {
  sim::FaultSchedule a(clock, 777);
  sim::FaultSchedule b(clock, 777);
  a.set_transient_error_prob(0.5);
  b.set_transient_error_prob(0.5);
  a.set_tail_latency(0.3, 4.0);
  b.set_tail_latency(0.3, 4.0);
  for (int i = 0; i < 200; ++i) {
    const auto x = a.on_operation(sim::FaultOp::kRead);
    const auto y = b.on_operation(sim::FaultOp::kRead);
    EXPECT_EQ(x.fail, y.fail);
    EXPECT_DOUBLE_EQ(x.latency_factor, y.latency_factor);
    EXPECT_EQ(x.corrupt_payload, y.corrupt_payload);
  }
}

TEST_F(FaultScheduleTest, ClearForgetsEverything) {
  sched.set_down(true);
  sched.set_byzantine(true);
  sched.set_transient_error_prob(1.0);
  sched.set_partial_write_prob(1.0);
  sched.add_outage(0, 1'000'000'000);
  sched.clear();
  const auto a = sched.on_operation(sim::FaultOp::kWrite);
  EXPECT_EQ(a.fail, ErrorCode::kOk);
  EXPECT_FALSE(a.truncate_payload);
  EXPECT_FALSE(sched.down());
  EXPECT_FALSE(sched.byzantine());
}

// ---------------------------------------------------------- HealthTracker

struct HealthTrackerTest : ::testing::Test {
  sim::SimClockPtr clock = std::make_shared<sim::SimClock>();
  depsky::HealthOptions options;  // threshold 3, cooldown 5 s, 2 probes
  depsky::HealthTracker breaker{clock, options};
  using State = depsky::HealthTracker::State;
};

TEST_F(HealthTrackerTest, OpensAfterConsecutiveFailures) {
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), State::kClosed);
  EXPECT_TRUE(breaker.allow_request());
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_FALSE(breaker.allow_request());
  EXPECT_EQ(breaker.times_opened(), 1u);
}

TEST_F(HealthTrackerTest, SuccessResetsFailureStreak) {
  breaker.record_failure();
  breaker.record_failure();
  breaker.record_success();
  breaker.record_failure();
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), State::kClosed);
}

TEST_F(HealthTrackerTest, CooldownLapsesIntoHalfOpen) {
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  EXPECT_EQ(breaker.state(), State::kOpen);
  clock->advance_us(options.open_cooldown_us - 1);
  EXPECT_EQ(breaker.state(), State::kOpen);
  clock->advance_us(1);
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
  EXPECT_TRUE(breaker.allow_request());
}

TEST_F(HealthTrackerTest, HalfOpenProbesClose) {
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  clock->advance_us(options.open_cooldown_us);
  breaker.record_success();
  EXPECT_EQ(breaker.state(), State::kHalfOpen);  // one probe is not enough
  breaker.record_success();
  EXPECT_EQ(breaker.state(), State::kClosed);
  EXPECT_EQ(breaker.consecutive_failures(), 0);
}

TEST_F(HealthTrackerTest, HalfOpenFailureReopens) {
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  clock->advance_us(options.open_cooldown_us);
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
  breaker.record_failure();
  EXPECT_EQ(breaker.state(), State::kOpen);
  EXPECT_EQ(breaker.times_opened(), 2u);
}

TEST_F(HealthTrackerTest, ForcedProbeSuccessHealsWhileOpen) {
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  EXPECT_EQ(breaker.state(), State::kOpen);
  // Successful forced probes (sent because a quorum needed this cloud)
  // close the breaker without waiting for the cooldown.
  breaker.record_success();
  breaker.record_success();
  EXPECT_EQ(breaker.state(), State::kClosed);
}

TEST_F(HealthTrackerTest, FailedForcedProbePushesCooldownBack) {
  for (int i = 0; i < 3; ++i) breaker.record_failure();
  clock->advance_us(options.open_cooldown_us / 2);
  breaker.record_failure();  // forced probe fails: cooldown restarts
  clock->advance_us(options.open_cooldown_us / 2 + 1);
  EXPECT_EQ(breaker.state(), State::kOpen);  // original cooldown has passed
  clock->advance_us(options.open_cooldown_us / 2);
  EXPECT_EQ(breaker.state(), State::kHalfOpen);
}

// ----------------------------------------------- CloudProvider integration

struct ProviderFaultsTest : ::testing::Test {
  sim::SimClockPtr clock = std::make_shared<sim::SimClock>();
  std::vector<cloud::CloudProviderPtr> clouds = cloud::make_provider_fleet(clock, 1, 7);
  cloud::CloudProviderPtr cloud = clouds[0];
  cloud::AccessToken token = cloud->issue_token("alice", "fs", cloud::TokenScope::kFiles);
};

TEST_F(ProviderFaultsTest, TimeoutFaultSurfacesAsKTimeout) {
  ASSERT_TRUE(cloud->put(token, "files/a", to_bytes("payload")).value.ok());
  cloud->faults().set_timeout_prob(1.0);
  auto got = cloud->get(token, "files/a");
  EXPECT_EQ(got.value.code(), ErrorCode::kTimeout);
  cloud->faults().clear();
  EXPECT_TRUE(cloud->get(token, "files/a").value.ok());
}

TEST_F(ProviderFaultsTest, TailLatencyStretchesDelay) {
  ASSERT_TRUE(cloud->put(token, "files/a", to_bytes("payload")).value.ok());
  const auto baseline = cloud->get(token, "files/a").delay;
  cloud->faults().set_tail_latency(1.0, 10.0);
  const auto slow = cloud->get(token, "files/a").delay;
  EXPECT_GT(slow, baseline * 3);
}

TEST_F(ProviderFaultsTest, PartialWriteStoresTruncatedPrefix) {
  const Bytes data = to_bytes("0123456789abcdef");
  cloud->faults().set_partial_write_prob(1.0);
  auto put = cloud->put(token, "files/torn", data);
  EXPECT_EQ(put.value.code(), ErrorCode::kUnavailable);
  cloud->faults().clear();
  auto got = cloud->get(token, "files/torn");
  ASSERT_TRUE(got.value.ok());
  EXPECT_EQ(got.value->size(), data.size() / 2);  // the torn prefix landed
  EXPECT_NE(*got.value, data);
}

TEST_F(ProviderFaultsTest, ReadCorruptionFlipsBytes) {
  const Bytes data = to_bytes("pristine content that must not change");
  ASSERT_TRUE(cloud->put(token, "files/a", data).value.ok());
  cloud->faults().set_read_corruption_prob(1.0);
  auto got = cloud->get(token, "files/a");
  ASSERT_TRUE(got.value.ok());  // silent corruption: success with bad bytes
  EXPECT_NE(*got.value, data);
}

TEST_F(ProviderFaultsTest, LegacyAvailabilityFlagStillWorks) {
  cloud->set_available(false);
  EXPECT_FALSE(cloud->available());
  EXPECT_EQ(cloud->put(token, "files/a", to_bytes("x")).value.code(),
            ErrorCode::kUnavailable);
  cloud->set_available(true);
  EXPECT_TRUE(cloud->available());
  EXPECT_TRUE(cloud->put(token, "files/a", to_bytes("x")).value.ok());
}

// ------------------------------------------------ DepSkyClient integration

struct DepSkyResilienceTest : ::testing::Test {
  sim::SimClockPtr clock = std::make_shared<sim::SimClock>();
  std::vector<cloud::CloudProviderPtr> clouds = cloud::make_provider_fleet(clock, 4, 99);
  crypto::Drbg drbg{to_bytes("resilience-test")};
  crypto::KeyPair writer = crypto::generate_keypair(drbg);
  std::vector<cloud::AccessToken> tokens;

  DepSkyResilienceTest() {
    for (auto& c : clouds) {
      tokens.push_back(c->issue_token("alice", "fs", cloud::TokenScope::kFiles));
    }
  }

  depsky::DepSkyClient make_client() {
    depsky::DepSkyConfig cfg;
    cfg.clouds = clouds;
    cfg.f = 1;
    cfg.protocol = depsky::Protocol::kCA;
    cfg.writer = writer;
    return depsky::DepSkyClient(std::move(cfg), to_bytes("seed"));
  }
};

TEST_F(DepSkyResilienceTest, RetriesMaskATransientBlip) {
  auto client = make_client();
  // ~55% per-op transient failures on one cloud: a single try often fails,
  // but four attempts almost never all fail — and even if they did, the
  // other three clouds still form a quorum.
  clouds[1]->faults().set_transient_error_prob(0.55);
  const Bytes data = to_bytes("retry me");
  ASSERT_TRUE(client.write(tokens, "files/f", data).value.ok());
  auto r = client.read(tokens, "files/f");
  ASSERT_TRUE(r.value.ok());
  EXPECT_EQ(*r.value, data);
  EXPECT_GT(client.resilience_stats().retries, 0u);
}

TEST_F(DepSkyResilienceTest, BreakerOpensOnDeadCloudThenSkipsIt) {
  auto client = make_client();
  clouds[2]->set_available(false);
  // Each write issues >= 3 guarded ops against cloud 2 (metadata fetch,
  // share put, metadata put) — enough consecutive transport failures to
  // trip its breaker (threshold 3) within the first write.
  ASSERT_TRUE(client.write(tokens, "files/f", to_bytes("v1")).value.ok());
  EXPECT_EQ(client.cloud_health(2).state(), depsky::HealthTracker::State::kOpen);
  const auto skips_before = client.resilience_stats().breaker_skips;
  // Later operations fail fast: cloud 2 is skipped, no retries burned on it.
  ASSERT_TRUE(client.write(tokens, "files/f", to_bytes("v2")).value.ok());
  EXPECT_GT(client.resilience_stats().breaker_skips, skips_before);
  auto r = client.read(tokens, "files/f");
  ASSERT_TRUE(r.value.ok());
  EXPECT_EQ(to_string(*r.value), "v2");
}

TEST_F(DepSkyResilienceTest, ForcedProbesKeepQuorumsReachable) {
  auto client = make_client();
  // Open cloud 2's breaker while it is down...
  clouds[2]->set_available(false);
  ASSERT_TRUE(client.write(tokens, "files/f", to_bytes("data")).value.ok());
  ASSERT_FALSE(client.cloud_health(2).allow_request());
  // ...then recover it and take cloud 0 down instead. The healthy contact
  // set {0,1,3} loses cloud 0, so the quorum is only reachable by
  // conscripting the nominally-open cloud 2 — which must happen.
  clouds[2]->set_available(true);
  clouds[0]->set_available(false);
  auto r = client.read(tokens, "files/f");
  ASSERT_TRUE(r.value.ok()) << r.value.error().message;
  EXPECT_EQ(to_string(*r.value), "data");
  EXPECT_GT(client.resilience_stats().forced_probes, 0u);
}

TEST_F(DepSkyResilienceTest, SuccessfulForcedProbesHealTheBreaker) {
  auto client = make_client();
  clouds[2]->set_available(false);
  ASSERT_TRUE(client.write(tokens, "files/f", to_bytes("data")).value.ok());
  ASSERT_EQ(client.cloud_health(2).state(), depsky::HealthTracker::State::kOpen);
  clouds[2]->set_available(true);
  clouds[0]->set_available(false);
  // Reads now conscript cloud 2; its successful probes close the breaker.
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.read(tokens, "files/f").value.ok());
  EXPECT_EQ(client.cloud_health(2).state(), depsky::HealthTracker::State::kClosed);
}

TEST_F(DepSkyResilienceTest, ForcedProbesKeepWriteQuorumsReachable) {
  auto client = make_client();
  const Bytes v1 = to_bytes("version one");
  const Bytes v2 = to_bytes("version two");  // same size: one blob size
  clouds[2]->set_available(false);
  ASSERT_TRUE(client.write(tokens, "files/f", v1).value.ok());
  ASSERT_FALSE(client.cloud_health(2).allow_request());
  clouds[2]->set_available(true);
  clouds[0]->set_available(false);
  // The head fetch and the share put each miss their quorum in round one
  // ({0,1,3} with 0 down) and conscript cloud 2 in the fallback round; its
  // two successful probes then close the breaker for the metadata put.
  obs::metrics().reset();
  const auto probes_before = client.resilience_stats().forced_probes;
  auto w = client.write(tokens, "files/f", v2);
  ASSERT_TRUE(w.value.ok()) << w.value.error().message;
  EXPECT_GT(client.resilience_stats().forced_probes, probes_before);
  EXPECT_GT(obs::metrics().counter_value("depsky.forced_probes"), 0u);

  // The forced probe's data put is booked like any other acked put.
  const std::size_t blob = client.encoded_blob_size(v2.size());
  for (const auto& c : clouds) {
    const auto acks =
        obs::metrics().counter_value(obs::metric_key("depsky.put.data.acks", c->name()));
    EXPECT_EQ(obs::metrics().counter_value(
                  obs::metric_key("depsky.put.data.bytes", c->name())),
              acks * blob)
        << c->name();
  }
  EXPECT_EQ(obs::metrics().counter_value("depsky.put.data.acks{cloud-2}"), 1u);
  EXPECT_EQ(obs::metrics().counter_value("depsky.put.data.acks{cloud-0}"), 0u);
  auto r = client.read(tokens, "files/f");
  ASSERT_TRUE(r.value.ok()) << r.value.error().message;
  EXPECT_EQ(*r.value, v2);
}

TEST_F(DepSkyResilienceTest, WriteFailureNamesTheFailingClouds) {
  auto client = make_client();
  // Reads still work everywhere (so phase 1 settles), but uploads tear on
  // clouds 0 and 1: the share quorum (3 of 4) is unreachable.
  clouds[0]->faults().set_partial_write_prob(1.0);
  clouds[1]->faults().set_partial_write_prob(1.0);
  auto w = client.write(tokens, "files/f", to_bytes("doomed"));
  ASSERT_EQ(w.value.code(), ErrorCode::kUnavailable);
  const std::string& msg = w.value.error().message;
  EXPECT_NE(msg.find("2/3 acks"), std::string::npos) << msg;
  EXPECT_NE(msg.find("cloud-0=unavailable"), std::string::npos) << msg;
  EXPECT_NE(msg.find("cloud-1=unavailable"), std::string::npos) << msg;
}

// -------------------------------------------------- metrics cross-checks
//
// The client mirrors its resilience bookkeeping into the global metrics
// registry; these tests pin the two views together. The registry is global
// and cumulative, so each test zeroes it right after building its client
// (instrument handles stay valid across reset()).

TEST_F(DepSkyResilienceTest, RegistryMirrorsBreakerOpens) {
  auto client = make_client();
  obs::metrics().reset();
  clouds[2]->set_available(false);
  ASSERT_TRUE(client.write(tokens, "files/f", to_bytes("v1")).value.ok());
  const auto opened = obs::metrics().counter_value("depsky.breaker.opened{cloud-2}");
  EXPECT_GT(opened, 0u);
  EXPECT_EQ(opened, client.cloud_health(2).times_opened());
  // The healthy clouds' breakers never tripped.
  EXPECT_EQ(obs::metrics().counter_value("depsky.breaker.opened{cloud-0}"), 0u);
}

TEST_F(DepSkyResilienceTest, RegistryMirrorsRetryCounts) {
  auto client = make_client();
  obs::metrics().reset();
  clouds[1]->faults().set_transient_error_prob(0.55);
  ASSERT_TRUE(client.write(tokens, "files/f", to_bytes("retry me")).value.ok());
  ASSERT_TRUE(client.read(tokens, "files/f").value.ok());
  const auto stats = client.resilience_stats();
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(obs::metrics().counter_value("depsky.retries"), stats.retries);
}

TEST_F(DepSkyResilienceTest, RegistryMirrorsSkipsAndForcedProbes) {
  auto client = make_client();
  obs::metrics().reset();
  // Open cloud 2's breaker, then make it the only path to a quorum: the
  // client both skips it (while others suffice) and later conscripts it.
  clouds[2]->set_available(false);
  ASSERT_TRUE(client.write(tokens, "files/f", to_bytes("data")).value.ok());
  ASSERT_TRUE(client.write(tokens, "files/f", to_bytes("data2")).value.ok());
  clouds[2]->set_available(true);
  clouds[0]->set_available(false);
  ASSERT_TRUE(client.read(tokens, "files/f").value.ok());
  const auto stats = client.resilience_stats();
  EXPECT_GT(stats.breaker_skips, 0u);
  EXPECT_GT(stats.forced_probes, 0u);
  EXPECT_EQ(obs::metrics().counter_value("depsky.breaker.skips"), stats.breaker_skips);
  EXPECT_EQ(obs::metrics().counter_value("depsky.forced_probes"), stats.forced_probes);
}

TEST_F(DepSkyResilienceTest, DeadlineBoundsTimePerOperation) {
  depsky::DepSkyConfig cfg;
  cfg.clouds = clouds;
  cfg.f = 1;
  cfg.protocol = depsky::Protocol::kCA;
  cfg.writer = writer;
  cfg.retry.deadline_us = 200'000;  // tight budget
  auto client = depsky::DepSkyClient(std::move(cfg), to_bytes("seed"));
  clouds[3]->faults().set_transient_error_prob(1.0);
  ASSERT_TRUE(client.write(tokens, "files/f", to_bytes("data")).value.ok());
  EXPECT_GT(client.resilience_stats().deadline_hits, 0u);
}

// ------------------------------------- leases under coordination faults

struct LeaseResilienceTest : ::testing::Test {
  sim::SimClockPtr clock = std::make_shared<sim::SimClock>();
  std::vector<cloud::CloudProviderPtr> clouds = cloud::make_provider_fleet(clock, 4, 7);
  std::shared_ptr<coord::CoordinationService> coordination =
      std::make_shared<coord::CoordinationService>(clock, 1, 77);
  crypto::Drbg drbg{to_bytes("lease-resilience")};
  std::vector<cloud::AccessToken> tokens;
  std::shared_ptr<depsky::DepSkyClient> storage;

  LeaseResilienceTest() {
    for (auto& c : clouds) {
      tokens.push_back(c->issue_token("users", "fs", cloud::TokenScope::kFiles));
    }
    depsky::DepSkyConfig cfg;
    cfg.clouds = clouds;
    cfg.f = 1;
    cfg.writer = crypto::generate_keypair(drbg);
    storage = std::make_shared<depsky::DepSkyClient>(std::move(cfg), to_bytes("s"));
  }

  scfs::Scfs make_fs(const std::string& user, const std::string& session) {
    scfs::ScfsOptions opts;
    opts.sync_mode = scfs::SyncMode::kBlocking;
    opts.cache = std::make_shared<cache::ClientCache>();
    opts.user_id = user;
    opts.session_id = session;
    opts.lease_ttl_us = 5'000'000;
    return scfs::Scfs(storage, tokens, coordination, clock, opts);
  }
};

TEST_F(LeaseResilienceTest, ByzantineReplicaCannotGrantTwoHolders) {
  // One lying replica corrupts every lease read it serves; the quorum
  // outvotes it, so a contender still observes the live lease and is
  // refused — at no point do two clients both believe they hold the lock.
  auto alice = make_fs("alice", "a-s1");
  auto bob = make_fs("bob", "b-s1");
  coordination->replica(1).set_byzantine(true);

  ASSERT_TRUE(alice.lock("/f").ok());
  EXPECT_EQ(alice.held_epoch("/f"), std::optional<std::uint64_t>{1});
  EXPECT_EQ(bob.lock("/f").code(), ErrorCode::kConflict);

  // Expiry flips the outcome: the eviction path works through the same
  // quorum and stays exclusive (the epoch records the handover).
  clock->advance_us(5'000'000 + 1);
  ASSERT_TRUE(bob.lock("/f").ok());
  EXPECT_EQ(bob.held_epoch("/f"), std::optional<std::uint64_t>{2});
  EXPECT_EQ(alice.lock("/f").code(), ErrorCode::kConflict);
}

TEST_F(LeaseResilienceTest, ReplicaOutageDuringLeaseCasStaysExclusive) {
  // An f-replica outage during the mint CAS neither blocks acquisition nor
  // double-grants; when the replica rejoins, the surviving quorum's view
  // (one holder, monotone epoch) is what reads resolve to.
  auto alice = make_fs("alice", "a-s1");
  auto bob = make_fs("bob", "b-s1");
  coordination->set_replica_down(0, true);

  ASSERT_TRUE(alice.lock("/f").ok());
  EXPECT_EQ(bob.lock("/f").code(), ErrorCode::kConflict);
  ASSERT_TRUE(alice.unlock("/f").ok());
  ASSERT_TRUE(bob.lock("/f").ok());
  EXPECT_EQ(bob.held_epoch("/f"), std::optional<std::uint64_t>{2});

  coordination->set_replica_down(0, false);
  auto lease = scfs::read_lease(*coordination, "/f");
  ASSERT_TRUE(lease.value.ok());
  ASSERT_TRUE(lease.value->has_value());
  EXPECT_EQ((*lease.value)->holder, "bob");
  EXPECT_EQ((*lease.value)->epoch, 2u);
  EXPECT_TRUE((*lease.value)->held);
}

}  // namespace
}  // namespace rockfs
