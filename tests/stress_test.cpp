// Stress / determinism soak for the parallel DepSky hot path (labelled
// `stress` in ctest; the CI `tsan` matrix entry runs it under
// -DROCKFS_SANITIZE=thread):
//
//   1. the determinism contract — a seeded workload produces byte-identical
//      DepSky metadata, file contents, metrics and golden trace dumps
//      whether the fan-out ran inline or on 2 or 8 pool threads (barrier
//      joins compose completion from virtual delays, so thread scheduling
//      can never leak into results),
//   2. the same equivalence through the whole deployment stack (agents,
//      SCFS close path, recovery audit) via DeploymentOptions::executor_threads,
//   3. the straggler property — under first-quorum joins (real cancellation,
//      emulated wall-clock latency), a cancelled straggler landing late
//      never corrupts quorum results or double-counts put.data.{bytes,acks},
//   4. the derived join rule — latency emulation without a pool still joins
//      as a barrier, so the straggler's ack is always included,
//   5. a shared prepared signer key — threads whose first checks against
//      it race (the first one builds its comb) all reach verify()'s verdicts.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/executor.h"
#include "common/rng.h"
#include "crypto/signature.h"
#include "depsky/client.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rockfs/deployment.h"

namespace rockfs {
namespace {

constexpr std::uint64_t kSeeds[] = {2018, 31337, 4242, 777};

// ---- 1. DepSky-level equivalence: inline vs 2 vs 8 threads ----

struct DepSkyRun {
  std::vector<Bytes> contents;       // read-back of every unit, in order
  std::vector<std::uint64_t> versions;
  std::uint64_t final_clock_us = 0;
  depsky::DepSkyClient::ResilienceStats stats;
  std::string trace_json;
  std::string metrics_json;
};

// A seeded mixed workload against a 4-cloud fleet with mild chaos armed:
// writes, overwrites, reads, head_version probes. Returns every observable
// artifact the determinism contract covers.
DepSkyRun run_depsky_workload(std::uint64_t seed, std::size_t threads) {
  obs::metrics().reset();
  obs::tracer().reset();
  obs::tracer().set_capacity(obs::Tracer::kDefaultCapacity);

  auto clock = std::make_shared<sim::SimClock>();
  auto clouds = cloud::make_provider_fleet(clock, 4, seed * 31 + 5);
  crypto::Drbg drbg{to_bytes("stress-" + std::to_string(seed))};

  depsky::DepSkyConfig cfg;
  cfg.clouds = clouds;
  cfg.f = 1;
  cfg.protocol = depsky::Protocol::kCA;
  cfg.writer = crypto::generate_keypair(drbg);
  // No latency emulation, so every quorum join is a barrier: the
  // deterministic discipline.
  if (threads > 0) cfg.executor = std::make_shared<common::ThreadPool>(threads);
  depsky::DepSkyClient client(std::move(cfg), to_bytes("stress-seed"));

  std::vector<cloud::AccessToken> tokens;
  for (auto& c : clouds) {
    tokens.push_back(c->issue_token("alice", "fs", cloud::TokenScope::kFiles));
  }
  // Mild chaos: retries and breaker traffic must replay identically too.
  clouds[1]->faults().set_transient_error_prob(0.15);
  clouds[2]->faults().set_tail_latency(0.3, 5.0);

  Rng rng(seed ^ 0x5744'6b53ULL);
  DepSkyRun run;
  constexpr std::size_t kUnits = 4;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t u = 0; u < kUnits; ++u) {
      const std::string unit = "files/stress/u" + std::to_string(u);
      const std::size_t size = 1024 + static_cast<std::size_t>(rng.next_u64() % 4096);
      auto wrote = client.write(tokens, unit, rng.next_bytes(size));
      clock->advance_us(wrote.delay);
      wrote.value.expect("stress write");
    }
    for (std::size_t u = 0; u < kUnits; ++u) {
      const std::string unit = "files/stress/u" + std::to_string(u);
      auto read = client.read(tokens, unit);
      clock->advance_us(read.delay);
      run.contents.push_back(read.value.expect("stress read"));
      auto head = client.head_version(tokens, unit);
      clock->advance_us(head.delay);
      run.versions.push_back(head.value.expect("stress head"));
    }
  }
  run.final_clock_us = static_cast<std::uint64_t>(clock->now_us());
  run.stats = client.resilience_stats();
  run.trace_json = obs::tracer().to_json();
  run.metrics_json = obs::metrics().to_json();
  return run;
}

void expect_identical(const DepSkyRun& base, const DepSkyRun& other,
                      const std::string& what) {
  EXPECT_EQ(base.contents, other.contents) << what;
  EXPECT_EQ(base.versions, other.versions) << what;
  EXPECT_EQ(base.final_clock_us, other.final_clock_us) << what;
  EXPECT_EQ(base.stats.attempts, other.stats.attempts) << what;
  EXPECT_EQ(base.stats.retries, other.stats.retries) << what;
  EXPECT_EQ(base.stats.breaker_skips, other.stats.breaker_skips) << what;
  EXPECT_EQ(base.stats.forced_probes, other.stats.forced_probes) << what;
  EXPECT_EQ(base.stats.deadline_hits, other.stats.deadline_hits) << what;
  EXPECT_EQ(base.metrics_json, other.metrics_json) << what;
  EXPECT_EQ(base.trace_json, other.trace_json) << what;
}

TEST(StressDeterminism, DepSkyRunsAreByteIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : kSeeds) {
    const DepSkyRun inline_run = run_depsky_workload(seed, /*threads=*/0);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const DepSkyRun pooled = run_depsky_workload(seed, threads);
      expect_identical(inline_run, pooled,
                       "seed " + std::to_string(seed) + ", threads " +
                           std::to_string(threads));
    }
  }
}

TEST(StressDeterminism, DifferentSeedsDiverge) {
  const DepSkyRun a = run_depsky_workload(kSeeds[0], 4);
  const DepSkyRun b = run_depsky_workload(kSeeds[1], 4);
  EXPECT_NE(a.metrics_json, b.metrics_json);
  EXPECT_NE(a.trace_json, b.trace_json);
}

// ---- 2. Full-stack equivalence through DeploymentOptions::executor_threads ----

struct StackRun {
  std::vector<Bytes> files;
  std::uint64_t final_clock_us = 0;
  std::string trace_json;
  std::string metrics_json;
};

StackRun run_stack_workload(std::uint64_t seed, std::size_t executor_threads) {
  obs::metrics().reset();
  obs::tracer().reset();
  obs::tracer().set_capacity(obs::Tracer::kDefaultCapacity);

  core::DeploymentOptions opts;
  opts.seed = seed;
  opts.executor_threads = executor_threads;
  core::Deployment dep(opts);
  auto& agent = dep.add_user("alice");
  Rng rng(seed * 17 + 3);

  dep.clouds()[1]->faults().set_transient_error_prob(0.2);
  dep.clouds()[3]->faults().set_tail_latency(0.4, 4.0);

  agent.write_file("/stress/a.dat", rng.next_bytes(24 << 10)).expect("write a");
  agent.write_file("/stress/b.dat", rng.next_bytes(8 << 10)).expect("write b");
  for (int i = 0; i < 2; ++i) {
    auto fd = agent.open("/stress/a.dat");
    fd.expect("open");
    agent.append(*fd, rng.next_bytes(2 << 10)).expect("append");
    agent.close(*fd).expect("close");
  }
  agent.drain_background();

  auto recovery = dep.make_recovery_service("alice");
  recovery.audit_log().expect("audit");

  StackRun run;
  run.files.push_back(agent.read_file("/stress/a.dat").expect("read a"));
  run.files.push_back(agent.read_file("/stress/b.dat").expect("read b"));
  run.final_clock_us = static_cast<std::uint64_t>(dep.clock()->now_us());
  run.trace_json = obs::tracer().to_json();
  run.metrics_json = obs::metrics().to_json();
  return run;
}

TEST(StressDeterminism, FullStackIsByteIdenticalAcrossThreadCounts) {
  for (const std::uint64_t seed : {kSeeds[0], kSeeds[2]}) {
    const StackRun inline_run = run_stack_workload(seed, 0);
    for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
      const StackRun pooled = run_stack_workload(seed, threads);
      const std::string what =
          "seed " + std::to_string(seed) + ", threads " + std::to_string(threads);
      EXPECT_EQ(inline_run.files, pooled.files) << what;
      EXPECT_EQ(inline_run.final_clock_us, pooled.final_clock_us) << what;
      EXPECT_EQ(inline_run.metrics_json, pooled.metrics_json) << what;
      EXPECT_EQ(inline_run.trace_json, pooled.trace_json) << what;
    }
  }
}

// ---- 3. the straggler property under real cancellation ----

// First-quorum joins with a permanently slow cloud and wall-clock latency
// emulation: every write freezes its quorum at the (n-f)-th ack and cancels
// the straggler mid-sleep. The straggler still lands (its simulated put
// already happened; only the emulated wait is interrupted) — the property is
// that its late ack is never counted: per-cloud put.data.{bytes,acks} stay
// in exact byte conservation with the included acks, and every unit reads
// back as the last thing written.
TEST(StressStraggler, CancelledStragglerNeverDoubleCountsOrCorrupts) {
  obs::metrics().reset();
  obs::tracer().reset();

  const std::uint64_t seed = 90210;
  auto clock = std::make_shared<sim::SimClock>();
  auto clouds = cloud::make_provider_fleet(clock, 4, seed);
  crypto::Drbg drbg{to_bytes("straggler")};

  depsky::DepSkyConfig cfg;
  cfg.clouds = clouds;
  cfg.f = 1;
  cfg.protocol = depsky::Protocol::kCA;
  cfg.writer = crypto::generate_keypair(drbg);
  // A multi-thread pool plus latency emulation: joins are first-quorum.
  cfg.executor = std::make_shared<common::ThreadPool>(4);
  // Scale virtual microseconds down to a sliver of wall time, honouring the
  // token so a freeze interrupts the straggler's sleep immediately.
  cfg.emulate_latency = [](sim::SimClock::Micros virtual_us,
                           const common::CancelToken& cancel) {
    cancel.sleep_for(std::chrono::microseconds(virtual_us / 20'000 + 1));
  };
  depsky::DepSkyClient client(std::move(cfg), to_bytes("straggler-seed"));

  std::vector<cloud::AccessToken> tokens;
  for (auto& c : clouds) {
    tokens.push_back(c->issue_token("alice", "fs", cloud::TokenScope::kFiles));
  }
  // Cloud 3 is always the straggler: every request eats a 30x tail.
  clouds[3]->faults().set_tail_latency(1.0, 30.0);

  Rng rng(seed);
  constexpr std::size_t kDataSize = 8 << 10;
  constexpr int kWrites = 12;
  const std::size_t blob = client.encoded_blob_size(kDataSize);
  std::vector<Bytes> last_written(3);

  for (int w = 0; w < kWrites; ++w) {
    const std::string unit = "files/straggler/u" + std::to_string(w % 3);
    Bytes payload = rng.next_bytes(kDataSize);
    auto wrote = client.write(tokens, unit, payload);
    clock->advance_us(wrote.delay);
    ASSERT_TRUE(wrote.value.ok());
    last_written[w % 3] = std::move(payload);
  }

  // Byte conservation over *included* acks only. Every write succeeds, so
  // each data phase freezes at exactly n-f = 3 included acks; the cancelled
  // straggler's late ack must not have been added.
  std::uint64_t total_bytes = 0, total_acks = 0;
  for (const auto& c : clouds) {
    total_bytes += obs::metrics().counter_value(
        obs::metric_key("depsky.put.data.bytes", c->name()));
    total_acks += obs::metrics().counter_value(
        obs::metric_key("depsky.put.data.acks", c->name()));
  }
  EXPECT_EQ(total_acks, static_cast<std::uint64_t>(kWrites) * 3);
  EXPECT_EQ(total_bytes, total_acks * blob);

  // And the quorum results were never corrupted: every unit reads back as
  // the last acked payload (reads run under the same first-quorum joins).
  for (std::size_t u = 0; u < last_written.size(); ++u) {
    auto read = client.read(tokens, "files/straggler/u" + std::to_string(u));
    clock->advance_us(read.delay);
    ASSERT_TRUE(read.value.ok());
    EXPECT_EQ(*read.value, last_written[u]) << "unit " << u;
  }
}

// ---- 4. the join rule is derived, not configured ----

// Latency emulation on its own does not make joins first-quorum: without a
// multi-thread pool nothing overlaps in wall-clock time, so freezing early
// would only drop acks. Same straggler as above, no executor — every branch
// is included, so the straggler's ack counts on every write.
TEST(StressStraggler, EmulatedLatencyWithoutPoolIncludesEveryBranch) {
  obs::metrics().reset();
  obs::tracer().reset();

  const std::uint64_t seed = 90210;
  auto clock = std::make_shared<sim::SimClock>();
  auto clouds = cloud::make_provider_fleet(clock, 4, seed);
  crypto::Drbg drbg{to_bytes("straggler")};

  depsky::DepSkyConfig cfg;
  cfg.clouds = clouds;
  cfg.f = 1;
  cfg.protocol = depsky::Protocol::kCA;
  cfg.writer = crypto::generate_keypair(drbg);
  cfg.emulate_latency = [](sim::SimClock::Micros virtual_us,
                           const common::CancelToken& cancel) {
    cancel.sleep_for(std::chrono::microseconds(virtual_us / 20'000 + 1));
  };
  depsky::DepSkyClient client(std::move(cfg), to_bytes("straggler-seed"));

  std::vector<cloud::AccessToken> tokens;
  for (auto& c : clouds) {
    tokens.push_back(c->issue_token("alice", "fs", cloud::TokenScope::kFiles));
  }
  clouds[3]->faults().set_tail_latency(1.0, 30.0);

  Rng rng(seed);
  constexpr std::size_t kDataSize = 8 << 10;
  constexpr int kWrites = 6;
  const std::size_t blob = client.encoded_blob_size(kDataSize);
  for (int w = 0; w < kWrites; ++w) {
    auto wrote = client.write(tokens, "files/barrier/u" + std::to_string(w % 2),
                              rng.next_bytes(kDataSize));
    clock->advance_us(wrote.delay);
    ASSERT_TRUE(wrote.value.ok());
  }

  std::uint64_t total_bytes = 0, total_acks = 0;
  for (const auto& c : clouds) {
    const auto acks = obs::metrics().counter_value(
        obs::metric_key("depsky.put.data.acks", c->name()));
    EXPECT_EQ(acks, static_cast<std::uint64_t>(kWrites)) << c->name();
    total_acks += acks;
    total_bytes += obs::metrics().counter_value(
        obs::metric_key("depsky.put.data.bytes", c->name()));
  }
  EXPECT_EQ(total_acks, static_cast<std::uint64_t>(kWrites) * clouds.size());
  EXPECT_EQ(total_bytes, total_acks * blob);
}

// ---- 5. Concurrent first checks against one prepared key ----

// Agents of one deployment share prepared keys (the admin's, each user's),
// and a key's first check builds its comb. Each round, several threads
// start at one moment on a fresh shared key, each at its own offset into
// valid, tampered and foreign signatures, so every first check needs the
// comb at once. Every verdict must equal the one-off verify()'s, and every
// thread must end up reading the one comb.
TEST(StressPreparedKey, ConcurrentFirstChecksAgreeWithTheOneOffCheck) {
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 6;
  crypto::Drbg drbg{to_bytes("prepared-stress")};
  for (int round = 0; round < kRounds; ++round) {
    const crypto::KeyPair kp = crypto::generate_keypair(drbg);
    const crypto::KeyPair other = crypto::generate_keypair(drbg);
    std::vector<std::pair<Bytes, Bytes>> checks;  // (message, signature)
    std::vector<bool> expected;
    for (std::size_t i = 0; i < 2 * kThreads; ++i) {
      Bytes msg = drbg.generate(64);
      Bytes sig = crypto::sign(i % 3 == 2 ? other : kp, msg);
      if (i % 3 == 1) sig[70] ^= 0x01;  // a byte of s
      expected.push_back(crypto::verify(kp.public_key, msg, sig));
      checks.emplace_back(std::move(msg), std::move(sig));
    }

    const auto key = std::make_shared<const crypto::PreparedKey>(kp.public_key);
    std::vector<std::vector<bool>> verdicts(kThreads);
    std::vector<const crypto::Comb*> combs(kThreads);
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (std::size_t j = 0; j < checks.size(); ++j) {
          const auto& [msg, sig] = checks[(t + j) % checks.size()];
          verdicts[t].push_back(key->verify(msg, sig));
        }
        combs[t] = &key->comb();
      });
    }
    for (auto& thread : threads) thread.join();
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(combs[t], combs[0]) << "round " << round;
      for (std::size_t j = 0; j < checks.size(); ++j) {
        EXPECT_EQ(verdicts[t][j], expected[(t + j) % checks.size()])
            << "round " << round << " thread " << t << " check " << j;
      }
    }
  }
}

}  // namespace
}  // namespace rockfs
