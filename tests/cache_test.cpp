// Client cache subsystem tests (ARCHITECTURE §13): the sharded
// version-validated cache, the write-back coalescing queue, and the
// multi-client coherence properties the subsystem must preserve —
//   * warm opens serve from the sealed cache with zero cloud reads, and a
//     peer's commit invalidates the stale entry via the version check;
//   * the negative tier answers repeated misses locally and dies the moment
//     the owner creates the path or any code path observes its tuple;
//   * write-back coalesces small closes into ONE commit pipeline, and a
//     fenced writer's dirty entry is rejected (kFenced) with every cache
//     tier for the path dropped — never served, never committed;
//   * close-to-open consistency holds across a lease handoff (unlock
//     flushes before the release) at any seed and thread count;
//   * session-key rotation and compromise response drop the whole per-user
//     cache (zero post-rotation hits);
//   * the chaos soak converges to byte-identical content with the cache on
//     or off, at 1 or 8 executor threads, across seeds.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cache/cache.h"
#include "cache/writeback.h"
#include "obs/metrics.h"
#include "rockfs/deployment.h"
#include "rockfs/multiclient.h"

namespace rockfs::core {
namespace {

std::uint64_t ctr(const std::string& name) {
  return obs::metrics().counter_value(name);
}

// ------------------------------------------------------------ cache units

TEST(ClientCacheUnit, LruEvictsUnderByteBudget) {
  cache::CacheOptions opt;
  opt.shards = 1;  // one shard so the byte budget is exact
  opt.capacity_bytes = 64;
  cache::ClientCache c(opt);

  const Bytes blob(32, Byte{0xAA});
  c.put_data("/a", blob, 1);
  c.put_data("/b", blob, 1);
  EXPECT_EQ(c.data_entries(), 2u);
  EXPECT_EQ(c.data_bytes(), 64u);

  // Touch /a so /b is the LRU victim when /c overflows the budget.
  EXPECT_TRUE(c.get_data("/a").has_value());
  c.put_data("/c", blob, 1);
  EXPECT_EQ(c.data_entries(), 2u);
  EXPECT_TRUE(c.get_data("/a").has_value());
  EXPECT_FALSE(c.get_data("/b").has_value());
  EXPECT_TRUE(c.get_data("/c").has_value());

  // An entry bigger than the whole budget still caches (and evicts the rest).
  c.put_data("/huge", Bytes(128, Byte{0xBB}), 3);
  EXPECT_TRUE(c.get_data("/huge").has_value());
  EXPECT_EQ(c.data_entries(), 1u);
}

TEST(ClientCacheUnit, NegativeEntriesExpireAndClear) {
  cache::CacheOptions opt;
  opt.negative_ttl_us = 2'000'000;
  cache::ClientCache c(opt);

  c.note_missing("/gone", 1'000'000);
  EXPECT_TRUE(c.is_negative("/gone", 1'500'000));
  EXPECT_TRUE(c.is_negative("/gone", 2'999'999));
  EXPECT_FALSE(c.is_negative("/gone", 3'000'001));  // past noted_at + TTL

  c.note_missing("/gone2", 0);
  EXPECT_TRUE(c.is_negative("/gone2", 1));
  c.clear_negative("/gone2");
  EXPECT_FALSE(c.is_negative("/gone2", 1));
}

TEST(ClientCacheUnit, DropAllClearsEveryTierAndBumpsGeneration) {
  cache::ClientCache c;
  c.put_data("/f", Bytes{Byte{1}}, 1);
  cache::MetaEntry meta;
  meta.version = 1;
  c.put_meta("/f", meta);
  c.note_missing("/missing", 0);
  const auto gen = c.drop_generation();

  c.drop_all();
  EXPECT_EQ(c.data_entries(), 0u);
  EXPECT_EQ(c.meta_entries(), 0u);
  EXPECT_EQ(c.negative_entries(), 0u);
  EXPECT_EQ(c.drop_generation(), gen + 1);
}

TEST(WriteBackUnit, CoalescingFreezesBaseAndCountsAbsorbedCloses) {
  cache::WriteBackQueue q(/*enabled=*/true);

  cache::DirtyEntry first;
  first.content = to_bytes("v1");
  first.log_base = to_bytes("base");
  first.base_version = 7;
  first.write_epoch = 3;
  first.first_dirty_us = 100;
  EXPECT_FALSE(q.stage("/f", first));

  cache::DirtyEntry second;
  second.content = to_bytes("v2-longer");
  second.log_base = to_bytes("WRONG");  // must be ignored: base is frozen
  second.base_version = 99;             // ditto
  second.write_epoch = 4;
  second.first_dirty_us = 900;
  EXPECT_TRUE(q.stage("/f", second));

  auto staged = q.snapshot("/f");
  ASSERT_TRUE(staged.has_value());
  EXPECT_EQ(to_string(staged->content), "v2-longer");  // newest content wins
  EXPECT_EQ(to_string(staged->log_base), "base");      // base frozen at first
  EXPECT_EQ(staged->base_version, 7u);
  EXPECT_EQ(staged->write_epoch, 4u);                  // epochs track latest
  EXPECT_EQ(staged->first_dirty_us, 100);              // deadline anchor kept
  EXPECT_EQ(staged->coalesced, 1u);

  EXPECT_EQ(q.due_paths(100 + cache::kFlushDeadlineUs - 1).size(), 0u);
  EXPECT_EQ(q.due_paths(100 + cache::kFlushDeadlineUs).size(), 1u);

  ASSERT_TRUE(q.take("/f").has_value());
  EXPECT_FALSE(q.contains("/f"));
}

// ------------------------------------------------- validated serving paths

TEST(CacheIntegration, WarmOpenServesFromCacheWithoutCloudReads) {
  Deployment dep;
  auto& alice = dep.agent(dep.add_user("alice").user_id());
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("cached bytes")).ok());
  alice.drain_background();

  // Cold read fills the cache (the close already sealed it write-through,
  // so this is warm immediately — assert the hit and zero DepSky work).
  const auto hits0 = ctr("cache.data.hits");
  const auto attempts0 = ctr("depsky.attempts");
  auto warm = alice.read_file("/doc");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(to_string(*warm), "cached bytes");
  EXPECT_EQ(ctr("cache.data.hits"), hits0 + 1);
  EXPECT_EQ(ctr("depsky.attempts"), attempts0);  // no cloud round at all
}

TEST(CacheIntegration, PeerCommitInvalidatesStaleEntryByVersion) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  auto& bob = dep.add_user("bob");
  ASSERT_TRUE(alice.write_file("/shared", to_bytes("from alice")).ok());
  alice.drain_background();
  ASSERT_TRUE(alice.read_file("/shared").ok());  // alice's cache is warm

  ASSERT_TRUE(bob.write_file("/shared", to_bytes("from bob, newer")).ok());
  bob.drain_background();

  // Alice's cached entry carries the old version; the head-version check
  // must force a refetch, never serve the stale bytes.
  const auto misses0 = ctr("cache.data.misses");
  auto fresh = alice.read_file("/shared");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(to_string(*fresh), "from bob, newer");
  EXPECT_EQ(ctr("cache.data.misses"), misses0 + 1);
}

// ------------------------------------------------------------ negative tier

TEST(NegativeCache, RepeatMissesServeLocallyUntilOwnCreate) {
  Deployment dep;
  auto& alice = dep.add_user("alice");

  ASSERT_EQ(alice.stat("/nope").code(), ErrorCode::kNotFound);  // fills
  const auto neg0 = ctr("cache.negative.hits");
  ASSERT_EQ(alice.stat("/nope").code(), ErrorCode::kNotFound);
  ASSERT_EQ(alice.open("/nope").code(), ErrorCode::kNotFound);
  EXPECT_EQ(ctr("cache.negative.hits"), neg0 + 2);

  // The owner's create kills the cached miss on EITHER CAS outcome; the
  // subsequent stat must not answer kNotFound from cache.
  ASSERT_TRUE(alice.write_file("/nope", to_bytes("now real")).ok());
  alice.drain_background();
  auto st = alice.stat("/nope");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->version, 1u);
}

TEST(NegativeCache, ObservingPeerTupleInvalidatesCachedMiss) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  auto& bob = dep.add_user("bob");

  ASSERT_EQ(alice.stat("/peer-file").code(), ErrorCode::kNotFound);
  ASSERT_TRUE(bob.write_file("/peer-file", to_bytes("bob made this")).ok());
  bob.drain_background();

  // Within the TTL the cached miss still answers (the documented staleness
  // bound for non-coordinating readers)...
  EXPECT_EQ(alice.stat("/peer-file").code(), ErrorCode::kNotFound);

  // ...but a readdir observes bob's coordination tuple, which invalidates
  // the negative entry immediately — no TTL wait.
  auto listing = alice.readdir("/");
  ASSERT_TRUE(listing.ok());
  auto st = alice.stat("/peer-file");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->owner, "bob");
}

// ------------------------------------------------------- write-back layer

AgentOptions writeback_agent() {
  AgentOptions opt;
  opt.sync_mode = scfs::SyncMode::kBlocking;
  opt.write_back = true;
  return opt;
}

TEST(WriteBack, SmallClosesCoalesceIntoOneCommitPipeline) {
  Deployment dep;
  auto& alice = dep.add_user("alice", writeback_agent());
  auto& bob = dep.add_user("bob");

  const auto flushes0 = ctr("cache.wb.flushes");
  const auto appends0 = ctr("log.append.count");
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        alice.write_file("/journal", to_bytes("rev " + std::to_string(i))).ok());
  }
  EXPECT_EQ(alice.fs().dirty_entries(), 1u);      // five closes, one entry
  EXPECT_EQ(ctr("cache.wb.flushes"), flushes0);   // nothing committed yet

  // Read-your-writes: alice sees her staged bytes before any flush.
  auto own = alice.read_file("/journal");
  ASSERT_TRUE(own.ok());
  EXPECT_EQ(to_string(*own), "rev 4");

  ASSERT_TRUE(alice.flush("/journal").ok());       // fsync semantics
  EXPECT_EQ(alice.fs().dirty_entries(), 0u);
  EXPECT_EQ(ctr("cache.wb.flushes"), flushes0 + 1);   // ONE pipeline
  EXPECT_EQ(ctr("log.append.count"), appends0 + 1);   // ONE log entry

  // One commit → one version; the peer observes exactly the last content.
  auto st = alice.stat("/journal");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->version, 1u);
  auto theirs = bob.read_file("/journal");
  ASSERT_TRUE(theirs.ok());
  EXPECT_EQ(to_string(*theirs), "rev 4");
}

TEST(WriteBack, FencedWritersDirtyEntryIsRejectedAndDropped) {
  DeploymentOptions dopt;
  dopt.agent.sync_mode = scfs::SyncMode::kBlocking;
  dopt.agent.lease_ttl_us = 5'000'000;
  Deployment dep(dopt);
  AgentOptions wb = dopt.agent;
  wb.write_back = true;
  auto& alice = dep.add_user("alice", wb);
  auto& bob = dep.add_user("bob");

  // Alice stages a write under her lease, then stalls past the TTL.
  ASSERT_TRUE(alice.lock("/doc").ok());
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("[alice-zombie]")).ok());
  EXPECT_EQ(alice.fs().dirty_entries(), 1u);
  dep.clock()->advance_us(dopt.agent.lease_ttl_us * 2);

  // Bob evicts the expired holder (epoch bump) and commits.
  ASSERT_TRUE(bob.lock("/doc").ok());
  ASSERT_TRUE(bob.write_file("/doc", to_bytes("[bob-committed]")).ok());
  bob.drain_background();
  ASSERT_TRUE(bob.unlock("/doc").ok());

  // Alice's flush must be refused on the stale epoch, and the path's cache
  // state — including the staged bytes — must be gone.
  const auto fenced0 = ctr("cache.wb.fenced");
  EXPECT_EQ(alice.flush("/doc").code(), ErrorCode::kFenced);
  EXPECT_EQ(ctr("cache.wb.fenced"), fenced0 + 1);
  EXPECT_EQ(alice.fs().dirty_entries(), 0u);

  // Both views now show bob's bytes; the zombie token survives nowhere.
  for (auto* agent : {&alice, &bob}) {
    auto content = agent->read_file("/doc");
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(to_string(*content), "[bob-committed]");
  }
}

TEST(WriteBack, CloseToOpenConsistencyAcrossLeaseHandoff) {
  for (std::uint64_t seed : {11u, 23u, 37u}) {
    for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
      DeploymentOptions dopt;
      dopt.seed = seed;
      dopt.executor_threads = threads;
      dopt.agent.sync_mode = scfs::SyncMode::kBlocking;
      dopt.agent.write_back = true;
      Deployment dep(dopt);
      auto& alice = dep.add_user("alice");
      auto& bob = dep.add_user("bob");
      const std::string body = "seed " + std::to_string(seed);

      ASSERT_TRUE(alice.lock("/handoff").ok());
      ASSERT_TRUE(alice.write_file("/handoff", to_bytes(body)).ok());
      EXPECT_EQ(alice.fs().dirty_entries(), 1u);  // staged, not committed
      // unlock() flushes the staged entry BEFORE releasing the lease: the
      // next holder's open observes the close that happened before it.
      ASSERT_TRUE(alice.unlock("/handoff").ok());
      EXPECT_EQ(alice.fs().dirty_entries(), 0u);

      ASSERT_TRUE(bob.lock("/handoff").ok());
      auto seen = bob.read_file("/handoff");
      ASSERT_TRUE(seen.ok());
      EXPECT_EQ(to_string(*seen), body) << "seed " << seed << " threads " << threads;

      ASSERT_TRUE(bob.write_file("/handoff", to_bytes(body + " + bob")).ok());
      ASSERT_TRUE(bob.unlock("/handoff").ok());
      auto final_view = alice.read_file("/handoff");
      ASSERT_TRUE(final_view.ok());
      EXPECT_EQ(to_string(*final_view), body + " + bob");
    }
  }
}

// --------------------------------------------- rotation / revocation drops

TEST(CacheDrop, SessionKeyRotationDropsEveryTierZeroPostRotationHits) {
  DeploymentOptions dopt;
  dopt.agent.session_key_validity_us = 10'000'000;  // 10 virtual seconds
  Deployment dep(dopt);
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/sealed", to_bytes("pre-rotation")).ok());
  alice.drain_background();
  ASSERT_TRUE(alice.read_file("/sealed").ok());  // warm under the old key
  ASSERT_GE(alice.cache()->data_entries(), 1u);

  dep.clock()->advance_us(dopt.agent.session_key_validity_us * 2);

  // The first cache touch rotates S_U; the hook must drop ALL tiers, so the
  // read refetches — zero data hits land after the rotation.
  const auto hits0 = ctr("cache.data.hits");
  const auto gen0 = alice.cache()->drop_generation();
  auto post = alice.read_file("/sealed");
  ASSERT_TRUE(post.ok());
  EXPECT_EQ(to_string(*post), "pre-rotation");
  EXPECT_EQ(alice.cache()->drop_generation(), gen0 + 1);
  EXPECT_EQ(ctr("cache.data.hits"), hits0);  // the rotated read is a miss

  // Entries resealed under the fresh key serve warm again.
  auto warm = alice.read_file("/sealed");
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(ctr("cache.data.hits"), hits0 + 1);
}

TEST(CacheDrop, CompromiseResponseDropsPerUserCache) {
  Deployment dep;
  auto& mallory = dep.add_user("mallory");
  ASSERT_TRUE(mallory.write_file("/loot", to_bytes("sensitive")).ok());
  mallory.drain_background();
  ASSERT_TRUE(mallory.read_file("/loot").ok());
  ASSERT_GE(mallory.cache()->data_entries(), 1u);

  const auto gen0 = mallory.cache()->drop_generation();
  auto response = dep.respond_to_compromise("mallory");
  ASSERT_TRUE(response.ok());
  EXPECT_TRUE(response->rotated);
  EXPECT_GE(mallory.cache()->drop_generation(), gen0 + 1);
}

// ------------------------------------------------------------- chaos soak

TEST(CacheSoak, ContentDigestIdenticalCacheOnOffAcrossThreads) {
  for (std::uint64_t seed : {11u, 23u, 37u}) {
    std::string reference;
    for (bool cache_on : {true, false}) {
      std::string config_digest;
      for (std::size_t threads : {std::size_t{1}, std::size_t{8}}) {
        MultiClientOptions opt;
        opt.seed = seed;
        opt.rounds = 18;
        opt.client_cache = cache_on;
        opt.executor_threads = threads;
        auto report = run_multiclient_soak(opt);
        EXPECT_TRUE(report.converged())
            << "seed " << seed << " cache " << cache_on << " threads " << threads
            << ": lost=" << report.lost_updates << " zombies=" << report.zombie_updates
            << " divergent=" << report.divergent_reads;
        // Same config at different thread counts: the FULL digest (counters
        // included) must match bit-for-bit (barrier-join determinism).
        if (config_digest.empty()) config_digest = report.digest;
        EXPECT_EQ(report.digest, config_digest)
            << "thread-count divergence at seed " << seed << " cache " << cache_on;
        // Across cache on/off only the converged CONTENT must match.
        if (reference.empty()) reference = report.content_digest;
        EXPECT_EQ(report.content_digest, reference)
            << "cache on/off content divergence at seed " << seed;
      }
    }
  }
}

TEST(CacheSoak, WriteBackSoakConvergesDeterministically) {
  MultiClientOptions opt;
  opt.seed = 5;
  opt.rounds = 18;
  opt.write_back = true;
  auto first = run_multiclient_soak(opt);
  EXPECT_TRUE(first.converged())
      << "lost=" << first.lost_updates << " zombies=" << first.zombie_updates
      << " divergent=" << first.divergent_reads;
  EXPECT_GT(first.writes_attempted, 0u);

  auto again = run_multiclient_soak(opt);
  EXPECT_EQ(first.digest, again.digest);

  opt.executor_threads = 8;
  auto threaded = run_multiclient_soak(opt);
  EXPECT_EQ(first.digest, threaded.digest);
}

}  // namespace
}  // namespace rockfs::core
