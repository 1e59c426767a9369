// Multi-client session tests (ISSUE 4 acceptance properties): fencing
// safety — a holder whose lease expired mid-close is refused with kFenced
// and can fork neither the file nor the log chain; liveness — a crashed
// holder blocks a contender for at most one lease TTL; concurrent-writer
// recovery — merging every writer's FssAgg chain over one shared file and
// dropping a malicious writer's entries reproduces the honest bytes
// bit-identically, interleaved or not; and the chaos soak — N agents under
// crash/hang schedules converge deterministically per seed with zero lost
// updates.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "rockfs/deployment.h"
#include "rockfs/journal.h"
#include "rockfs/multiclient.h"
#include "scfs/lease.h"
#include "sim/faults.h"

namespace rockfs::core {
namespace {

constexpr std::int64_t kTtl = 5'000'000;  // 5 virtual seconds

DeploymentOptions blocking_opts(std::uint64_t seed = 2018) {
  DeploymentOptions opts;
  opts.seed = seed;
  opts.agent.sync_mode = scfs::SyncMode::kBlocking;
  opts.agent.lease_ttl_us = kTtl;
  return opts;
}

// ---------------------------------------------------------- fencing safety

TEST(Fencing, LeaseExpiredMidCloseIsFencedNotForked) {
  Deployment dep(blocking_opts());
  auto& alice = dep.add_user("alice");
  auto& bob = dep.add_user("bob");
  ASSERT_TRUE(alice.write_file("/f", to_bytes("base")).ok());
  auto before = read_log_records(*dep.coordination(), "alice");
  ASSERT_TRUE(before.value.ok());
  const std::size_t alice_records = before.value->size();

  ASSERT_TRUE(alice.lock("/f").ok());
  ASSERT_EQ(alice.held_epoch("/f"), std::optional<std::uint64_t>{1});
  auto fd = alice.open("/f");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(alice.append(*fd, to_bytes(" + alice")).ok());

  // Alice stalls pre-upload (GC pause / partition) past her TTL; bob evicts
  // the apparently-dead holder and commits his own version meanwhile.
  auto& crash = *dep.crash_schedule();
  crash.arm_hang(sim::CrashPoint::kBeforeFilePut, 2 * kTtl);
  bool bob_won = false;
  crash.set_hang_hook([&] {
    ASSERT_TRUE(bob.lock("/f").ok()) << "expired lease must be evictable";
    ASSERT_EQ(bob.held_epoch("/f"), std::optional<std::uint64_t>{2});
    ASSERT_TRUE(bob.write_file("/f", to_bytes("bob version")).ok());
    bob_won = true;  // bob keeps holding; alice's unlock below must conflict
  });
  auto st = alice.close(*fd);
  crash.set_hang_hook(nullptr);
  ASSERT_TRUE(bob_won);
  EXPECT_EQ(crash.hangs(), 1u);

  // The resumed close is fenced: rejected cleanly, nothing uploaded.
  EXPECT_EQ(st.code(), ErrorCode::kFenced) << st.error().message;

  // No file fork: every reader sees bob's version, at bob's epoch.
  alice.fs().clear_cache();
  auto content = alice.read_file("/f");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(to_string(*content), "bob version");
  auto stat = alice.stat("/f");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->epoch, 2u);

  // No log fork: alice's chain gained nothing and still audits clean.
  auto after = read_log_records(*dep.coordination(), "alice");
  ASSERT_TRUE(after.value.ok());
  EXPECT_EQ(after.value->size(), alice_records);
  auto recovery = dep.make_recovery_service("alice");
  auto audit = recovery.audit_log();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->report.ok);

  // Alice's view of her lease is stale — unlock reports the conflict while
  // bob still holds, and bob's own unlock works fine.
  EXPECT_EQ(alice.held_epoch("/f"), std::optional<std::uint64_t>{1});
  EXPECT_EQ(alice.unlock("/f").code(), ErrorCode::kConflict);
  EXPECT_TRUE(bob.unlock("/f").ok());
}

// Alice's records on her own chain (read straight from the coordination
// service).
std::vector<LogRecord> alice_chain(Deployment& dep) {
  auto records = read_log_records(*dep.coordination(), "alice");
  EXPECT_TRUE(records.value.ok());
  return records.value.ok() ? *records.value : std::vector<LogRecord>{};
}

std::string describe(const Status& st) { return st.ok() ? "ok" : st.error().message; }

TEST(Fencing, StallAfterFilePutIsFencedBeforeThePayloadUpload) {
  Deployment dep(blocking_opts());
  auto& alice = dep.add_user("alice");
  auto& bob = dep.add_user("bob");
  ASSERT_TRUE(alice.write_file("/f", to_bytes("base")).ok());
  const std::size_t alice_records = alice_chain(dep).size();
  const std::uint64_t seq_before = alice.log_seq();

  ASSERT_TRUE(alice.lock("/f").ok());
  auto fd = alice.open("/f");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(alice.append(*fd, to_bytes(" + alice")).ok());

  // The file object is durable; the stall hits before the log pipeline, so
  // the pre-flight has already passed and the log append's own check (before
  // its payload upload) is the one that must refuse.
  auto& crash = *dep.crash_schedule();
  crash.arm_hang(sim::CrashPoint::kAfterFilePut, 2 * kTtl);
  bool bob_won = false;
  crash.set_hang_hook([&] {
    ASSERT_TRUE(bob.lock("/f").ok());
    ASSERT_TRUE(bob.write_file("/f", to_bytes("bob version")).ok());
    bob_won = true;
  });
  auto st = alice.close(*fd);
  crash.set_hang_hook(nullptr);
  ASSERT_TRUE(bob_won);
  EXPECT_EQ(st.code(), ErrorCode::kFenced) << describe(st);

  // Refused before the payload upload: no record, and the slot stays
  // pristine, so the next append reuses it.
  EXPECT_EQ(alice_chain(dep).size(), alice_records);
  EXPECT_EQ(alice.log_seq(), seq_before);
  alice.fs().clear_cache();
  auto content = alice.read_file("/f");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(to_string(*content), "bob version");
}

TEST(Fencing, StallAfterLogPayloadPutBurnsTheSlotAndGoesWholeFile) {
  Deployment dep(blocking_opts());
  auto& alice = dep.add_user("alice");
  auto& bob = dep.add_user("bob");
  // Large enough that an unmarked rewrite of alice's own version logs a
  // delta, so only the divergence mark can make the next record whole-file.
  std::string base;
  for (int i = 0; i < 64; ++i) base += "line " + std::to_string(i) + " of alice's file\n";
  ASSERT_TRUE(alice.write_file("/f", to_bytes(base)).ok());
  const std::size_t alice_records = alice_chain(dep).size();
  const std::uint64_t seq_before = alice.log_seq();

  ASSERT_TRUE(alice.lock("/f").ok());
  auto fd = alice.open("/f");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(alice.append(*fd, to_bytes("fenced tail\n")).ok());

  // The payload is durable when the stall hits: only the log append's
  // post-upload check stands between it and alice's chain. Bob's commit goes
  // to another path, so /f's head stays alice's own version.
  auto& crash = *dep.crash_schedule();
  crash.arm_hang(sim::CrashPoint::kAfterLogPayloadPut, 2 * kTtl);
  bool bob_won = false;
  crash.set_hang_hook([&] {
    ASSERT_TRUE(bob.lock("/f").ok());
    ASSERT_TRUE(bob.write_file("/g", to_bytes("bob version")).ok());
    bob_won = true;
  });
  auto st = alice.close(*fd);
  crash.set_hang_hook(nullptr);
  ASSERT_TRUE(bob_won);
  EXPECT_EQ(st.code(), ErrorCode::kFenced) << describe(st);

  // The occupied slot is skipped, nothing entered the chain, and the audit
  // tolerates the gap.
  EXPECT_EQ(alice_chain(dep).size(), alice_records);
  EXPECT_EQ(alice.log_seq(), seq_before + 1);
  auto recovery = dep.make_recovery_service("alice");
  auto audit = recovery.audit_log();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->report.ok);

  // /f is divergent: alice's next committed record for it is whole-file even
  // though its base is her own, logged version.
  ASSERT_TRUE(bob.unlock("/f").ok());
  ASSERT_TRUE(alice.lock("/f").ok());
  alice.fs().clear_cache();
  ASSERT_TRUE(alice.write_file("/f", to_bytes(base + "next tail\n")).ok());
  const auto after = alice_chain(dep);
  ASSERT_EQ(after.size(), alice_records + 1);
  EXPECT_EQ(after.back().path, "/f");
  EXPECT_EQ(after.back().seq, seq_before + 1);
  EXPECT_TRUE(after.back().whole_file);
  EXPECT_TRUE(alice.unlock("/f").ok());
}

TEST(Fencing, LoggingOffStallAfterFilePutLeavesTheInodeUnmoved) {
  auto opts = blocking_opts();
  opts.agent.enable_logging = false;
  Deployment dep(opts);
  auto& alice = dep.add_user("alice");
  auto& bob = dep.add_user("bob");
  ASSERT_TRUE(alice.write_file("/f", to_bytes("base")).ok());

  ASSERT_TRUE(alice.lock("/f").ok());
  auto fd = alice.open("/f");
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(alice.append(*fd, to_bytes(" + alice")).ok());

  // No log pipeline: Scfs's own commit-side check is the only fence between
  // the stalled upload and the inode.
  auto& crash = *dep.crash_schedule();
  crash.arm_hang(sim::CrashPoint::kAfterFilePut, 2 * kTtl);
  std::uint64_t bob_version = 0;
  crash.set_hang_hook([&] {
    ASSERT_TRUE(bob.lock("/f").ok());
    ASSERT_TRUE(bob.write_file("/f", to_bytes("bob version")).ok());
    auto s = bob.stat("/f");
    ASSERT_TRUE(s.ok());
    bob_version = s->version;
  });
  auto st = alice.close(*fd);
  crash.set_hang_hook(nullptr);
  ASSERT_NE(bob_version, 0u);
  EXPECT_EQ(st.code(), ErrorCode::kFenced) << describe(st);

  // Bob's lease-validated meta entry would answer his stat from memory, so
  // read the authoritative inode through a cleared cache.
  alice.fs().clear_cache();
  auto stat = alice.stat("/f");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->version, bob_version);
  EXPECT_EQ(stat->owner, "bob");
  EXPECT_EQ(stat->epoch, 2u);
  auto content = alice.read_file("/f");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(to_string(*content), "bob version");
  EXPECT_TRUE(bob.unlock("/f").ok());
}

TEST(Fencing, CrashedHolderBlocksContenderAtMostOneTtl) {
  auto opts = blocking_opts();
  Deployment dep(opts);
  auto& alice = dep.add_user("alice");
  auto& bob = dep.add_user("bob");
  ASSERT_TRUE(alice.write_file("/f", to_bytes("base")).ok());

  ASSERT_TRUE(alice.lock("/f").ok());
  dep.crash_schedule()->arm(sim::CrashPoint::kAfterLogIntent);
  ASSERT_EQ(alice.write_file("/f", to_bytes("doomed")).code(), ErrorCode::kCrashed);
  ASSERT_FALSE(alice.logged_in());

  // The dead holder's lease wedges nobody for longer than one TTL.
  const auto blocked_from = dep.clock()->now_us();
  EXPECT_EQ(bob.lock("/f").code(), ErrorCode::kConflict);
  Status st;
  do {
    dep.clock()->advance_us(kTtl / 4);
    st = bob.lock("/f");
  } while (st.code() == ErrorCode::kConflict);
  ASSERT_TRUE(st.ok()) << st.error().message;
  EXPECT_LE(dep.clock()->now_us() - blocked_from, kTtl + kTtl / 4 + 100'000);
  ASSERT_TRUE(bob.write_file("/f", to_bytes("bob moved on")).ok());
  ASSERT_TRUE(bob.unlock("/f").ok());

  // Alice's restart replays the journal and rejoins cleanly.
  ASSERT_TRUE(dep.login_default("alice").ok());
  alice.fs().clear_cache();
  auto content = alice.read_file("/f");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(to_string(*content), "bob moved on");
}

// ----------------------------------------------- concurrent-writer recovery

TEST(SharedRecovery, DroppingMaliciousWriterIsBitIdenticalToHonestReplay) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    // One deployment where bob (later flagged malicious) interleaves garbage
    // with alice's honest writes, and a control deployment fed the identical
    // honest stream with no bob at all.
    Deployment dep(blocking_opts(seed));
    auto& alice = dep.add_user("alice");
    auto& bob = dep.add_user("bob");
    Deployment control(blocking_opts(seed));
    auto& alice_control = control.add_user("alice");

    Rng honest(seed);          // alice's content stream (shared by both runs)
    Rng interleave(seed * 101);  // bob's dice (the attacked run only)
    Bytes last_honest;
    for (int round = 0; round < 6; ++round) {
      const Bytes content = honest.next_bytes(400 + 80 * round);
      ASSERT_TRUE(alice.lock("/f").ok());
      ASSERT_TRUE(alice.write_file("/f", content).ok());
      ASSERT_TRUE(alice.unlock("/f").ok());
      ASSERT_TRUE(alice_control.write_file("/f", content).ok());
      last_honest = content;
      if (interleave.next_double() < 0.7) {
        ASSERT_TRUE(bob.lock("/f").ok());
        ASSERT_TRUE(
            bob.write_file("/f", to_bytes("RANSOMED-" + std::to_string(round))).ok());
        ASSERT_TRUE(bob.unlock("/f").ok());
      }
    }
    // Bob's final overwrite leaves the live file damaged for sure.
    ASSERT_TRUE(bob.lock("/f").ok());
    ASSERT_TRUE(bob.write_file("/f", to_bytes("RANSOMED-final")).ok());
    ASSERT_TRUE(bob.unlock("/f").ok());

    // Merging both writers' chains and dropping bob's entries re-executes
    // alice's surviving writes to exactly her last honest bytes...
    auto recovery = dep.make_recovery_service("alice");
    auto result = recovery.recover_shared_file("/f", {"bob"});
    ASSERT_TRUE(result.ok()) << result.error().message;
    EXPECT_EQ(result->content, last_honest) << "seed " << seed;
    EXPECT_GT(result->skipped_malicious, 0u);
    EXPECT_EQ(result->skipped_invalid, 0u);

    // ...bit-identical to the replay of a history where the malicious
    // entries never interleaved at all.
    auto control_recovery = control.make_recovery_service("alice");
    auto control_result = control_recovery.recover_shared_file("/f", {});
    ASSERT_TRUE(control_result.ok()) << control_result.error().message;
    EXPECT_EQ(control_result->content, result->content) << "seed " << seed;

    // The recovered version is what every client now reads.
    alice.fs().clear_cache();
    auto read_back = alice.read_file("/f");
    ASSERT_TRUE(read_back.ok());
    EXPECT_EQ(*read_back, last_honest);
    bob.fs().clear_cache();
    auto bob_view = bob.read_file("/f");
    ASSERT_TRUE(bob_view.ok());
    EXPECT_EQ(*bob_view, last_honest);
  }
}

TEST(SharedRecovery, CompromisedOwnChainStillAbortsByDefault) {
  // recover_shared_file guards like audit_log: an integrity failure in a
  // chain NOT flagged malicious aborts instead of silently dropping data.
  Deployment dep(blocking_opts());
  auto& alice = dep.add_user("alice");
  dep.add_user("bob");
  ASSERT_TRUE(alice.write_file("/f", to_bytes("v1")).ok());
  auto recovery = dep.make_recovery_service("alice");
  auto ok = recovery.recover_shared_file("/f", {});
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(to_string(ok->content), "v1");
  auto missing = recovery.recover_shared_file("/nope", {});
  EXPECT_FALSE(missing.ok());
}

// ------------------------------------------------------------- chaos soak

TEST(MultiClientSoak, ConvergesDeterministicallyPerSeed) {
  std::size_t total_fenced = 0;
  std::size_t total_crashed = 0;
  std::size_t total_evictions = 0;
  for (std::uint64_t seed : {7u, 21u, 2018u}) {
    MultiClientOptions options;
    options.seed = seed;
    options.rounds = 24;
    options.lease_ttl_us = kTtl;
    const auto first = run_multiclient_soak(options);
    const auto second = run_multiclient_soak(options);
    EXPECT_EQ(first.digest, second.digest) << "seed " << seed << " not deterministic";

    EXPECT_TRUE(first.converged()) << "seed " << seed;
    EXPECT_EQ(first.lost_updates, 0u) << "seed " << seed;
    EXPECT_EQ(first.zombie_updates, 0u) << "seed " << seed;
    EXPECT_EQ(first.divergent_reads, 0u) << "seed " << seed;
    EXPECT_GT(first.writes_committed, 0u);
    // No permanent wedge: the longest lock wait stays within one TTL (plus
    // the retry quantum).
    EXPECT_LE(first.max_blocked_us,
              static_cast<sim::SimClock::Micros>(kTtl + kTtl / 2));
    total_fenced += first.writes_fenced;
    total_crashed += first.writes_crashed;
    total_evictions += first.evictions;
  }
  // The dice must actually exercise the interesting paths across the seeds.
  EXPECT_GT(total_fenced, 0u);
  EXPECT_GT(total_crashed, 0u);
  EXPECT_GT(total_evictions, 0u);
}

TEST(MultiClientSoak, SurvivesByzantineCoordinationReplica) {
  MultiClientOptions options;
  options.seed = 11;
  options.rounds = 16;
  options.lease_ttl_us = kTtl;
  options.byzantine_coord_replica = true;
  const auto report = run_multiclient_soak(options);
  EXPECT_TRUE(report.converged());
  EXPECT_GT(report.writes_committed, 0u);
  EXPECT_LE(report.max_blocked_us,
            static_cast<sim::SimClock::Micros>(kTtl + kTtl / 2));
}

}  // namespace
}  // namespace rockfs::core
