// Crash-consistency soak tests (ISSUE 3 acceptance property): for EVERY
// client-side crash point and several seeds, a crash mid-close (or
// mid-recovery) followed by a restart must converge back to a consistent
// deployment — the FssAgg chain audits clean, the writer's next_seq agrees
// with the stored aggregates, the intent journal drains, no orphaned log
// payloads remain, and a subsequent recover_all reproduces byte-identical
// file contents to a run that never crashed. Plus the anti-entropy
// scrubber's repair guarantees.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "rockfs/deployment.h"
#include "rockfs/journal.h"
#include "rockfs/scrub.h"

namespace rockfs::core {
namespace {

Bytes content_for(const std::string& tag, std::uint64_t seed) {
  // Big enough that deltas vs whole files differ and payloads span shares.
  return to_bytes(tag + "-" + std::to_string(seed) + "-" + std::string(256, 'x') + tag);
}

/// What one scenario run observed, for cross-run comparison.
struct RunOutcome {
  std::map<std::string, Bytes> live;       // path -> bytes read back after recovery
  std::map<std::string, Bytes> recovered;  // path -> bytes recover_all produced
  std::vector<coord::Tuple> records;       // user-chain record tuples (determinism)
  std::size_t crashes = 0;
};

/// Runs the standard workload (three writes over two files), crashing once at
/// `point` when given, then recover_all (resuming if the recovery crashed),
/// then checks every convergence invariant and fills `out`.
void run_scenario(std::uint64_t seed, std::optional<sim::CrashPoint> point,
                  RunOutcome& out) {
  DeploymentOptions opts;
  opts.seed = seed;
  Deployment dep(opts);
  dep.add_user("alice");
  if (point.has_value()) dep.crash_schedule()->arm(*point);

  const std::vector<std::pair<std::string, Bytes>> writes = {
      {"/docs/a.txt", content_for("a1", seed)},
      {"/docs/b.txt", content_for("b1", seed)},
      {"/docs/a.txt", content_for("a2", seed)},
  };
  for (const auto& [path, content] : writes) {
    auto st = dep.agent("alice").write_file(path, content);
    if (st.code() == ErrorCode::kCrashed) {
      ++out.crashes;
      ASSERT_FALSE(dep.agent("alice").logged_in());  // the session died with the process
      // Restart: login replays the intent journal, then the user retries.
      ASSERT_TRUE(dep.login_default("alice").ok());
      auto retry = dep.agent("alice").write_file(path, content);
      ASSERT_TRUE(retry.ok()) << retry.error().message;
    } else {
      ASSERT_TRUE(st.ok()) << st.error().message;
    }
  }

  auto recovery = dep.make_recovery_service("alice");
  auto recovered = recovery.recover_all({});
  if (!recovered.ok() && recovered.code() == ErrorCode::kCrashed) {
    ++out.crashes;
    // The resumed run must pick up after the last checkpointed file.
    recovered = recovery.recover_all({});
  }
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  for (const auto& f : *recovered) out.recovered[f.path] = f.content;

  // --- convergence invariants ---

  // 1. The chain audits clean end to end.
  auto audit = recovery.audit_log();
  ASSERT_TRUE(audit.ok()) << audit.error().message;
  EXPECT_TRUE(audit->report.ok);
  EXPECT_FALSE(audit->report.aggregate_mismatch);
  EXPECT_FALSE(audit->report.count_mismatch);
  EXPECT_TRUE(audit->discarded_seqs.empty());
  auto admin_audit = recovery.audit_admin_log();
  ASSERT_TRUE(admin_audit.ok());
  EXPECT_TRUE(admin_audit->report.ok);

  // 2. The live writer agrees with the stored aggregates.
  auto agg = read_aggregates(*dep.coordination(), "alice");
  ASSERT_TRUE(agg.value.ok());
  EXPECT_EQ(dep.agent("alice").log_seq(), agg.value->count);

  // 3. The intent journals drained (user and admin chain).
  for (const std::string& chain : {std::string("alice"), std::string("admin:alice")}) {
    IntentJournal journal(chain, dep.coordination());
    auto pending = journal.pending();
    ASSERT_TRUE(pending.value.ok());
    EXPECT_TRUE(pending.value->empty()) << chain << " journal not drained";
  }

  // 4. No orphaned log payloads, and every entry at repairable redundancy.
  auto scrub = dep.make_scrubber("alice").scrub();
  ASSERT_TRUE(scrub.ok()) << scrub.error().message;
  EXPECT_TRUE(scrub->orphan_units.empty());
  EXPECT_EQ(scrub->entries_unrepairable, 0u);

  // 5. A recover_all never logs a file's "recover" record twice per session
  //    (the resumed run skips checkpointed files).
  std::map<std::string, std::size_t> recover_counts;
  for (const auto& r : admin_audit->records) {
    if (r.op == "recover") ++recover_counts[r.path];
  }
  for (const auto& [path, count] : recover_counts) {
    EXPECT_EQ(count, 1u) << "double recover record for " << path;
  }

  for (const auto& [path, content] : writes) {
    (void)content;
    auto read = dep.agent("alice").read_file(path);
    ASSERT_TRUE(read.ok()) << path << ": " << read.error().message;
    out.live[path] = *read;
  }
  auto records = read_log_records(*dep.coordination(), "alice");
  ASSERT_TRUE(records.value.ok());
  for (const auto& r : *records.value) out.records.push_back(r.to_tuple());
}

class CrashSoak
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(CrashSoak, RestartConvergesToNoCrashState) {
  const auto point = static_cast<sim::CrashPoint>(std::get<0>(GetParam()));
  const std::uint64_t seed = std::get<1>(GetParam());

  const std::map<std::string, Bytes> expected = {
      {"/docs/a.txt", content_for("a2", seed)},
      {"/docs/b.txt", content_for("b1", seed)},
  };

  RunOutcome crashed;
  run_scenario(seed, point, crashed);
  if (HasFatalFailure()) return;
  EXPECT_EQ(crashed.crashes, 1u) << "crash point never fired";

  // Byte-identical to the no-crash outcome: the recovered contents and the
  // live files equal exactly what the workload wrote.
  EXPECT_EQ(crashed.live, expected);
  for (const auto& [path, content] : crashed.recovered) {
    ASSERT_TRUE(expected.contains(path)) << path;
    EXPECT_EQ(content, expected.at(path)) << path;
  }

  // And the no-crash run agrees (its recover_all sees the same bytes).
  RunOutcome reference;
  run_scenario(seed, std::nullopt, reference);
  if (HasFatalFailure()) return;
  EXPECT_EQ(reference.crashes, 0u);
  EXPECT_EQ(reference.live, expected);
  EXPECT_EQ(reference.recovered, expected);

  // Determinism: the same crash scenario replayed bit-for-bit.
  RunOutcome repeat;
  run_scenario(seed, point, repeat);
  if (HasFatalFailure()) return;
  EXPECT_EQ(repeat.records, crashed.records);
  EXPECT_EQ(repeat.live, crashed.live);
  EXPECT_EQ(repeat.recovered, crashed.recovered);
}

INSTANTIATE_TEST_SUITE_P(
    EveryPointEverySeed, CrashSoak,
    ::testing::Combine(::testing::Range<std::size_t>(0, sim::kClosePathCrashPointCount),
                       ::testing::Values(2024u, 7u, 99u)),
    [](const ::testing::TestParamInfo<CrashSoak::ParamType>& info) {
      return std::string(sim::crash_point_name(
                 static_cast<sim::CrashPoint>(std::get<0>(info.param)))) +
             "_seed" + std::to_string(std::get<1>(info.param));
    });

TEST(JournalReplay, StaleFencingEpochIntentIsDiscarded) {
  // The fourth replay outcome (beyond committed/adopted/discarded-pristine):
  // an intent whose fencing epoch fell behind the path's lease epoch is
  // DISCARDED even though its payload is durable and digest-matches —
  // adopting it would fork past the eviction winner's committed version.
  DeploymentOptions opts;
  opts.agent.sync_mode = scfs::SyncMode::kBlocking;
  opts.agent.lease_ttl_us = 5'000'000;
  Deployment dep(opts);
  auto& alice = dep.add_user("alice");
  auto& bob = dep.add_user("bob");
  ASSERT_TRUE(alice.write_file("/f", to_bytes("base")).ok());
  auto before = read_log_records(*dep.coordination(), "alice");
  ASSERT_TRUE(before.value.ok());
  const std::size_t alice_records = before.value->size();

  // Alice crashes with her lease held AFTER the payload upload: the intent
  // is journaled with her epoch and the payload is fully durable.
  ASSERT_TRUE(alice.lock("/f").ok());
  dep.crash_schedule()->arm(sim::CrashPoint::kAfterLogPayloadPut);
  ASSERT_EQ(alice.write_file("/f", to_bytes("base doomed")).code(),
            ErrorCode::kCrashed);
  {
    IntentJournal journal("alice", dep.coordination());
    auto pending = journal.pending();
    ASSERT_TRUE(pending.value.ok());
    ASSERT_EQ(pending.value->size(), 1u);
    EXPECT_EQ((*pending.value)[0].fence_epoch, 1u);
  }

  // Bob evicts the dead holder (epoch 1 -> 2) and commits his version.
  dep.clock()->advance_us(opts.agent.lease_ttl_us + 1);
  ASSERT_TRUE(bob.lock("/f").ok());
  ASSERT_TRUE(bob.write_file("/f", to_bytes("bob owns this now")).ok());
  ASSERT_TRUE(bob.unlock("/f").ok());

  // Relogin: replay must classify the stale intent as discarded — the
  // journal drains but NO record is adopted onto alice's chain.
  ASSERT_TRUE(dep.login_default("alice").ok());
  {
    IntentJournal journal("alice", dep.coordination());
    auto pending = journal.pending();
    ASSERT_TRUE(pending.value.ok());
    EXPECT_TRUE(pending.value->empty());
  }
  auto after = read_log_records(*dep.coordination(), "alice");
  ASSERT_TRUE(after.value.ok());
  EXPECT_EQ(after.value->size(), alice_records);

  alice.fs().clear_cache();
  auto content = alice.read_file("/f");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(to_string(*content), "bob owns this now");

  // The chain still audits clean and alice keeps writing (whole-file after
  // the divergence, so recovery never applies a delta onto a missing base).
  auto recovery = dep.make_recovery_service("alice");
  auto audit = recovery.audit_log();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->report.ok);
  EXPECT_TRUE(audit->discarded_seqs.empty());
  ASSERT_TRUE(alice.lock("/f").ok());
  ASSERT_TRUE(alice.write_file("/f", to_bytes("alice rejoins")).ok());
  ASSERT_TRUE(alice.unlock("/f").ok());
  auto final_audit = recovery.audit_log();
  ASSERT_TRUE(final_audit.ok());
  EXPECT_TRUE(final_audit->report.ok);
}

TEST(CrashSchedule, OneShotAndSkipHits) {
  sim::CrashSchedule crash;
  crash.arm(sim::CrashPoint::kAfterFilePut, /*skip_hits=*/1);
  EXPECT_NO_THROW(crash.maybe_crash(sim::CrashPoint::kAfterFilePut));  // skipped
  EXPECT_NO_THROW(crash.maybe_crash(sim::CrashPoint::kBeforeFilePut));  // other point
  EXPECT_THROW(crash.maybe_crash(sim::CrashPoint::kAfterFilePut), sim::ClientCrash);
  EXPECT_FALSE(crash.armed());  // one-shot
  EXPECT_NO_THROW(crash.maybe_crash(sim::CrashPoint::kAfterFilePut));
  EXPECT_EQ(crash.crashes(), 1u);
  EXPECT_EQ(crash.last_crash(), sim::CrashPoint::kAfterFilePut);
  EXPECT_EQ(crash.hits(sim::CrashPoint::kAfterFilePut), 3u);
}

TEST(Scrubber, RestoresDegradedEntriesToFullRedundancy) {
  DeploymentOptions opts;
  opts.seed = 31;
  Deployment dep(opts);
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/f1", content_for("f1", 31)).ok());
  ASSERT_TRUE(alice.write_file("/f2", content_for("f2", 31)).ok());

  auto records = read_log_records(*dep.coordination(), "alice");
  ASSERT_TRUE(records.value.ok());
  ASSERT_EQ(records.value->size(), 2u);

  // Degrade every entry to the bare minimum k = f+1 = 2 surviving shares.
  for (const auto& r : *records.value) {
    ASSERT_TRUE(dep.clouds()[1]->lose_object(r.data_unit() + ".v1.s1").ok());
    ASSERT_TRUE(dep.clouds()[3]->lose_object(r.data_unit() + ".v1.s3").ok());
  }

  auto report = dep.make_scrubber("alice").scrub();
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report->entries_degraded, 2u);
  EXPECT_EQ(report->entries_repaired, 2u);
  EXPECT_EQ(report->entries_unrepairable, 0u);
  EXPECT_EQ(report->shares_repaired, 4u);

  // Full n-share redundancy restored: every cloud holds its share again.
  for (const auto& r : *records.value) {
    for (std::size_t i = 0; i < dep.clouds().size(); ++i) {
      EXPECT_TRUE(dep.clouds()[i]->exists(r.data_unit() + ".v1.s" + std::to_string(i)))
          << r.data_unit() << " share " << i;
    }
  }

  // A second pass finds nothing to do.
  auto again = dep.make_scrubber("alice").scrub();
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->entries_degraded, 0u);
  EXPECT_EQ(again->entries_repaired, 0u);
}

TEST(Scrubber, ReseedsLostMetadataReplicas) {
  DeploymentOptions opts;
  opts.seed = 32;
  Deployment dep(opts);
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/f", content_for("meta", 32)).ok());

  auto records = read_log_records(*dep.coordination(), "alice");
  ASSERT_TRUE(records.value.ok());
  ASSERT_EQ(records.value->size(), 1u);
  const std::string meta_key = (*records.value)[0].data_unit() + ".meta";

  // Drop below the n-f read quorum of metadata replicas (2 of 4 left).
  ASSERT_TRUE(dep.clouds()[0]->lose_object(meta_key).ok());
  ASSERT_TRUE(dep.clouds()[2]->lose_object(meta_key).ok());

  auto report = dep.make_scrubber("alice").scrub();
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report->entries_degraded, 1u);
  EXPECT_EQ(report->meta_repaired, 2u);
  for (std::size_t i = 0; i < dep.clouds().size(); ++i) {
    EXPECT_TRUE(dep.clouds()[i]->exists(meta_key)) << i;
  }
}

TEST(Scrubber, ReportsOrphanedLogUnits) {
  DeploymentOptions opts;
  opts.seed = 33;
  Deployment dep(opts);
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/f", content_for("orphan", 33)).ok());

  // A crashed append's leftover: a payload share with no record and no
  // pending intent.
  const auto& token = alice.keystore().log_tokens[0];
  auto put = dep.clouds()[0]->put(token, "logs/alice/e000000000917.v1.s0",
                                  to_bytes("stranded-share"));
  ASSERT_TRUE(put.value.ok()) << put.value.error().message;

  auto report = dep.make_scrubber("alice").scrub();
  ASSERT_TRUE(report.ok()) << report.error().message;
  ASSERT_EQ(report->orphan_units.size(), 1u);
  EXPECT_EQ(report->orphan_units[0], "logs/alice/e000000000917");
}

TEST(Scrubber, ChainNamedLikeAMetadataKeyHasNoOrphans) {
  DeploymentOptions opts;
  opts.seed = 34;
  Deployment dep(opts);
  auto& user = dep.add_user("a.meta");
  ASSERT_TRUE(user.write_file("/f", content_for("dotted", 34)).ok());

  // Every key under logs/a.meta/ belongs to a recorded entry; ".meta" inside
  // the chain name must not cut the unit short.
  auto report = dep.make_scrubber("a.meta").scrub();
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_TRUE(report->orphan_units.empty())
      << report->orphan_units.size() << " orphans, first " << report->orphan_units[0];
}

}  // namespace
}  // namespace rockfs::core
