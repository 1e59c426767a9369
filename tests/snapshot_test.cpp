#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"
#include "rockfs/attack.h"
#include "rockfs/deployment.h"

namespace rockfs::core {
namespace {

std::uint64_t hot_bytes(Deployment& dep) {
  std::uint64_t total = 0;
  for (auto& c : dep.clouds()) total += c->stored_bytes();
  return total;
}

std::uint64_t cold_bytes(Deployment& dep) {
  std::uint64_t total = 0;
  for (auto& c : dep.clouds()) total += c->cold_bytes();
  return total;
}

struct SnapshotFixture : ::testing::Test {
  Deployment dep;
  RockFsAgent& alice = dep.add_user("alice");

  // Builds a file with `versions` updates and returns the final content.
  Bytes build_versions(const std::string& path, int versions, std::uint64_t seed) {
    Rng rng(seed);
    Bytes content = rng.next_bytes(4'000);
    alice.write_file(path, content).expect("create");
    for (int i = 0; i < versions; ++i) {
      append(content, rng.next_bytes(1'200));
      alice.write_file(path, content).expect("update");
    }
    return content;
  }
};

TEST_F(SnapshotFixture, CompactionFreesHotStorage) {
  build_versions("/f", 10, 1);
  const std::uint64_t hot_before = hot_bytes(dep);
  const std::uint64_t cold_before = cold_bytes(dep);

  auto recovery = dep.make_recovery_service("alice");
  auto report = recovery.compact_file("/f");
  ASSERT_TRUE(report.ok()) << report.error().message;
  EXPECT_EQ(report->entries_archived, 11u);  // create + 10 updates
  EXPECT_GT(report->hot_bytes_freed, 0u);

  // Hot shrinks (net of the new snapshot baseline), cold grows.
  EXPECT_GT(cold_bytes(dep), cold_before);
  EXPECT_LT(hot_bytes(dep), hot_before + report->hot_bytes_freed);
  // What moved to cold is exactly what was freed from hot.
  EXPECT_EQ(cold_bytes(dep) - cold_before, report->hot_bytes_freed);
}

TEST_F(SnapshotFixture, RecoveryAfterCompactionReproducesContent) {
  const Bytes content = build_versions("/f", 5, 2);
  auto recovery = dep.make_recovery_service("alice");
  recovery.compact_file("/f").expect("compact");

  auto result = recovery.recover_file("/f", {});
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result->content, content);
  // Only the snapshot baseline was applied; the folded entries were skipped.
  EXPECT_EQ(result->applied, 1u);
}

TEST_F(SnapshotFixture, PostCompactionUpdatesReplayOnTopOfSnapshot) {
  Bytes content = build_versions("/f", 3, 3);
  auto recovery = dep.make_recovery_service("alice");
  recovery.compact_file("/f").expect("compact");

  // More work after the compaction.
  Rng rng(99);
  append(content, rng.next_bytes(2'000));
  alice.write_file("/f", content).expect("post-compaction update");

  auto result = recovery.recover_file("/f", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->content, content);
  EXPECT_EQ(result->applied, 2u);  // snapshot + one new delta
}

TEST_F(SnapshotFixture, RansomwareAfterCompactionStillRecoverable) {
  const Bytes good = build_versions("/f", 4, 4);
  auto recovery = dep.make_recovery_service("alice");
  recovery.compact_file("/f").expect("compact");

  const auto attack = ransomware_attack(alice, {"/f"}, 777);
  ASSERT_EQ(attack.files_encrypted, 1u);

  auto result = recovery.recover_file("/f", attack.malicious_seqs);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->content, good);
  EXPECT_EQ(result->skipped_malicious, 1u);
  auto read_back = alice.read_file("/f");
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(*read_back, good);
}

TEST_F(SnapshotFixture, ColdFallbackWhenPayloadsArchivedWithoutSnapshot) {
  // Adversarial setup: the payload shares get archived but no snapshot
  // exists (e.g., a compaction crashed after archival and its admin records
  // were lost). Recovery must fall back to cold storage and still succeed.
  const Bytes content = build_versions("/f", 2, 5);
  auto records = read_log_records(*dep.coordination(), "alice");
  const auto admin_tokens = dep.admin_tokens();
  for (const auto& r : *records.value) {
    for (std::size_t i = 0; i < dep.clouds().size(); ++i) {
      (void)dep.clouds()[i]->archive(admin_tokens[i],
                                     r.data_unit() + ".v1.s" + std::to_string(i));
    }
  }
  auto recovery = dep.make_recovery_service("alice");
  const auto start = dep.clock()->now_us();
  auto result = recovery.recover_file("/f", {});
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result->content, content);
  // Glacier-class retrieval: the recovery paid hours of virtual time.
  EXPECT_GT(dep.clock()->now_us() - start, 3'600'000'000LL);
}

TEST_F(SnapshotFixture, CompactAllCoversEveryFile) {
  build_versions("/a", 2, 6);
  build_versions("/b", 3, 7);
  auto recovery = dep.make_recovery_service("alice");
  auto reports = recovery.compact_all();
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports->size(), 2u);
}

TEST_F(SnapshotFixture, CompactAllSkipsTheRotationRecord) {
  build_versions("/a", 2, 8);
  build_versions("/b", 3, 9);
  ASSERT_TRUE(dep.respond_to_compromise("alice").ok());
  auto recovery = dep.make_recovery_service("alice");
  auto& audits = obs::metrics().counter("recovery.audits");
  const std::uint64_t before = audits.value();
  auto reports = recovery.compact_all();
  ASSERT_TRUE(reports.ok()) << reports.error().message;
  EXPECT_EQ(reports->size(), 2u);
  // One audit to list the files, one per compacted file; none for the
  // rotation record's sentinel path.
  EXPECT_EQ(audits.value() - before, 1u + 2u);
}

TEST_F(SnapshotFixture, AdminChainSurvivesServiceRestart) {
  build_versions("/f", 2, 8);
  {
    auto recovery1 = dep.make_recovery_service("alice");
    recovery1.compact_file("/f").expect("compact");
  }
  // A brand-new service instance must resume (not fork) the admin chain.
  auto recovery2 = dep.make_recovery_service("alice");
  auto audit = recovery2.audit_admin_log();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->report.ok);
  ASSERT_EQ(audit->records.size(), 1u);
  EXPECT_EQ(audit->records[0].op, "snapshot");

  // And appending through the new instance keeps the chain verifiable.
  const auto attack = ransomware_attack(alice, {"/f"}, 11);
  recovery2.recover_file("/f", attack.malicious_seqs).expect("recover");
  auto audit2 = recovery2.audit_admin_log();
  ASSERT_TRUE(audit2.ok());
  EXPECT_TRUE(audit2->report.ok);
  EXPECT_EQ(audit2->records.size(), 2u);
}

TEST_F(SnapshotFixture, ArchivalIsAdminOnly) {
  build_versions("/f", 1, 9);
  auto records = read_log_records(*dep.coordination(), "alice");
  const std::string key = (*records.value)[0].data_unit() + ".v1.s0";
  // The user's own stolen tokens cannot archive (and thus hide) log entries.
  const auto& ks = alice.keystore();
  EXPECT_EQ(dep.clouds()[0]->archive(ks.log_tokens[0], key).value.code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(dep.clouds()[0]->archive(ks.file_tokens[0], key).value.code(),
            ErrorCode::kPermissionDenied);
  // Admin can.
  EXPECT_TRUE(dep.clouds()[0]->archive(dep.admin_tokens()[0], key).value.ok());
  // Cold reads are admin-only as well.
  EXPECT_EQ(dep.clouds()[0]->restore_from_cold(ks.log_tokens[0], key).value.code(),
            ErrorCode::kPermissionDenied);
  EXPECT_TRUE(dep.clouds()[0]->restore_from_cold(dep.admin_tokens()[0], key).value.ok());
}

TEST_F(SnapshotFixture, PointInTimeRecoveryIgnoresSnapshotTakenAfterCutOff) {
  // History: create + one update, a cut-off instant, then one more update.
  Rng rng(21);
  Bytes content = rng.next_bytes(4'000);
  alice.write_file("/f", content).expect("create");
  append(content, rng.next_bytes(1'200));
  alice.write_file("/f", content).expect("update");
  const Bytes at_cutoff = content;
  const auto cutoff_us = dep.clock()->now_us();
  append(content, rng.next_bytes(1'200));
  alice.write_file("/f", content).expect("late update");

  // The snapshot is taken AFTER the cut-off: its baseline folds in the late
  // update, so point-in-time recovery must ignore it, replay the original
  // entries, and pull their archived payloads from the cold tier.
  auto recovery = dep.make_recovery_service("alice");
  recovery.compact_file("/f").expect("compact");

  const auto start = dep.clock()->now_us();
  auto result = recovery.recover_file_at("/f", cutoff_us);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result->content, at_cutoff);
  EXPECT_EQ(result->applied, 2u);  // create + first update; no baseline
  // Glacier-class retrieval: the replay paid hours of virtual time.
  EXPECT_GT(dep.clock()->now_us() - start, 3'600'000'000LL);
}

TEST_F(SnapshotFixture, CompactionOfUnknownPathFails) {
  auto recovery = dep.make_recovery_service("alice");
  EXPECT_FALSE(recovery.compact_file("/nothing-here").ok());
}

}  // namespace
}  // namespace rockfs::core
