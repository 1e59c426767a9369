// A RecoveryService that audits a chain it has audited before must reach
// the verdict a fresh service reaches from scratch, whatever happened to the
// chain in between: each test keeps one service across a change to the
// coordination store and compares its audit with a fresh service's.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "obs/metrics.h"
#include "rockfs/attack.h"
#include "rockfs/deployment.h"

namespace rockfs::core {
namespace {

void expect_same_audit(const Result<LogAudit>& kept, const Result<LogAudit>& fresh) {
  ASSERT_EQ(kept.ok(), fresh.ok())
      << (kept.ok() ? fresh.error().message : kept.error().message);
  if (!kept.ok()) {
    EXPECT_EQ(kept.code(), fresh.code());
    EXPECT_EQ(kept.error().message, fresh.error().message);
    return;
  }
  ASSERT_EQ(kept->records.size(), fresh->records.size());
  for (std::size_t i = 0; i < kept->records.size(); ++i) {
    EXPECT_EQ(kept->records[i].to_tuple(), fresh->records[i].to_tuple()) << "record " << i;
  }
  EXPECT_EQ(kept->report.ok, fresh->report.ok);
  EXPECT_EQ(kept->report.corrupt_entries, fresh->report.corrupt_entries);
  EXPECT_EQ(kept->report.aggregate_mismatch, fresh->report.aggregate_mismatch);
  EXPECT_EQ(kept->report.count_mismatch, fresh->report.count_mismatch);
  EXPECT_EQ(kept->discarded_seqs, fresh->discarded_seqs);
}

coord::Template record_template(const std::string& user, const std::string& seq) {
  std::vector<std::string> fields(13, "*");
  fields[0] = "rocklog";
  fields[1] = user;
  fields[2] = seq;
  return coord::Template::of(std::move(fields));
}

coord::Template aggregates_template(const std::string& user) {
  return coord::Template::of({"rockagg", user, "*", "*", "*"});
}

// Alice's chain holds more records than an insertion sort's cut-off, so a
// sort that reorders equal seqs would show.
constexpr int kFiles = 6;
constexpr int kVersions = 4;

struct RememberedAudit : ::testing::Test {
  Deployment dep;
  RockFsAgent& alice = dep.add_user("alice");
  std::unique_ptr<RecoveryService> kept;

  void SetUp() override {
    for (int v = 0; v < kVersions; ++v) {
      for (int f = 0; f < kFiles; ++f) write(f, v);
    }
    kept = std::make_unique<RecoveryService>(dep.make_recovery_service("alice"));
    auto first = kept->audit_log();
    ASSERT_TRUE(first.ok()) << first.error().message;
    ASSERT_TRUE(first->report.ok);
  }

  void write(int file, int version) {
    const std::string path = "/f" + std::to_string(file);
    alice.write_file(path, to_bytes(path + " v" + std::to_string(version) + "\n"))
        .expect("write");
  }

  std::vector<LogRecord> records() {
    auto records = read_log_records(*dep.coordination(), "alice");
    return std::move(records.value).value();
  }

  template <typename F>
  void at_every_replica(F&& f) {
    for (std::size_t i = 0; i < dep.coordination()->replica_count(); ++i) {
      f(dep.coordination()->replica(i));
    }
  }

  // Audits alice's chain with the kept service (twice: the second audit
  // finds nothing new) and with a fresh one; returns the fresh audit.
  LogAudit compare() {
    auto fresh = dep.make_recovery_service("alice").audit_log();
    expect_same_audit(kept->audit_log(), fresh);
    expect_same_audit(kept->audit_log(), fresh);
    return fresh.ok() ? *fresh : LogAudit{};
  }
};

TEST_F(RememberedAudit, MoreCloses) {
  for (int f = 0; f < 3; ++f) write(f, kVersions);
  const LogAudit audit = compare();
  EXPECT_TRUE(audit.report.ok);
  EXPECT_EQ(audit.records.size(), static_cast<std::size_t>(kFiles * kVersions + 3));
}

TEST_F(RememberedAudit, InPlaceRewriteOfAnEarlierTuple) {
  LogRecord forged = records()[1];
  forged.path = "/somewhere-else";
  at_every_replica([&](coord::Replica& replica) {
    replica.inp(record_template("alice", forged.to_tuple()[2]));
    replica.out(forged.to_tuple());
  });
  const LogAudit audit = compare();
  EXPECT_FALSE(audit.report.ok);
  EXPECT_EQ(audit.discarded_seqs, std::set<std::uint64_t>{forged.seq});

  write(0, kVersions);
  compare();
}

TEST_F(RememberedAudit, ForgedCopyBesideTheOriginal) {
  // A duplicate seq lands at the end of the answer, after newer records.
  LogRecord forged = records()[1];
  forged.payload_size += 1;
  at_every_replica([&](coord::Replica& replica) { replica.out(forged.to_tuple()); });
  const LogAudit audit = compare();
  EXPECT_FALSE(audit.report.ok);
  EXPECT_TRUE(audit.report.count_mismatch);
  EXPECT_EQ(audit.records.size(), static_cast<std::size_t>(kFiles * kVersions + 1));

  write(0, kVersions);
  compare();
}

TEST_F(RememberedAudit, EarlierTupleRemoved) {
  const std::string seq = records()[1].to_tuple()[2];
  at_every_replica([&](coord::Replica& replica) { replica.inp(record_template("alice", seq)); });
  const LogAudit audit = compare();
  EXPECT_FALSE(audit.report.ok);
  EXPECT_TRUE(audit.report.count_mismatch);

  write(0, kVersions);
  compare();
}

TEST_F(RememberedAudit, NewestTupleRemoved) {
  const std::string seq = records().back().to_tuple()[2];
  at_every_replica([&](coord::Replica& replica) { replica.inp(record_template("alice", seq)); });
  const LogAudit audit = compare();
  EXPECT_FALSE(audit.report.ok);
  EXPECT_TRUE(audit.report.count_mismatch);
}

TEST_F(RememberedAudit, NewestTupleRewrittenInItsLastByte) {
  // Only the answer's last byte changes: the last hex digit of the newest
  // record's mac_b, whose length and place in the answer stay the same.
  const LogRecord newest = records().back();
  coord::Tuple forged = newest.to_tuple();
  char& digit = forged[12].back();
  digit = digit == '0' ? '1' : '0';
  at_every_replica([&](coord::Replica& replica) {
    ASSERT_TRUE(replica.inp(record_template("alice", forged[2])).has_value());
    replica.out(forged);
  });
  const LogAudit audit = compare();
  EXPECT_FALSE(audit.report.ok);
  EXPECT_EQ(audit.discarded_seqs, std::set<std::uint64_t>{newest.seq});
}

TEST_F(RememberedAudit, TamperedAggregatesTuple) {
  at_every_replica([&](coord::Replica& replica) {
    auto aggregates = replica.inp(aggregates_template("alice"));
    ASSERT_TRUE(aggregates.has_value());
    coord::Tuple forged = *aggregates;
    forged[2][0] = forged[2][0] == '0' ? '1' : '0';
    replica.out(forged);
  });
  const LogAudit audit = compare();
  EXPECT_FALSE(audit.report.ok);
  EXPECT_TRUE(audit.report.aggregate_mismatch);
  EXPECT_TRUE(audit.report.corrupt_entries.empty());

  // The next close rewrites the aggregates from the agent's own state.
  write(0, kVersions);
  EXPECT_TRUE(compare().report.ok);
}

// recovery.audit.decoded counts the records an audit decoded and
// MAC-checked, recovery.audit.reused those it confirmed from the remembered
// prefix.
TEST_F(RememberedAudit, CountsDecodedAndReusedRecords) {
  struct Counts {
    std::uint64_t decoded;
    std::uint64_t reused;
  };
  const auto audit_counts = [&] {
    const auto counter = [](const char* name) { return obs::metrics().counter(name).value(); };
    const Counts before{counter("recovery.audit.decoded"), counter("recovery.audit.reused")};
    EXPECT_TRUE(kept->audit_log().ok());
    return Counts{counter("recovery.audit.decoded") - before.decoded,
                  counter("recovery.audit.reused") - before.reused};
  };
  const std::uint64_t n = kFiles * kVersions;
  Counts c = audit_counts();
  EXPECT_EQ(c.decoded, 0u);
  EXPECT_EQ(c.reused, n);

  for (int f = 0; f < 3; ++f) write(f, kVersions);
  c = audit_counts();
  EXPECT_EQ(c.decoded, 3u);
  EXPECT_EQ(c.reused, n);

  LogRecord forged = records()[1];
  forged.path = "/somewhere-else";
  at_every_replica([&](coord::Replica& replica) {
    replica.inp(record_template("alice", forged.to_tuple()[2]));
    replica.out(forged.to_tuple());
  });
  c = audit_counts();
  EXPECT_EQ(c.decoded, n + 3);
  EXPECT_EQ(c.reused, 0u);
}

TEST_F(RememberedAudit, AdminChainGrowsUnderRecovery) {
  const std::vector<std::string> victims = {"/f0", "/f1", "/f2"};
  const auto attack = ransomware_attack(alice, victims, 7);
  ASSERT_EQ(attack.files_encrypted, victims.size());
  const auto compare_admin = [&] {
    auto fresh = dep.make_recovery_service("alice").audit_admin_log();
    expect_same_audit(kept->audit_admin_log(), fresh);
    expect_same_audit(kept->audit_admin_log(), fresh);
  };
  compare_admin();
  ASSERT_TRUE(kept->recover_file("/f0", attack.malicious_seqs).ok());
  compare_admin();
  ASSERT_TRUE(kept->recover_file("/f1", attack.malicious_seqs).ok());
  compare_admin();
  auto all = kept->recover_all(attack.malicious_seqs);
  ASSERT_TRUE(all.ok()) << all.error().message;
  EXPECT_EQ(all->size(), static_cast<std::size_t>(kFiles));
  compare_admin();
  ASSERT_TRUE(kept->compact_file("/f2").ok());
  compare_admin();
  EXPECT_TRUE(compare().report.ok);
}

TEST(RememberedAuditRotation, RotationLandsBetweenTwoAudits) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  for (int i = 0; i < 4; ++i) {
    alice.write_file("/d" + std::to_string(i % 2), to_bytes("v" + std::to_string(i)))
        .expect("write");
  }
  auto& coordination = *dep.coordination();
  const coord::Tuple aggregates_before = **coordination.rdp(aggregates_template("alice")).value;
  ASSERT_TRUE(dep.respond_to_compromise("alice").ok());
  const coord::Tuple aggregates_after = **coordination.rdp(aggregates_template("alice")).value;
  const auto after = read_log_records(coordination, "alice");
  const LogRecord& rotate = after.value->back();
  ASSERT_EQ(rotate.op, rotation_record_op());

  // The admin holds the fresh keys once the rotation completes, so the kept
  // service is built now and first audits the chain as it stood before the
  // rotate record landed: the record and the refreshed aggregates are set
  // aside at every replica and put back after that audit.
  const auto put_aside = [&](bool rotated) {
    for (std::size_t i = 0; i < coordination.replica_count(); ++i) {
      auto& replica = coordination.replica(i);
      replica.inp(aggregates_template("alice"));
      if (rotated) {
        replica.out(aggregates_after);
        replica.out(rotate.to_tuple());
      } else {
        replica.inp(record_template("alice", rotate.to_tuple()[2]));
        replica.out(aggregates_before);
      }
    }
  };
  put_aside(false);
  RecoveryService kept = dep.make_recovery_service("alice");
  const auto compare = [&] {
    auto fresh = dep.make_recovery_service("alice").audit_log();
    expect_same_audit(kept.audit_log(), fresh);
    expect_same_audit(kept.audit_log(), fresh);
    return fresh.ok() && fresh->report.ok;
  };
  EXPECT_TRUE(compare());
  put_aside(true);
  EXPECT_TRUE(compare());
  // The fresh key stream starts after the rotate record, the last record
  // the kept service has seen.
  for (int i = 0; i < 3; ++i) {
    alice.write_file("/d" + std::to_string(i % 2), to_bytes("after " + std::to_string(i)))
        .expect("write");
  }
  EXPECT_TRUE(compare());
  auto recovered = kept.recover_file("/d0", {});
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  EXPECT_EQ(to_string(recovered->content), "after 2");
}

}  // namespace
}  // namespace rockfs::core
