#include <gtest/gtest.h>

#include "common/rng.h"
#include "rockfs/attack.h"
#include "rockfs/audit.h"
#include "rockfs/deployment.h"

namespace rockfs::core {
namespace {

// ------------------------------------------------------------- entropy

TEST(Entropy, KnownDistributions) {
  EXPECT_DOUBLE_EQ(byte_entropy({}), 0.0);
  EXPECT_DOUBLE_EQ(byte_entropy(Bytes(1000, 0x42)), 0.0);  // constant
  // Uniform over 256 values -> 8 bits/byte.
  Bytes uniform(256 * 16);
  for (std::size_t i = 0; i < uniform.size(); ++i) uniform[i] = static_cast<Byte>(i);
  EXPECT_NEAR(byte_entropy(uniform), 8.0, 1e-9);
  // English-ish text sits far below ciphertext.
  const Bytes text = to_bytes(
      "it is a truth universally acknowledged that a single man in possession "
      "of a good fortune must be in want of a wife");
  EXPECT_LT(byte_entropy(text), 5.0);
  // Pseudo-random bytes look like ciphertext.
  Rng rng(3);
  EXPECT_GT(byte_entropy(rng.next_bytes(4096)), 7.8);
}

// ------------------------------------------------- analyzer on a fixture

LogRecord make_record(std::uint64_t seq, const std::string& path, const std::string& op,
                      bool whole, std::int64_t ts_us, std::uint64_t size = 100) {
  LogRecord r;
  r.seq = seq;
  r.user = "alice";
  r.path = path;
  r.version = seq + 1;
  r.op = op;
  r.whole_file = whole;
  r.payload_size = size;
  r.timestamp_us = ts_us;
  return r;
}

TEST(AuditAnalyzer, QueryFilters) {
  AuditAnalyzer analyzer({
      make_record(0, "/a", "create", true, 1'000'000),
      make_record(1, "/a", "update", false, 2'000'000),
      make_record(2, "/b", "create", true, 3'000'000),
      make_record(3, "/a", "delete", true, 9'000'000),
  });
  AuditQuery by_path;
  by_path.path = "/a";
  EXPECT_EQ(analyzer.query(by_path).size(), 3u);

  AuditQuery by_op;
  by_op.op = "create";
  EXPECT_EQ(analyzer.query(by_op).size(), 2u);

  AuditQuery by_time;
  by_time.from_us = 1'500'000;
  by_time.to_us = 4'000'000;
  EXPECT_EQ(analyzer.query(by_time).size(), 2u);

  AuditQuery by_seq;
  by_seq.min_seq = 2;
  by_seq.max_seq = 3;
  EXPECT_EQ(analyzer.query(by_seq).size(), 2u);

  AuditQuery combined;
  combined.path = "/a";
  combined.op = "update";
  const auto hits = analyzer.query(combined);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->seq, 1u);
}

TEST(AuditAnalyzer, Stats) {
  AuditAnalyzer analyzer({
      make_record(0, "/a", "create", true, 1'000'000, 500),
      make_record(1, "/a", "update", false, 2'000'000, 80),
      make_record(2, "/b", "create", true, 3'000'000, 300),
  });
  const UsageStats s = analyzer.stats();
  EXPECT_EQ(s.total_operations, 3u);
  EXPECT_EQ(s.total_log_bytes, 880u);
  EXPECT_EQ(s.whole_file_entries, 2u);
  EXPECT_EQ(s.delta_entries, 1u);
  EXPECT_EQ(s.ops_by_type.at("create"), 2u);
  EXPECT_EQ(s.ops_by_path.at("/a"), 2u);
  EXPECT_EQ(s.first_op_us, 1'000'000);
  EXPECT_EQ(s.last_op_us, 3'000'000);
}

TEST(AuditAnalyzer, MassRewriteDetectorFlagsBursts) {
  std::vector<LogRecord> records;
  std::uint64_t seq = 0;
  // Normal activity: creations and a scattered delta update.
  records.push_back(make_record(seq++, "/a", "create", true, 1'000'000));
  records.push_back(make_record(seq++, "/b", "create", true, 60'000'000));
  records.push_back(make_record(seq++, "/a", "update", false, 400'000'000));
  // Burst: 4 files rewritten whole within 30 virtual seconds.
  const std::int64_t t0 = 1'000'000'000;
  for (int i = 0; i < 4; ++i) {
    records.push_back(make_record(seq++, "/f" + std::to_string(i), "update", true,
                                  t0 + i * 8'000'000));
  }
  AuditAnalyzer analyzer(std::move(records));
  const auto flagged = analyzer.detect_mass_rewrite();
  EXPECT_EQ(flagged.size(), 4u);
  EXPECT_TRUE(flagged.contains(3) && flagged.contains(6));
  EXPECT_FALSE(flagged.contains(2));  // the lone legitimate update
}

TEST(AuditAnalyzer, NormalWorkloadNotFlagged) {
  std::vector<LogRecord> records;
  std::uint64_t seq = 0;
  // Spread-out edits of two files over hours: no burst.
  for (int i = 0; i < 20; ++i) {
    records.push_back(make_record(seq++, i % 2 == 0 ? "/a" : "/b", "update", i % 4 == 0,
                                  static_cast<std::int64_t>(i) * 600'000'000));
  }
  AuditAnalyzer analyzer(std::move(records));
  EXPECT_TRUE(analyzer.detect_mass_rewrite().empty());
}

// --------------------------------------- end-to-end: detect the ransomware

struct DetectionFixture : ::testing::Test {
  Deployment dep;
  RockFsAgent& alice = dep.add_user("alice");
};

TEST_F(DetectionFixture, DetectsRealRansomwareWithoutGroundTruth) {
  // Normal work (low-entropy text files, edited over time).
  std::vector<std::string> paths;
  for (int i = 0; i < 5; ++i) {
    const std::string path = "/docs/d" + std::to_string(i);
    std::string text = "document " + std::to_string(i) + "\n";
    for (int l = 0; l < 50; ++l) text += "line of perfectly ordinary prose\n";
    alice.write_file(path, to_bytes(text)).expect("write");
    paths.push_back(path);
  }
  dep.clock()->advance_seconds(3600);  // an hour passes
  alice.write_file(paths[0], to_bytes("a small honest edit\n")).expect("edit");
  dep.clock()->advance_seconds(3600);

  // The attack.
  const auto attack = ransomware_attack(alice, paths, 4242);

  // The admin audits and detects — WITHOUT using the attack's ground truth.
  auto recovery = dep.make_recovery_service("alice");
  auto audit = recovery.audit_log();
  ASSERT_TRUE(audit.ok());
  AuditAnalyzer analyzer(audit->records);
  const auto suspected = analyzer.detect_mass_rewrite();
  EXPECT_EQ(suspected, attack.malicious_seqs);

  // Recovery driven purely by the detector restores every file: d0 to its
  // last legitimate edit, the others to their original prose.
  auto results = recovery.recover_all(suspected);
  ASSERT_TRUE(results.ok());
  for (const auto& r : *results) {
    const std::string text = to_string(r.content);
    if (r.path == paths[0]) {
      EXPECT_NE(text.find("honest edit"), std::string::npos) << r.path;
    } else {
      EXPECT_NE(text.find("ordinary prose"), std::string::npos) << r.path;
    }
  }
}

TEST_F(DetectionFixture, EntropyRefinementDropsLowEntropyRewrites) {
  // A legitimate batch job rewrites several text files at once — the
  // metadata detector flags it, but entropy filtering clears it.
  std::vector<std::string> paths;
  for (int i = 0; i < 4; ++i) {
    const std::string path = "/gen/g" + std::to_string(i);
    alice.write_file(path, to_bytes("seed")).expect("write");
    paths.push_back(path);
  }
  for (const auto& path : paths) {
    std::string regenerated;
    for (int l = 0; l < 80; ++l) regenerated += "regenerated text content, low entropy\n";
    alice.write_file(path, to_bytes(regenerated)).expect("rewrite");
  }

  auto recovery = dep.make_recovery_service("alice");
  auto audit = recovery.audit_log();
  ASSERT_TRUE(audit.ok());
  AuditAnalyzer analyzer(audit->records);
  const auto suspected = analyzer.detect_mass_rewrite();
  EXPECT_FALSE(suspected.empty());  // metadata alone cries wolf

  // Fetch payloads through the admin's storage and check entropy.
  auto storage = dep.make_recovery_service("alice");  // fresh tokens/state
  const auto admin_tokens = dep.admin_tokens();
  depsky::DepSkyConfig cfg;
  cfg.clouds = dep.clouds();
  cfg.f = 1;
  crypto::Drbg drbg(to_bytes("audit-test"));
  cfg.writer = crypto::generate_keypair(drbg);
  cfg.trusted_writers.push_back(dep.secrets("alice").user_signer);
  depsky::DepSkyClient client(std::move(cfg), to_bytes("seed"));

  const auto confirmed = analyzer.filter_by_entropy(
      suspected, [&](const LogRecord& r) -> Result<Bytes> {
        auto payload = client.read(admin_tokens, r.data_unit());
        if (!payload.value.ok()) return Error{payload.value.error()};
        return unwrap_log_payload(*payload.value);
      });
  EXPECT_TRUE(confirmed.empty());  // low-entropy rewrites are not ransomware
}

}  // namespace
}  // namespace rockfs::core
