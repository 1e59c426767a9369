#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "depsky/client.h"
#include "depsky/health.h"
#include "sim/faults.h"

namespace rockfs::depsky {
namespace {

struct DepSkyFixture : ::testing::Test {
  sim::SimClockPtr clock = std::make_shared<sim::SimClock>();
  std::vector<cloud::CloudProviderPtr> clouds = cloud::make_provider_fleet(clock, 4, 99);
  crypto::Drbg drbg{to_bytes("depsky-test")};
  crypto::KeyPair writer = crypto::generate_keypair(drbg);

  std::vector<cloud::AccessToken> file_tokens;
  std::vector<cloud::AccessToken> log_tokens;
  std::vector<cloud::AccessToken> admin_tokens;

  DepSkyFixture() {
    for (auto& c : clouds) {
      file_tokens.push_back(c->issue_token("alice", "fs", cloud::TokenScope::kFiles));
      log_tokens.push_back(c->issue_token("alice", "fs", cloud::TokenScope::kLogAppend));
      admin_tokens.push_back(c->issue_token("admin", "fs", cloud::TokenScope::kAdmin));
    }
  }

  DepSkyClient make_client(Protocol p) {
    DepSkyConfig cfg;
    cfg.clouds = clouds;
    cfg.f = 1;
    cfg.protocol = p;
    cfg.writer = writer;
    return DepSkyClient(std::move(cfg), to_bytes("seed"));
  }
};

// Metadata trust decisions so far: signature checks run and copies accepted
// by byte equality (process-wide counters, so tests diff two snapshots).
struct TrustCounts {
  std::uint64_t verified = 0;
  std::uint64_t reused = 0;

  static TrustCounts now() {
    return {obs::metrics().counter("depsky.meta.verified").value(),
            obs::metrics().counter("depsky.meta.reused").value()};
  }
  TrustCounts since(const TrustCounts& before) const {
    return {verified - before.verified, reused - before.reused};
  }
};

TEST_F(DepSkyFixture, CaWriteReadRoundTrip) {
  auto client = make_client(Protocol::kCA);
  Rng rng(1);
  const Bytes data = rng.next_bytes(100'000);
  auto w = client.write(file_tokens, "files/alice/f1", data);
  ASSERT_TRUE(w.value.ok()) << w.value.error().message;
  EXPECT_GT(w.delay, 0);
  auto r = client.read(file_tokens, "files/alice/f1");
  ASSERT_TRUE(r.value.ok()) << r.value.error().message;
  EXPECT_EQ(*r.value, data);
}

TEST_F(DepSkyFixture, AWriteReadRoundTrip) {
  auto client = make_client(Protocol::kA);
  const Bytes data = to_bytes("replicate me everywhere");
  ASSERT_TRUE(client.write(file_tokens, "files/alice/f1", data).value.ok());
  auto r = client.read(file_tokens, "files/alice/f1");
  ASSERT_TRUE(r.value.ok());
  EXPECT_EQ(*r.value, data);
}

TEST_F(DepSkyFixture, ReadMissingUnitIsNotFound) {
  auto client = make_client(Protocol::kCA);
  EXPECT_EQ(client.read(file_tokens, "files/alice/none").value.code(),
            ErrorCode::kNotFound);
  auto head = client.head_version(file_tokens, "files/alice/none");
  ASSERT_TRUE(head.value.ok());
  EXPECT_EQ(*head.value, 0u);
}

TEST_F(DepSkyFixture, VersionsAdvance) {
  auto client = make_client(Protocol::kCA);
  client.write(file_tokens, "files/f", to_bytes("v1")).value.expect("w1");
  EXPECT_EQ(*client.head_version(file_tokens, "files/f").value, 1u);
  client.write(file_tokens, "files/f", to_bytes("v2")).value.expect("w2");
  EXPECT_EQ(*client.head_version(file_tokens, "files/f").value, 2u);
  EXPECT_EQ(to_string(*client.read(file_tokens, "files/f").value), "v2");
}

TEST_F(DepSkyFixture, ToleratesOneCloudOutage) {
  auto client = make_client(Protocol::kCA);
  const Bytes data = to_bytes("resilient data");
  clouds[2]->set_available(false);
  ASSERT_TRUE(client.write(file_tokens, "files/f", data).value.ok());
  auto r = client.read(file_tokens, "files/f");
  ASSERT_TRUE(r.value.ok());
  EXPECT_EQ(*r.value, data);
  // Outage during read of a fully-written unit also tolerated.
  clouds[2]->set_available(true);
  clouds[0]->set_available(false);
  auto r2 = client.read(file_tokens, "files/f");
  ASSERT_TRUE(r2.value.ok());
  EXPECT_EQ(*r2.value, data);
}

TEST_F(DepSkyFixture, TwoOutagesExceedF) {
  auto client = make_client(Protocol::kCA);
  client.write(file_tokens, "files/f", to_bytes("data")).value.expect("w");
  clouds[0]->set_available(false);
  clouds[1]->set_available(false);
  EXPECT_EQ(client.read(file_tokens, "files/f").value.code(), ErrorCode::kUnavailable);
}

TEST_F(DepSkyFixture, ToleratesOneByzantineCloud) {
  auto client = make_client(Protocol::kCA);
  Rng rng(2);
  const Bytes data = rng.next_bytes(50'000);
  client.write(file_tokens, "files/f", data).value.expect("w");
  clouds[1]->set_byzantine(true);
  auto r = client.read(file_tokens, "files/f");
  ASSERT_TRUE(r.value.ok());
  EXPECT_EQ(*r.value, data);
}

TEST_F(DepSkyFixture, ToleratesShareCorruption) {
  auto client = make_client(Protocol::kCA);
  Rng rng(3);
  const Bytes data = rng.next_bytes(20'000);
  client.write(file_tokens, "files/f", data).value.expect("w");
  // Silently corrupt cloud 0's share of version 1.
  ASSERT_TRUE(clouds[0]->corrupt_object("files/f.v1.s0").ok());
  auto r = client.read(file_tokens, "files/f");
  ASSERT_TRUE(r.value.ok());
  EXPECT_EQ(*r.value, data);
}

TEST_F(DepSkyFixture, SingleCloudLearnsNothingUnderCA) {
  auto client = make_client(Protocol::kCA);
  const Bytes data = to_bytes(
      "TOP SECRET: the plaintext must not appear in any single cloud's objects");
  client.write(file_tokens, "files/f", data).value.expect("w");
  // Inspect every object stored at cloud 0 — the plaintext must not occur.
  auto listed = clouds[0]->list(admin_tokens[0], "");
  ASSERT_TRUE(listed.value.ok());
  for (const auto& stat : *listed.value) {
    auto obj = clouds[0]->get(admin_tokens[0], stat.key);
    ASSERT_TRUE(obj.value.ok());
    const std::string hay(obj.value->begin(), obj.value->end());
    EXPECT_EQ(hay.find("TOP SECRET"), std::string::npos) << stat.key;
  }
}

TEST_F(DepSkyFixture, CaUsesHalfTheStorageOfA) {
  auto ca = make_client(Protocol::kCA);
  auto a = make_client(Protocol::kA);
  Rng rng(4);
  const Bytes data = rng.next_bytes(1'000'000);
  ca.write(file_tokens, "files/ca", data).value.expect("w");
  std::uint64_t ca_bytes = 0;
  for (auto& c : clouds) ca_bytes += c->stored_bytes();
  a.write(file_tokens, "files/a", data).value.expect("w");
  std::uint64_t total = 0;
  for (auto& c : clouds) total += c->stored_bytes();
  const std::uint64_t a_bytes = total - ca_bytes;
  // CA ~ 2x the data size, A ~ 4x (n=4, k=2); allow metadata slack.
  EXPECT_NEAR(static_cast<double>(ca_bytes), 2e6, 1e5);
  EXPECT_NEAR(static_cast<double>(a_bytes), 4e6, 1e5);
}

TEST_F(DepSkyFixture, RejectsForgedMetadata) {
  // An attacker without the writer key plants forged metadata at one cloud;
  // the signature check must reject it on every read and fall back to honest
  // copies, whether the forged copy is ingested before or after the honest
  // copy that gets verified.
  crypto::Drbg attacker_drbg(to_bytes("attacker"));
  const crypto::KeyPair attacker = crypto::generate_keypair(attacker_drbg);
  for (const std::size_t at : {0u, 3u}) {
    const std::string unit = "files/f" + std::to_string(at);
    make_client(Protocol::kCA).write(file_tokens, unit, to_bytes("honest")).value.expect("w");
    // A fresh reader: the writer would accept its own copy without a check.
    auto client = make_client(Protocol::kCA);
    UnitMetadata forged;
    forged.unit = unit;
    forged.version = 999;
    forged.protocol = Protocol::kCA;
    forged.data_size = 1;
    forged.share_digests.assign(4, crypto::sha256(to_bytes("x")));
    forged.sign(attacker);
    clouds[at]
        ->put(file_tokens[at], DepSkyClient::metadata_key(unit), forged.serialize())
        .value.expect("plant");
    for (int read = 0; read < 3; ++read) {
      const auto before = TrustCounts::now();
      auto r = client.read(file_tokens, unit);
      ASSERT_TRUE(r.value.ok()) << "forged at cloud " << at << ", read " << read;
      EXPECT_EQ(to_string(*r.value), "honest");
      // The forged copy is checked (and rejected) every time; the honest
      // copy is checked on the first read only.
      EXPECT_EQ(TrustCounts::now().since(before).verified, read == 0 ? 2u : 1u)
          << "forged at cloud " << at << ", read " << read;
    }
  }
}

TEST_F(DepSkyFixture, HonestRoundVerifiesOneCopy) {
  make_client(Protocol::kCA)
      .write(file_tokens, "files/f", to_bytes("checked once"))
      .value.expect("w");
  // A client that has not seen the unit: the four clouds serve identical
  // bytes, so the first copy is verified and the other three reuse its
  // verdict.
  auto client = make_client(Protocol::kCA);
  auto before = TrustCounts::now();
  auto r = client.read(file_tokens, "files/f");
  ASSERT_TRUE(r.value.ok());
  EXPECT_EQ(to_string(*r.value), "checked once");
  auto used = TrustCounts::now().since(before);
  EXPECT_EQ(used.verified, 1u);
  EXPECT_EQ(used.reused, 3u);
  // Unchanged head: every copy equals the bytes this client accepted.
  before = TrustCounts::now();
  r = client.read(file_tokens, "files/f");
  ASSERT_TRUE(r.value.ok());
  EXPECT_EQ(to_string(*r.value), "checked once");
  used = TrustCounts::now().since(before);
  EXPECT_EQ(used.verified, 0u);
  EXPECT_EQ(used.reused, 4u);
}

TEST_F(DepSkyFixture, SameClientReadAfterWriteVerifiesNothing) {
  // The copy a write publishes is the writer's own signature under a key on
  // its roster: the writer remembers it as the unit's head.
  auto client = make_client(Protocol::kCA);
  client.write(file_tokens, "files/f", to_bytes("mine")).value.expect("w");
  auto before = TrustCounts::now();
  auto r = client.read(file_tokens, "files/f");
  ASSERT_TRUE(r.value.ok());
  EXPECT_EQ(to_string(*r.value), "mine");
  auto used = TrustCounts::now().since(before);
  EXPECT_EQ(used.verified, 0u);
  EXPECT_EQ(used.reused, 4u);
  // So does a membership stamp: the re-signed copy is the new head.
  client.set_membership_epoch(1);
  client.stamp_membership_epoch(file_tokens, "files/f", 1).value.expect("stamp");
  before = TrustCounts::now();
  EXPECT_EQ(*client.head_version(file_tokens, "files/f").value, 1u);
  used = TrustCounts::now().since(before);
  EXPECT_EQ(used.verified, 0u);
  EXPECT_EQ(used.reused, 4u);
}

TEST_F(DepSkyFixture, FailedWriteSeedsNoHead) {
  // A log unit's metadata cannot be overwritten, so a second write of it
  // signs version 2, lands its shares and fails at the metadata quorum.
  auto client = make_client(Protocol::kCA);
  const std::string unit = "logs/alice/e0";
  client.write(log_tokens, unit, to_bytes("entry")).value.expect("w");
  EXPECT_FALSE(client.write(log_tokens, unit, to_bytes("again")).value.ok());
  // The head is still version 1's copy, which every cloud serves.
  const auto before = TrustCounts::now();
  auto r = client.read(admin_tokens, unit);
  ASSERT_TRUE(r.value.ok());
  EXPECT_EQ(to_string(*r.value), "entry");
  const auto used = TrustCounts::now().since(before);
  EXPECT_EQ(used.verified, 0u);
  EXPECT_EQ(used.reused, 4u);
}

TEST_F(DepSkyFixture, TamperedCopyOfAcceptedHeadIsRejected) {
  auto client = make_client(Protocol::kCA);
  const std::string unit = "files/f";
  const std::string key = DepSkyClient::metadata_key(unit);
  client.write(file_tokens, unit, to_bytes("honest v1")).value.expect("w");
  ASSERT_TRUE(client.read(file_tokens, unit).value.ok());  // accepts v1's bytes
  const Bytes honest = *clouds[0]->get(file_tokens[0], key).value;
  const UnitMetadata v1 = *UnitMetadata::deserialize(honest);

  // v1 with one change each, all under v1's signature.
  std::vector<UnitMetadata> tampered(3, v1);
  tampered[0].data_size ^= 1;
  tampered[1].signature.back() ^= 1;
  tampered[2].version = 2;
  for (const std::size_t at : {0u, 3u}) {
    for (std::size_t t = 0; t < tampered.size(); ++t) {
      clouds[at]->put(file_tokens[at], key, tampered[t].serialize()).value.expect("tamper");
      for (int read = 0; read < 2; ++read) {
        const auto before = TrustCounts::now();
        auto r = client.read(file_tokens, unit);
        ASSERT_TRUE(r.value.ok()) << "cloud " << at << ", tamper " << t;
        EXPECT_EQ(to_string(*r.value), "honest v1") << "cloud " << at << ", tamper " << t;
        EXPECT_EQ(TrustCounts::now().since(before).verified, 1u)
            << "cloud " << at << ", tamper " << t << ", read " << read;
      }
      EXPECT_EQ(*client.head_version(file_tokens, unit).value, 1u);
    }
    clouds[at]->put(file_tokens[at], key, honest).value.expect("restore");
  }
}

TEST_F(DepSkyFixture, RememberedHeadStillFacesTheWitness) {
  auto client = make_client(Protocol::kCA);
  const std::string unit = "files/f";
  client.write(file_tokens, unit, to_bytes("v1")).value.expect("w1");
  ASSERT_TRUE(client.read(file_tokens, unit).value.ok());  // accepts v1's bytes
  clouds[0]->faults().set_adversarial(sim::AdversarialMode::kRollback);
  clock->advance_us(1'000);
  client.write(file_tokens, unit, to_bytes("v2")).value.expect("w2");

  const auto before = TrustCounts::now();
  auto r = client.read(file_tokens, unit);
  ASSERT_TRUE(r.value.ok()) << r.value.error().message;
  EXPECT_EQ(to_string(*r.value), "v2");
  // The v2 write made v2's copy the accepted head, so clouds 1-3 reuse it;
  // cloud 0's frozen v1 copy is verified, and authentic.
  const auto used = TrustCounts::now().since(before);
  EXPECT_EQ(used.verified, 1u);
  EXPECT_EQ(used.reused, 3u);
  // Authentic is not fresh: cloud 0 acked v2 in this session.
  EXPECT_EQ(client.cloud_health(0).misbehavior_count(MisbehaviorKind::kRollback), 1u);
  EXPECT_TRUE(client.cloud_health(0).quarantined());
}

TEST_F(DepSkyFixture, RemoveDeletesUnit) {
  auto client = make_client(Protocol::kCA);
  client.write(file_tokens, "files/f", to_bytes("bye")).value.expect("w");
  ASSERT_TRUE(client.remove(file_tokens, "files/f").value.ok());
  EXPECT_EQ(client.read(file_tokens, "files/f").value.code(), ErrorCode::kNotFound);
}

TEST_F(DepSkyFixture, OldVersionSharesGarbageCollected) {
  auto client = make_client(Protocol::kCA);
  client.write(file_tokens, "files/f", Bytes(1000, 1)).value.expect("w1");
  client.write(file_tokens, "files/f", Bytes(1000, 2)).value.expect("w2");
  EXPECT_FALSE(clouds[0]->exists("files/f.v1.s0"));
  EXPECT_TRUE(clouds[0]->exists("files/f.v2.s0"));
}

TEST_F(DepSkyFixture, LogUnitsAreAppendOnlyThroughDepSky) {
  auto client = make_client(Protocol::kCA);
  const Bytes entry = to_bytes("log entry 0");
  ASSERT_TRUE(client.write(log_tokens, "logs/alice/f1/0", entry).value.ok());
  // A second write of the same log unit needs to overwrite metadata -> denied.
  auto again = client.write(log_tokens, "logs/alice/f1/0", to_bytes("forged"));
  EXPECT_FALSE(again.value.ok());
  // The original remains readable by the admin.
  auto r = client.read(admin_tokens, "logs/alice/f1/0");
  ASSERT_TRUE(r.value.ok());
  EXPECT_EQ(*r.value, entry);
}

TEST_F(DepSkyFixture, EmptyPayloadRoundTrips) {
  auto client = make_client(Protocol::kCA);
  ASSERT_TRUE(client.write(file_tokens, "files/empty", Bytes{}).value.ok());
  auto r = client.read(file_tokens, "files/empty");
  ASSERT_TRUE(r.value.ok());
  EXPECT_TRUE(r.value->empty());
}

TEST_F(DepSkyFixture, NeedsNGreaterEqual3FPlus1) {
  DepSkyConfig cfg;
  cfg.clouds = {clouds[0], clouds[1], clouds[2]};
  cfg.f = 1;
  cfg.writer = writer;
  EXPECT_THROW(DepSkyClient(std::move(cfg), to_bytes("s")), std::invalid_argument);
}

TEST_F(DepSkyFixture, RepairRecreatesLostShare) {
  auto client = make_client(Protocol::kCA);
  Rng rng(7);
  const Bytes data = rng.next_bytes(40'000);
  client.write(file_tokens, "files/f", data).value.expect("w");
  // Lose cloud 1's share entirely.
  ASSERT_TRUE(clouds[1]->lose_object("files/f.v1.s1").ok());
  auto repaired = client.repair(file_tokens, "files/f");
  ASSERT_TRUE(repaired.value.ok()) << repaired.value.error().message;
  EXPECT_EQ(repaired.value->shares_ok, 3u);
  EXPECT_EQ(repaired.value->shares_repaired, 1u);
  // Full margin restored: with a different cloud down, the repaired share
  // participates in the read quorum.
  clouds[0]->set_available(false);
  auto r = client.read(file_tokens, "files/f");
  ASSERT_TRUE(r.value.ok());
  EXPECT_EQ(*r.value, data);
}

TEST_F(DepSkyFixture, RepairReplacesCorruptFileShare) {
  auto client = make_client(Protocol::kCA);
  Rng rng(8);
  const Bytes data = rng.next_bytes(10'000);
  client.write(file_tokens, "files/f", data).value.expect("w");
  ASSERT_TRUE(clouds[2]->corrupt_object("files/f.v1.s2").ok());
  auto repaired = client.repair(file_tokens, "files/f");
  ASSERT_TRUE(repaired.value.ok());
  EXPECT_EQ(repaired.value->shares_repaired, 1u);
  EXPECT_EQ(repaired.value->shares_unrepairable, 0u);
  // The rebuilt share verifies against the metadata digest at a re-read.
  auto again = client.repair(file_tokens, "files/f");
  ASSERT_TRUE(again.value.ok());
  EXPECT_EQ(again.value->shares_ok, 4u);
}

TEST_F(DepSkyFixture, RepairOfProtocolAUnit) {
  auto client = make_client(Protocol::kA);
  const Bytes data = to_bytes("replicated payload");
  client.write(file_tokens, "files/f", data).value.expect("w");
  ASSERT_TRUE(clouds[3]->lose_object("files/f.v1.s3").ok());
  auto repaired = client.repair(file_tokens, "files/f");
  ASSERT_TRUE(repaired.value.ok());
  EXPECT_EQ(repaired.value->shares_repaired, 1u);
}

TEST_F(DepSkyFixture, LogShareRepairRespectsAppendOnly) {
  auto client = make_client(Protocol::kCA);
  client.write(log_tokens, "logs/alice/e0", to_bytes("entry")).value.expect("w");
  // A LOST log share can be re-created (create == append)...
  ASSERT_TRUE(clouds[0]->lose_object("logs/alice/e0.v1.s0").ok());
  auto repaired = client.repair(admin_tokens, "logs/alice/e0");
  ASSERT_TRUE(repaired.value.ok());
  EXPECT_EQ(repaired.value->shares_repaired, 1u);
  // ...but a CORRUPT one cannot be overwritten, even by the admin.
  ASSERT_TRUE(clouds[1]->corrupt_object("logs/alice/e0.v1.s1").ok());
  auto second = client.repair(admin_tokens, "logs/alice/e0");
  ASSERT_TRUE(second.value.ok());
  EXPECT_EQ(second.value->shares_unrepairable, 1u);
  // The unit is still readable (3 valid shares >= k).
  auto r = client.read(admin_tokens, "logs/alice/e0");
  ASSERT_TRUE(r.value.ok());
}

TEST_F(DepSkyFixture, RepairWithTooFewValidSharesFails) {
  auto client = make_client(Protocol::kCA);
  client.write(file_tokens, "files/f", Bytes(5'000, 1)).value.expect("w");
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(clouds[static_cast<std::size_t>(i)]
                    ->corrupt_object("files/f.v1.s" + std::to_string(i))
                    .ok());
  }
  EXPECT_EQ(client.repair(file_tokens, "files/f").value.code(), ErrorCode::kUnavailable);
}

TEST_F(DepSkyFixture, WriteLatencyGrowsWithSize) {
  auto client = make_client(Protocol::kCA);
  const auto small = client.write(file_tokens, "files/s", Bytes(10'000, 0)).delay;
  const auto large = client.write(file_tokens, "files/l", Bytes(10'000'000, 0)).delay;
  EXPECT_GT(large, small * 5);
}

TEST(DepSkyKeys, UnitOfKeyStripsOnlyTheLayoutSuffix) {
  // ".meta" or ".v<V>" inside the unit name is part of the unit.
  EXPECT_EQ(DepSkyClient::unit_of_key("files/x.meta.v2.s1"), "files/x.meta");
  EXPECT_EQ(DepSkyClient::unit_of_key("logs/a.meta/e000000000000.v1.s0"),
            "logs/a.meta/e000000000000");
  EXPECT_EQ(DepSkyClient::unit_of_key("logs/a.meta/e000000000000.meta"),
            "logs/a.meta/e000000000000");
  EXPECT_EQ(DepSkyClient::unit_of_key(DepSkyClient::share_key("files/a.v1", 7, 3)),
            "files/a.v1");
  EXPECT_EQ(DepSkyClient::unit_of_key(DepSkyClient::metadata_key("files/a.v1")), "files/a.v1");
  // Neither suffix: no unit.
  EXPECT_EQ(DepSkyClient::unit_of_key("logs/a.meta/e000000000000"), std::nullopt);
  EXPECT_EQ(DepSkyClient::unit_of_key("files/x.v2.s"), std::nullopt);
  EXPECT_EQ(DepSkyClient::unit_of_key("files/x.v.s1"), std::nullopt);
  EXPECT_EQ(DepSkyClient::unit_of_key("files/x.s1"), std::nullopt);
}

}  // namespace
}  // namespace rockfs::depsky
