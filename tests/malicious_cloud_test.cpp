// Malicious-cloud freshness attacks (A4): a provider that keeps acking
// writes like an honest cloud but serves reads from a frozen, partitioned,
// or share-withheld view. Signatures alone cannot catch any of this — every
// byte the adversary serves was really stored and really signed. The tests
// pin the three layers of the defense:
//
//   masking     — with at most f such clouds, honest reads never change;
//   detection   — the version witness catches the contradiction and the
//                 misbehavior ledger quarantines the right cloud (and only
//                 that cloud), attributing rollback vs equivocation;
//   fail-closed — when collusion captures the entire responding quorum
//                 (beyond the masking bound), reads refuse with
//                 kStaleVersion instead of silently regressing.
//
// The soak at the bottom runs the full pipeline — attack, detection,
// quarantine, admin reconfiguration with crash points — and asserts the
// honest-content digest is bit-identical to a never-attacked run.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.h"
#include "depsky/client.h"
#include "depsky/health.h"
#include "rockfs/attack.h"
#include "rockfs/deployment.h"
#include "rockfs/malicious.h"
#include "sim/faults.h"

namespace rockfs::depsky {
namespace {

// DepSky-level fixture: one fleet, one shared witness, per-user sessions —
// the same wiring a Deployment gives its agents, but with direct control
// over every knob.
struct MaliciousFixture : ::testing::Test {
  sim::SimClockPtr clock = std::make_shared<sim::SimClock>();
  std::vector<cloud::CloudProviderPtr> clouds = cloud::make_provider_fleet(clock, 4, 7);
  crypto::Drbg drbg{to_bytes("malicious-test")};
  crypto::KeyPair writer = crypto::generate_keypair(drbg);
  VersionWitnessPtr witness = std::make_shared<VersionWitness>();

  std::vector<cloud::AccessToken> tokens(const std::string& user) {
    std::vector<cloud::AccessToken> out;
    for (auto& c : clouds) {
      out.push_back(c->issue_token(user, "fs", cloud::TokenScope::kFiles));
    }
    return out;
  }

  DepSkyClient make_client(const std::string& user) {
    DepSkyConfig cfg;
    cfg.clouds = clouds;
    cfg.f = 1;
    cfg.protocol = Protocol::kCA;
    cfg.writer = writer;
    cfg.witness = witness;
    cfg.session = "session-" + user;
    return DepSkyClient(std::move(cfg), to_bytes("seed-" + user));
  }
};

TEST_F(MaliciousFixture, RollbackCloudIsFlaggedBySameSessionMark) {
  auto client = make_client("alice");
  const auto toks = tokens("alice");
  const std::string unit = "files/alice/doc";

  ASSERT_TRUE(client.write(toks, unit, to_bytes("version-one")).value.ok());
  clouds[2]->faults().set_adversarial(sim::AdversarialMode::kRollback);
  clock->advance_us(1'000);

  const Bytes fresh = to_bytes("version-two, written after the freeze");
  ASSERT_TRUE(client.write(toks, unit, fresh).value.ok());

  auto r = client.read(toks, unit);
  ASSERT_TRUE(r.value.ok()) << r.value.error().message;
  EXPECT_EQ(*r.value, fresh);  // masking: the stale view never surfaces

  // Cloud 2 acked the v2 upload in this very session, then served v1: the
  // witness attributes a same-session contradiction as rollback.
  EXPECT_GE(client.cloud_health(2).misbehavior_count(MisbehaviorKind::kRollback), 1u);
  EXPECT_TRUE(client.cloud_health(2).quarantined());
  for (std::size_t i : {0u, 1u, 3u}) {
    EXPECT_EQ(client.cloud_health(i).misbehavior_total(), 0u) << "cloud " << i;
  }
}

TEST_F(MaliciousFixture, EquivocationAcrossSessionsAttributedToCloud) {
  auto carol = make_client("carol");
  auto dave = make_client("dave");
  const auto carol_toks = tokens("carol");
  const auto dave_toks = tokens("dave");

  // The adversary partitions readers by authenticated identity; pick the
  // salt it would pick — carol sees the fresh view, dave the frozen one.
  std::uint64_t salt = 0;
  while (sim::adversarial_stale_group("carol", salt) ||
         !sim::adversarial_stale_group("dave", salt)) {
    ++salt;
  }

  const std::string unit = "files/shared/doc";
  ASSERT_TRUE(carol.write(carol_toks, unit, to_bytes("v1")).value.ok());
  ASSERT_TRUE(dave.read(dave_toks, unit).value.ok());

  clouds[2]->faults().set_adversarial(sim::AdversarialMode::kEquivocate, 0, salt);
  clock->advance_us(1'000);

  const Bytes fresh = to_bytes("v2, visible only to carol's group at cloud 2");
  ASSERT_TRUE(carol.write(carol_toks, unit, fresh).value.ok());

  // Dave's quorum still wins (two honest clouds serve v2), but cloud 2
  // showed him v1 after telling carol's session v2 — equivocation, pinned
  // on the right cloud through the shared witness.
  auto r = dave.read(dave_toks, unit);
  ASSERT_TRUE(r.value.ok()) << r.value.error().message;
  EXPECT_EQ(*r.value, fresh);
  EXPECT_GE(dave.cloud_health(2).misbehavior_count(MisbehaviorKind::kEquivocation), 1u);
  EXPECT_TRUE(dave.cloud_health(2).quarantined());
  for (std::size_t i : {0u, 1u, 3u}) {
    EXPECT_EQ(dave.cloud_health(i).misbehavior_total(), 0u) << "cloud " << i;
  }
  // Carol is in the fresh group: cloud 2 never contradicted itself to her.
  EXPECT_FALSE(carol.cloud_health(2).quarantined());
}

TEST_F(MaliciousFixture, FPlusOneColludingRollbacksAreMaskedAndQuarantined) {
  auto client = make_client("alice");
  const auto toks = tokens("alice");
  const std::string unit = "files/alice/doc";

  ASSERT_TRUE(client.write(toks, unit, to_bytes("before")).value.ok());
  // f+1 = 2 clouds freeze together — more lies than plain DepSky voting can
  // attribute, but each is individually caught against its own ack marks.
  clouds[1]->faults().set_adversarial(sim::AdversarialMode::kRollback);
  clouds[2]->faults().set_adversarial(sim::AdversarialMode::kRollback);
  clock->advance_us(1'000);

  const Bytes fresh = to_bytes("after the colluding freeze");
  ASSERT_TRUE(client.write(toks, unit, fresh).value.ok());

  auto r = client.read(toks, unit);
  ASSERT_TRUE(r.value.ok()) << r.value.error().message;
  EXPECT_EQ(*r.value, fresh);
  EXPECT_TRUE(client.cloud_health(1).quarantined());
  EXPECT_TRUE(client.cloud_health(2).quarantined());
  EXPECT_GE(client.cloud_health(1).misbehavior_count(MisbehaviorKind::kRollback), 1u);
  EXPECT_GE(client.cloud_health(2).misbehavior_count(MisbehaviorKind::kRollback), 1u);
  EXPECT_EQ(client.cloud_health(0).misbehavior_total(), 0u);
  EXPECT_EQ(client.cloud_health(3).misbehavior_total(), 0u);
}

TEST_F(MaliciousFixture, FullQuorumCollusionFailsClosedWithStaleVersion) {
  auto client = make_client("bob");
  const auto toks = tokens("bob");
  const std::string unit = "files/bob/doc";

  ASSERT_TRUE(client.write(toks, unit, to_bytes("old")).value.ok());
  // Every cloud the client can still reach colludes on the frozen view: the
  // rolled-back trio answers the whole n-f quorum while the one honest
  // cloud is dark. Beyond the masking bound, the only safe answer is no
  // answer — the unit high-water mark turns the read into kStaleVersion
  // instead of a silent regression.
  clouds[1]->faults().set_adversarial(sim::AdversarialMode::kRollback);
  clouds[2]->faults().set_adversarial(sim::AdversarialMode::kRollback);
  clouds[3]->faults().set_adversarial(sim::AdversarialMode::kRollback);
  clock->advance_us(1'000);
  ASSERT_TRUE(client.write(toks, unit, to_bytes("new")).value.ok());

  clouds[0]->set_available(false);
  auto head = client.head_version(toks, unit);
  EXPECT_EQ(head.value.code(), ErrorCode::kStaleVersion);

  // The read that follows must not regress either: with all three liars
  // quarantined by the stale-version verdict and the honest cloud down, it
  // fails (no quorum) rather than serving the frozen bytes.
  auto r = client.read(toks, unit);
  ASSERT_FALSE(r.value.ok());
  for (std::size_t i : {1u, 2u, 3u}) {
    EXPECT_TRUE(client.cloud_health(i).quarantined()) << "cloud " << i;
  }
}

TEST_F(MaliciousFixture, WithheldSharesQuarantineAfterRepeatedIncidents) {
  auto client = make_client("erin");
  const auto toks = tokens("erin");
  const std::string unit = "files/erin/doc";
  const Bytes data = to_bytes("share-withholding never blocks this read");

  ASSERT_TRUE(client.write(toks, unit, data).value.ok());
  clouds[1]->faults().set_adversarial(sim::AdversarialMode::kWithholdShares);

  // A single withheld share is indistinguishable from provider-side loss;
  // only repetition condemns. Every read still succeeds off the honest k.
  for (int i = 1; i <= 3; ++i) {
    auto r = client.read(toks, unit);
    ASSERT_TRUE(r.value.ok()) << "read " << i << ": " << r.value.error().message;
    EXPECT_EQ(*r.value, data);
    EXPECT_EQ(client.cloud_health(1).quarantined(), i >= 3) << "read " << i;
  }
  EXPECT_GE(client.cloud_health(1).misbehavior_count(MisbehaviorKind::kWithheldShare),
            3u);
  EXPECT_EQ(client.cloud_health(0).misbehavior_total(), 0u);
}

}  // namespace
}  // namespace rockfs::depsky

namespace rockfs::core {
namespace {

// Full-deployment attack driver: rollback never changes what the victim
// reads, across seeds, and the cloud is quarantined within a handful of
// operations of its first lie.
TEST(CloudRollbackAttack, MaskedAndDetectedAcrossSeeds) {
  for (std::uint64_t seed : {11u, 22u, 33u, 44u}) {
    DeploymentOptions opts;
    opts.seed = seed;
    Deployment dep(opts);
    auto& alice = dep.add_user("alice");
    ASSERT_TRUE(alice.write_file("/warmup", to_bytes("pre-attack state")).ok());

    auto report = cloud_rollback_attack(dep, "alice", 2,
                                        sim::AdversarialMode::kRollback, 6);
    EXPECT_EQ(report.read_mismatches, 0u) << "seed " << seed;
    EXPECT_GT(report.writes_during_attack, 0u) << "seed " << seed;
    EXPECT_TRUE(report.detected) << "seed " << seed;
    EXPECT_TRUE(report.quarantined) << "seed " << seed;
    // The first lie a fresh unit can expose needs a pre-freeze unit to be
    // overwritten post-freeze and read back: two write/read rounds.
    EXPECT_LE(report.ops_to_detection, 6u) << "seed " << seed;
    EXPECT_EQ(dep.quarantined_cloud(), 2u) << "seed " << seed;
  }
}

TEST(CloudRollbackAttack, ReplayWindowServingIsDetected) {
  DeploymentOptions opts;
  opts.seed = 55;
  Deployment dep(opts);
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/warmup", to_bytes("pre-attack state")).ok());

  // A sliding rollback: the cloud serves the truth as of two seconds ago.
  // Reads that follow a write inside the window catch it against the ack
  // marks exactly like a hard freeze.
  auto report = cloud_rollback_attack(dep, "alice", 1,
                                      sim::AdversarialMode::kReplayWindow, 6);
  EXPECT_EQ(report.read_mismatches, 0u);
  EXPECT_TRUE(report.quarantined);
  EXPECT_EQ(dep.quarantined_cloud(), 1u);
}

// The end-to-end property from the issue: a cloud turns malicious
// mid-workload, is detected, quarantined and replaced — and the honest
// users' final contents are bit-identical to a run where it never turned.
TEST(MaliciousSoak, ConvergesWithDigestEquivalenceAcrossSeeds) {
  for (std::uint64_t seed : {2018u, 2019u, 2020u}) {
    MaliciousSoakOptions attacked_opts;
    attacked_opts.seed = seed;
    auto attacked = run_malicious_soak(attacked_opts);

    MaliciousSoakOptions baseline_opts = attacked_opts;
    baseline_opts.attacker = false;
    auto baseline = run_malicious_soak(baseline_opts);

    EXPECT_TRUE(attacked.converged) << "seed " << seed;
    EXPECT_EQ(attacked.read_mismatches, 0u) << "seed " << seed;
    EXPECT_EQ(attacked.write_failures, 0u) << "seed " << seed;
    EXPECT_TRUE(attacked.detected) << "seed " << seed;
    EXPECT_TRUE(attacked.quarantined) << "seed " << seed;
    // The workload rotates over 3 files per user, so the first read of a
    // post-freeze overwrite lands within three rounds of the attack (the
    // verdict is tallied at round end: <= 3 rounds x 2 users x 2 ops).
    EXPECT_LE(attacked.ops_to_quarantine, 12u) << "seed " << seed;
    EXPECT_TRUE(attacked.reconfigured) << "seed " << seed;
    EXPECT_GE(attacked.membership_epoch, 1u) << "seed " << seed;
    EXPECT_GT(attacked.units_migrated, 0u) << "seed " << seed;
    EXPECT_GT(attacked.post_reconfig_reads, 0u) << "seed " << seed;
    EXPECT_EQ(attacked.post_reconfig_read_failures, 0u) << "seed " << seed;

    EXPECT_TRUE(baseline.converged) << "seed " << seed;
    EXPECT_FALSE(baseline.quarantined) << "seed " << seed;
    EXPECT_EQ(attacked.content_digest, baseline.content_digest) << "seed " << seed;
  }
}

TEST(MaliciousSoak, EquivocatingCloudIsAlsoEvicted) {
  MaliciousSoakOptions opts;
  opts.seed = 77;
  opts.mode = sim::AdversarialMode::kEquivocate;
  auto report = run_malicious_soak(opts);
  EXPECT_TRUE(report.converged);
  EXPECT_TRUE(report.quarantined);
  EXPECT_TRUE(report.reconfigured);
  EXPECT_EQ(report.post_reconfig_read_failures, 0u);

  MaliciousSoakOptions baseline = opts;
  baseline.attacker = false;
  EXPECT_EQ(run_malicious_soak(baseline).content_digest, report.content_digest);
}

}  // namespace
}  // namespace rockfs::core
