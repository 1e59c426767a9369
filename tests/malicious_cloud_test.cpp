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

#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/sha256.h"
#include "depsky/client.h"
#include "depsky/health.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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

// ------------------------------------------------ digest-bound recovery reads
//
// Recovery binds each log payload download to the size and SHA-256 in its
// FssAgg-audited record instead of checking the log unit's metadata
// signature (DepSkyClient::read with an ExpectedContent). A malicious cloud
// may then serve any well-shaped copy: it may choose the shares of one
// attempt, but it must cost at most one checked retry, never an entry, and
// must teach the recovery's client nothing.

enum class Forgery { kHigherVersion, kOtherDigests, kHugeSize };

const char* forgery_name(Forgery how) {
  switch (how) {
    case Forgery::kHigherVersion: return "higher version";
    case Forgery::kOtherDigests: return "other share digests";
    case Forgery::kHugeSize: return "data_size 2^62";
  }
  return "?";
}

// Every misbehavior the deployment's DepSky clients have flagged so far
// (flag_misbehavior books each incident, and the ledger quarantines only
// on them).
std::uint64_t detections(Deployment& dep) {
  std::uint64_t total = 0;
  for (const char* kind : {"rollback", "equivocation", "withheld_share"}) {
    for (const auto& c : dep.clouds()) {
      total += obs::metrics()
                   .counter(obs::metric_key(std::string("depsky.detect.") + kind, c->name()))
                   .value();
    }
  }
  return total;
}

std::uint64_t meta_verified() {
  return obs::metrics().counter("depsky.meta.verified").value();
}

struct BoundRecoveryRead : ::testing::Test {
  static constexpr std::size_t kEntries = 4;  // create + 3 updates of /doc
  Deployment dep;
  RockFsAgent& alice = dep.add_user("alice");
  Bytes content;

  void SetUp() override {
    Rng rng(5);
    content = rng.next_bytes(6'000);
    alice.write_file("/doc", content).expect("create");
    for (std::size_t i = 1; i < kEntries; ++i) {
      append(content, rng.next_bytes(800));
      alice.write_file("/doc", content).expect("update");
    }
    alice.drain_background();
    obs::tracer().set_capacity(obs::Tracer::kDefaultCapacity);
  }

  std::vector<LogRecord> records() {
    auto records = read_log_records(*dep.coordination(), "alice");
    return std::move(records.value).value();
  }

  // Replaces cloud `at`'s copy of `unit`'s metadata with a well-shaped one
  // signed by a key no reader trusts, as a malicious cloud can.
  void plant(const std::string& unit, std::size_t at, Forgery how) {
    const std::string key = depsky::DepSkyClient::metadata_key(unit);
    auto& cloud = *dep.clouds()[at];
    const auto admin = dep.admin_tokens();
    auto forged = depsky::UnitMetadata::deserialize(*cloud.get(admin[at], key).value);
    ASSERT_TRUE(forged.ok());
    switch (how) {
      case Forgery::kHigherVersion:
        forged->version = 999;
        break;
      case Forgery::kOtherDigests:
        for (auto& d : forged->share_digests) d = crypto::sha256(to_bytes("forged"));
        break;
      case Forgery::kHugeSize:
        forged->data_size = std::uint64_t{1} << 62;
        break;
    }
    crypto::Drbg attacker_drbg(to_bytes("attacker"));
    forged->sign(crypto::generate_keypair(attacker_drbg));
    ASSERT_TRUE(cloud.lose_object(key).ok());
    cloud.put(admin[at], key, forged->serialize()).value.expect("plant");
  }

  // Metadata rounds run inside DepSky reads since the tracer was reset: one
  // per read, plus one per checked retry.
  static std::size_t read_rounds() {
    const auto events = obs::tracer().events();
    std::set<std::uint64_t> reads;
    for (const auto& e : events) {
      if (e.name == "depsky.read") reads.insert(e.id);
    }
    std::size_t rounds = 0;
    for (const auto& e : events) {
      if (e.name == "depsky.meta_fetch" && reads.contains(e.parent)) ++rounds;
    }
    return rounds;
  }
};

TEST_F(BoundRecoveryRead, HonestRecoveryChecksOneSignature) {
  auto recovery = dep.make_recovery_service("alice");
  obs::tracer().reset();
  const std::uint64_t before = meta_verified();
  auto result = recovery.recover_file("/doc", {});
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result->content, content);
  EXPECT_EQ(result->applied, kEntries);
  EXPECT_EQ(result->skipped_invalid, 0u);
  // The replayed downloads check none, the upload's first round checks the
  // file's head once, and the head_version after it is the upload's own.
  EXPECT_EQ(meta_verified() - before, 1u);
  EXPECT_EQ(read_rounds(), kEntries);
}

TEST_F(BoundRecoveryRead, ForgedLogUnitCopyCostsAtMostOneRetry) {
  const std::vector<LogRecord> log = records();
  ASSERT_EQ(log.size(), kEntries);
  const std::string unit = log[1].data_unit();
  const std::string meta_key = depsky::DepSkyClient::metadata_key(unit);
  const auto admin = dep.admin_tokens();
  for (const std::size_t at : {0u, 3u}) {
    for (const Forgery how :
         {Forgery::kHigherVersion, Forgery::kOtherDigests, Forgery::kHugeSize}) {
      SCOPED_TRACE(std::string(forgery_name(how)) + " at cloud " + std::to_string(at));
      const Bytes honest = *dep.clouds()[at]->get(admin[at], meta_key).value;
      plant(unit, at, how);
      const std::uint64_t flagged = detections(dep);

      auto recovery = dep.make_recovery_service("alice");
      obs::tracer().reset();
      auto result = recovery.recover_file("/doc", {});
      ASSERT_TRUE(result.ok()) << result.error().message;
      EXPECT_EQ(result->content, content);
      EXPECT_EQ(result->applied, kEntries);
      EXPECT_EQ(result->skipped_invalid, 0u);
      EXPECT_LE(read_rounds(), kEntries + 1);

      // Nothing the forged copy said reached the witness or the ledger.
      for (const auto& c : dep.clouds()) {
        const auto mark = dep.witness()->meta_mark(unit, c->name());
        EXPECT_LE(mark ? mark->version : 0u, 1u) << c->name();
      }
      const auto umark = dep.witness()->unit_mark(unit);
      EXPECT_LE(umark ? umark->version : 0u, 1u);
      EXPECT_EQ(detections(dep), flagged);
      EXPECT_EQ(dep.quarantined_cloud(), Deployment::kNoCloud);

      // A checked read still rejects the copy: it reads version 1, and the
      // forged bytes cost a signature check that fails.
      auto& checked = *alice.storage();
      const std::uint64_t verified = meta_verified();
      EXPECT_EQ(*checked.head_version(admin, unit).value, 1u);
      EXPECT_GE(meta_verified() - verified, 1u);
      auto payload = checked.read(admin, unit);
      ASSERT_TRUE(payload.value.ok()) << payload.value.error().message;
      EXPECT_TRUE(log[1].matches(*payload.value));

      ASSERT_TRUE(dep.clouds()[at]->lose_object(meta_key).ok());
      dep.clouds()[at]->put(admin[at], meta_key, honest).value.expect("restore");
    }
  }
}

// The cold-tier fallback runs after the hot read failed, so the recovery
// pays both reads' virtual time.
TEST(ColdFallback, ChargesTheFailedHotRead) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  Rng rng(8);
  const Bytes content = rng.next_bytes(4'000);
  alice.write_file("/f", content).expect("create");
  alice.drain_background();
  const auto admin = dep.admin_tokens();
  auto records = read_log_records(*dep.coordination(), "alice");
  ASSERT_EQ(records.value->size(), 1u);
  const std::string unit = records.value->front().data_unit();
  for (std::size_t i = 0; i < dep.clouds().size(); ++i) {
    dep.clouds()[i]->archive(admin[i], depsky::DepSkyClient::share_key(unit, 1, i))
        .value.expect("archive");
  }

  auto recovery = dep.make_recovery_service("alice");
  obs::tracer().set_capacity(obs::Tracer::kDefaultCapacity);
  obs::tracer().reset();
  auto result = recovery.recover_file("/f", {});
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result->content, content);

  const auto events = obs::tracer().events();
  std::uint64_t root = 0;
  for (const auto& e : events) {
    if (e.name == "recovery.recover_file") root = e.id;
  }
  ASSERT_NE(root, 0u);
  std::vector<std::int64_t> reads;
  std::int64_t children = 0;
  for (const auto& e : events) {
    if (e.parent != root) continue;
    children += static_cast<std::int64_t>(e.duration_us);
    if (e.name == "depsky.read") reads.push_back(static_cast<std::int64_t>(e.duration_us));
  }
  ASSERT_EQ(reads.size(), 2u);  // the failed hot read, then the cold one
  EXPECT_GT(reads[0], 0);
  // The recover_file span's direct children are serial, so the MTTR is the
  // sum of their durations up to a few delays accounted apart from them
  // (the patch, the audit's rotation-manifest read, the upload's
  // head_version round), each far shorter than the failed hot read. The
  // MTTR must lie nearer the sum with that read than the sum without it.
  const std::int64_t mttr = recovery.last_recovery_us();
  const auto off = [&](std::int64_t sum) { return std::llabs(mttr - sum); };
  EXPECT_LT(off(children), off(children - reads[0]))
      << "MTTR " << mttr << ", children " << children << ", hot read " << reads[0];
}

}  // namespace
}  // namespace rockfs::core
