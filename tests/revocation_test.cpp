// Credential revocation and live keystore rotation (ISSUE 6 acceptance):
// token epochs die below the quorum-committed revocation floor, the rotation
// pipeline survives admin crashes at every one of its crash points, the
// FssAgg audit spans rotation records, the PVSS share refresh makes stolen
// shares and replayed sealed blobs useless, and the chaos soak shows the
// lockout theorem plus bit-identical honest content with and without the
// racing attacker.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "rockfs/attack.h"
#include "rockfs/audit.h"
#include "rockfs/compromise.h"
#include "rockfs/deployment.h"
#include "rockfs/revocation.h"
#include "sim/faults.h"

namespace rockfs::core {
namespace {

Bytes content_for(const std::string& tag) {
  return to_bytes(tag + "-" + std::string(256, 'r') + tag);
}

bool zeroed(const Bytes& b) {
  return std::all_of(b.begin(), b.end(), [](Byte x) { return x == 0; });
}

// ---- token epochs and the per-cloud revocation floor ----

TEST(Revocation, FloorKillsOldTokensAndReissueSurvives) {
  Deployment dep;
  dep.add_user("alice");
  auto& cloud = *dep.clouds()[0];
  const auto admin = dep.admin_tokens();
  const cloud::AccessToken old_token = dep.agent("alice").keystore().file_tokens[0];

  ASSERT_TRUE(cloud.put(old_token, "files/probe", to_bytes("v1")).value.ok());

  ASSERT_TRUE(
      cloud.apply_revocation_floor(admin[0], "alice", old_token.epoch + 1).value.ok());
  EXPECT_EQ(cloud.revocation_floor("alice"), old_token.epoch + 1);
  EXPECT_EQ(cloud.put(old_token, "files/probe", to_bytes("v2")).value.code(),
            ErrorCode::kRevoked);
  EXPECT_EQ(cloud.get(old_token, "files/probe").value.code(), ErrorCode::kRevoked);

  // Floors are monotone: a stale (lower) push cannot resurrect the token.
  ASSERT_TRUE(cloud.apply_revocation_floor(admin[0], "alice", 0).value.ok());
  EXPECT_EQ(cloud.revocation_floor("alice"), old_token.epoch + 1);

  // A reissued token is stamped at (at least) the floor and works.
  auto fresh = cloud.reissue_token(admin[0], "alice", cloud::TokenScope::kFiles,
                                   old_token.epoch + 1);
  ASSERT_TRUE(fresh.value.ok());
  EXPECT_GE(fresh.value->epoch, old_token.epoch + 1);
  EXPECT_TRUE(cloud.put(*fresh.value, "files/probe", to_bytes("v3")).value.ok());
}

TEST(Revocation, QuorumFloorIsMonotone) {
  Deployment dep;
  dep.add_user("alice");
  auto& coord = *dep.coordination();

  EXPECT_EQ(*read_revocation_floor(coord, "alice").value, 0u);
  ASSERT_TRUE(commit_revocation_floor(coord, "alice", 3).value.ok());
  EXPECT_EQ(*read_revocation_floor(coord, "alice").value, 3u);
  // Lower commit is a no-op; higher commit replaces.
  ASSERT_TRUE(commit_revocation_floor(coord, "alice", 1).value.ok());
  EXPECT_EQ(*read_revocation_floor(coord, "alice").value, 3u);
  ASSERT_TRUE(commit_revocation_floor(coord, "alice", 7).value.ok());
  EXPECT_EQ(*read_revocation_floor(coord, "alice").value, 7u);
}

// ---- the end-to-end lockout theorem, no faults ----

TEST(Revocation, EndToEndLockout) {
  Deployment dep;
  dep.add_user("mallory");
  ASSERT_TRUE(dep.agent("mallory").write_file("/m/doc", content_for("honest")).ok());

  const StolenCredentials loot = steal_credentials(dep, "mallory");
  ASSERT_FALSE(loot.session_key.empty());

  // Before the response the loot is fully live.
  const StolenCredentialReport before = stolen_credential_attack(dep, loot);
  EXPECT_GT(before.writes_accepted_pre_floor, 0u);
  EXPECT_EQ(before.writes_accepted_post_floor, 0u);
  EXPECT_EQ(before.session_replays_valid, 1u);
  EXPECT_EQ(before.keystore_replays_live, 1u);

  auto response = dep.respond_to_compromise("mallory");
  ASSERT_TRUE(response.ok()) << response.error().message;
  EXPECT_TRUE(response->rotated);
  EXPECT_EQ(response->floor, 1u);
  EXPECT_EQ(response->clouds_enforcing, dep.clouds().size());
  EXPECT_TRUE(response->clouds_pending.empty());
  EXPECT_GT(response->lockout_latency_us, 0);

  // After it, every capability is dead: no write, no read, no session
  // replay, and the replayed sealed blob unseals into revoked tokens.
  const StolenCredentialReport after = stolen_credential_attack(dep, loot);
  EXPECT_EQ(after.writes_accepted_post_floor, 0u);
  EXPECT_EQ(after.writes_accepted_pre_floor, 0u);
  EXPECT_EQ(after.reads_accepted_post_floor, 0u);
  EXPECT_GT(after.revoked_denials, 0u);
  EXPECT_EQ(after.session_replays_valid, 0u);
  EXPECT_EQ(after.keystore_replays_live, 0u);

  // The honest user carries on with the rotated keystore.
  EXPECT_GT(dep.agent("mallory").keystore().file_tokens[0].epoch,
            loot.keystore.file_tokens[0].epoch);
  ASSERT_TRUE(dep.agent("mallory").write_file("/m/doc", content_for("post")).ok());
  auto back = dep.agent("mallory").read_file("/m/doc");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, content_for("post"));
}

// ---- outage cloud: floor owed, fail-closed via anti-entropy ----

TEST(Revocation, OutageCloudGetsFloorOnRecovery) {
  Deployment dep;
  dep.add_user("mallory");
  ASSERT_TRUE(dep.agent("mallory").write_file("/m/doc", content_for("h")).ok());
  const StolenCredentials loot = steal_credentials(dep, "mallory");

  dep.clouds()[2]->faults().set_down(true);
  auto response = dep.respond_to_compromise("mallory");
  ASSERT_TRUE(response.ok()) << response.error().message;
  EXPECT_TRUE(response->rotated);
  ASSERT_EQ(response->clouds_pending.size(), 1u);
  EXPECT_EQ(response->clouds_pending[0], 2u);
  EXPECT_EQ(response->clouds_enforcing, dep.clouds().size() - 1);

  // While the cloud is down the push keeps failing; nothing is applied.
  EXPECT_EQ(dep.propagate_revocations(), 0u);
  EXPECT_EQ(dep.clouds()[2]->revocation_floor("mallory"), 0u);

  // The cloud comes back: anti-entropy lands the floor before any stolen
  // token is accepted there again.
  dep.clouds()[2]->faults().set_down(false);
  EXPECT_EQ(dep.propagate_revocations(), 1u);
  EXPECT_EQ(dep.clouds()[2]->revocation_floor("mallory"), response->floor);

  const StolenCredentialReport after = stolen_credential_attack(dep, loot);
  EXPECT_EQ(after.writes_accepted_post_floor, 0u);
  EXPECT_EQ(after.writes_accepted_pre_floor, 0u);
  EXPECT_EQ(after.reads_accepted_post_floor, 0u);
}

// ---- the FssAgg chain spans rotation records ----

TEST(Revocation, ChainVerifiesAcrossTwoRotations) {
  Deployment dep;
  dep.add_user("alice");
  auto& agent = dep.agent("alice");
  ASSERT_TRUE(agent.write_file("/d/one", content_for("one")).ok());

  auto first = dep.respond_to_compromise("alice");
  ASSERT_TRUE(first.ok()) << first.error().message;
  ASSERT_TRUE(agent.write_file("/d/two", content_for("two")).ok());

  auto second = dep.respond_to_compromise("alice");
  ASSERT_TRUE(second.ok()) << second.error().message;
  EXPECT_GT(second->rotation_epoch, first->rotation_epoch);
  ASSERT_TRUE(agent.write_file("/d/one", content_for("one-v2")).ok());

  // One log, two rotate records, three key streams: the audit must walk all
  // of them and come back clean.
  auto recovery = dep.make_recovery_service("alice");
  auto audit = recovery.audit_log();
  ASSERT_TRUE(audit.ok()) << audit.error().message;
  EXPECT_TRUE(audit->report.ok);
  EXPECT_TRUE(audit->discarded_seqs.empty());
  const auto rotates =
      std::count_if(audit->records.begin(), audit->records.end(),
                    [](const LogRecord& r) { return r.op == rotation_record_op(); });
  EXPECT_EQ(rotates, 2);

  // Recovery still reconstructs files whose entries straddle the rotations.
  auto recovered = recovery.recover_file("/d/one", {});
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  EXPECT_EQ(recovered->content, content_for("one-v2"));
}

TEST(Revocation, AuditRejectsRotateRecordWithoutValidManifest) {
  Deployment dep;
  dep.add_user("alice");
  ASSERT_TRUE(dep.agent("alice").write_file("/d/one", content_for("one")).ok());
  auto response = dep.respond_to_compromise("alice");
  ASSERT_TRUE(response.ok());

  // Erase the published manifest: the rotate record in the chain now has no
  // admin-signed backing, and the audit must fail closed, not trust it.
  auto removed = dep.coordination()->inp(
      coord::Template::of({rotation_tag(), "alice", "*", "*", "*", "*", "*"}));
  ASSERT_TRUE(removed.value.ok());
  ASSERT_TRUE(removed.value->has_value());

  auto audit = dep.make_recovery_service("alice").audit_log();
  ASSERT_FALSE(audit.ok());
  EXPECT_EQ(audit.code(), ErrorCode::kIntegrity);
}

// ---- crash-resumable response ----

TEST(Revocation, ResponseResumesAfterEveryCrashPoint) {
  const sim::CrashPoint points[] = {
      sim::CrashPoint::kAfterRevocationFloor,
      sim::CrashPoint::kMidFloorPropagation,
      sim::CrashPoint::kAfterRotationRecord,
      sim::CrashPoint::kAfterKeystoreReseal,
  };
  for (const auto point : points) {
    SCOPED_TRACE(sim::crash_point_name(point));
    Deployment dep;
    dep.add_user("mallory");
    ASSERT_TRUE(dep.agent("mallory").write_file("/m/doc", content_for("pre")).ok());
    const StolenCredentials loot = steal_credentials(dep, "mallory");

    dep.crash_schedule()->arm(point);
    auto crashed = dep.respond_to_compromise("mallory");
    ASSERT_FALSE(crashed.ok());
    EXPECT_EQ(crashed.code(), ErrorCode::kCrashed);

    // The admin workstation restarts and re-runs the response; every durable
    // step before the crash must be adopted, not double-applied.
    auto resumed = dep.respond_to_compromise("mallory");
    ASSERT_TRUE(resumed.ok()) << resumed.error().message;
    EXPECT_TRUE(resumed->rotated);

    const StolenCredentialReport after = stolen_credential_attack(dep, loot);
    EXPECT_EQ(after.writes_accepted_post_floor, 0u);
    EXPECT_EQ(after.writes_accepted_pre_floor, 0u);
    EXPECT_EQ(after.session_replays_valid, 0u);

    ASSERT_TRUE(dep.agent("mallory").write_file("/m/doc", content_for("post")).ok());
    auto audit = dep.make_recovery_service("mallory").audit_log();
    ASSERT_TRUE(audit.ok()) << audit.error().message;
    EXPECT_TRUE(audit->report.ok);
    // Exactly one rotation epoch made it through the CAS.
    const auto rotates =
        std::count_if(audit->records.begin(), audit->records.end(),
                      [](const LogRecord& r) { return r.op == rotation_record_op(); });
    EXPECT_EQ(rotates, 1);
  }
}

// ---- rotation epoch CAS: concurrent rotations linearize ----

TEST(Revocation, ManifestCasAdmitsOneWinnerPerEpoch) {
  Deployment dep;
  dep.add_user("alice");
  auto& coord = *dep.coordination();
  crypto::Drbg drbg(to_bytes("test.rival"), to_bytes("seed"));
  const crypto::KeyPair rival = crypto::generate_keypair(drbg);
  const fssagg::FssAggKeys rival_keys = fssagg::fssagg_keygen(drbg);

  // A rival admin session grabs epoch 1 first.
  const RotationManifest squatter =
      make_rotation_manifest("alice", 1, 0, rival_keys, rival);
  ASSERT_TRUE(*publish_rotation_manifest(coord, squatter).value);
  // Same epoch again: the CAS refuses, whoever retries must bump the epoch.
  EXPECT_FALSE(*publish_rotation_manifest(coord, squatter).value);

  // The real response loses epoch 1 and linearizes behind it at epoch 2.
  auto response = dep.respond_to_compromise("alice");
  ASSERT_TRUE(response.ok()) << response.error().message;
  EXPECT_EQ(response->rotation_epoch, 2u);

  auto manifests = read_rotation_manifests(coord, "alice");
  ASSERT_TRUE(manifests.value.ok());
  ASSERT_EQ(manifests.value->size(), 2u);
  EXPECT_EQ((*manifests.value)[0].rotation_epoch, 1u);
  EXPECT_EQ((*manifests.value)[1].rotation_epoch, 2u);
}

TEST(Revocation, ManifestSignatureBindsPayload) {
  crypto::Drbg drbg(to_bytes("test.manifest"), to_bytes("seed"));
  const crypto::KeyPair admin = crypto::generate_keypair(drbg);
  const fssagg::FssAggKeys keys = fssagg::fssagg_keygen(drbg);
  RotationManifest m = make_rotation_manifest("alice", 3, 17, keys, admin);
  const Bytes admin_pub = crypto::point_encode(admin.public_key);

  EXPECT_TRUE(verify_rotation_manifest(m, admin_pub));
  EXPECT_TRUE(manifest_matches_keys(m, keys));

  RotationManifest forged = m;
  forged.at_seq = 18;  // any field flip invalidates the signature
  EXPECT_FALSE(verify_rotation_manifest(forged, admin_pub));
  const crypto::KeyPair stranger = crypto::generate_keypair(drbg);
  EXPECT_FALSE(
      verify_rotation_manifest(m, crypto::point_encode(stranger.public_key)));

  const fssagg::FssAggKeys other_keys = fssagg::fssagg_keygen(drbg);
  EXPECT_FALSE(manifest_matches_keys(m, other_keys));

  // Tuple roundtrip preserves everything.
  auto back = RotationManifest::from_tuple(m.to_tuple());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(verify_rotation_manifest(*back, admin_pub));
  EXPECT_EQ(back->rotation_epoch, m.rotation_epoch);
  EXPECT_EQ(back->at_seq, m.at_seq);
}

// ---- PVSS share refresh (satellite d) ----

TEST(Revocation, ShareRefreshInvalidatesOldShares) {
  crypto::Drbg drbg(to_bytes("test.pvss"), to_bytes("refresh"));
  Keystore ks;
  ks.user_id = "alice";
  ks.user_private_key = drbg.generate_key();
  const std::vector<ShareHolder> holders = {
      {"device", crypto::generate_keypair(drbg)},
      {"coordination", crypto::generate_keypair(drbg)},
      {"external", crypto::generate_keypair(drbg)},
  };
  std::vector<crypto::Point> pubs;
  for (const auto& h : holders) pubs.push_back(h.keys.public_key);

  const SealedKeystore old_sealed = seal_keystore(ks, holders, 2, drbg);
  const SealedKeystore new_sealed = seal_keystore(ks, holders, 2, drbg);

  // Shares decrypted from the old deal fail verifyS against the new deal:
  // the refresh drew a fresh polynomial, so old shares are useless forward.
  for (std::size_t i = 0; i < holders.size(); ++i) {
    auto old_share = secretshare::pvss_decrypt_share(old_sealed.deal, i + 1,
                                                     holders[i].keys, drbg);
    ASSERT_TRUE(old_share.ok());
    EXPECT_TRUE(secretshare::pvss_verify_decrypted(old_sealed.deal, *old_share, pubs[i]));
    EXPECT_FALSE(secretshare::pvss_verify_decrypted(new_sealed.deal, *old_share, pubs[i]));
  }

  // Mixing one old and one new share reconstructs the wrong group element.
  auto old0 = secretshare::pvss_decrypt_share(old_sealed.deal, 1, holders[0].keys, drbg);
  auto new1 = secretshare::pvss_decrypt_share(new_sealed.deal, 2, holders[1].keys, drbg);
  auto new0 = secretshare::pvss_decrypt_share(new_sealed.deal, 1, holders[0].keys, drbg);
  ASSERT_TRUE(old0.ok() && new1.ok() && new0.ok());
  auto mixed = secretshare::pvss_combine({*old0, *new1}, 2);
  auto genuine = secretshare::pvss_combine({*new0, *new1}, 2);
  ASSERT_TRUE(mixed.ok() && genuine.ok());
  EXPECT_NE(secretshare::pvss_secret_key(*mixed), secretshare::pvss_secret_key(*genuine));

  // A corrupted refreshed share is detected at unseal time (kIntegrity), and
  // the untampered new deal still unseals.
  SealedKeystore tampered = new_sealed;
  tampered.deal.shares[0].y =
      crypto::scalar_mul(crypto::Uint256(2), tampered.deal.shares[0].y);
  auto bad = unseal_keystore(tampered, {holders[0], holders[1]}, pubs, 2, drbg);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kIntegrity);
  auto good = unseal_keystore(new_sealed, {holders[0], holders[1]}, pubs, 2, drbg);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good->user_private_key, ks.user_private_key);
}

// ---- session key expiry (satellite a) and zeroization (satellite b) ----

TEST(Revocation, ExpiredSessionKeySeedIsNeverServed) {
  auto clock = std::make_shared<sim::SimClock>();
  clock->advance_us(10'000'000);
  auto coord = std::make_shared<coord::CoordinationService>(clock, 1, 99);
  crypto::Drbg drbg(to_bytes("test.session"), to_bytes("seed"));

  SessionKeyManager manager("alice", coord, clock, 3'600'000'000);
  const Bytes stale = drbg.generate_key();
  manager.seed(stale, clock->now_us() - 1);  // already expired

  auto current = manager.current(drbg);
  EXPECT_TRUE(current.rotated);  // the expired seed forced a fresh mint
  EXPECT_NE(current.key, stale);
  EXPECT_FALSE(manager.valid(stale));
  EXPECT_TRUE(manager.valid(current.key));

  // An unexpired seed IS served, and expires on schedule.
  SessionKeyManager manager2("bob", coord, clock, 3'600'000'000);
  const Bytes live = drbg.generate_key();
  manager2.seed(live, clock->now_us() + 1'000'000);
  auto adopted = manager2.current(drbg);
  EXPECT_FALSE(adopted.rotated);
  EXPECT_EQ(adopted.key, live);
  clock->advance_us(2'000'000);
  auto rolled = manager2.current(drbg);
  EXPECT_TRUE(rolled.rotated);
  EXPECT_NE(rolled.key, live);
}

TEST(Revocation, KeystoreWipeZeroizesSecrets) {
  crypto::Drbg drbg(to_bytes("test.wipe"), to_bytes("seed"));
  Keystore ks;
  ks.user_id = "alice";
  ks.user_private_key = drbg.generate_key();
  ks.session_key = drbg.generate_key();
  ks.fssagg_key_a = drbg.generate_key();
  ks.fssagg_key_b = drbg.generate_key();
  cloud::AccessToken token;
  token.mac = drbg.generate_key();
  ks.file_tokens.push_back(token);
  ks.log_tokens.push_back(token);

  ks.wipe();
  EXPECT_TRUE(zeroed(ks.user_private_key));
  EXPECT_TRUE(zeroed(ks.session_key));
  EXPECT_TRUE(zeroed(ks.fssagg_key_a));
  EXPECT_TRUE(zeroed(ks.fssagg_key_b));
  EXPECT_TRUE(ks.file_tokens.empty());
  EXPECT_TRUE(ks.log_tokens.empty());
}

// ---- detector verdict -> revocation trigger (satellite c) ----

TEST(Revocation, ImplicatedUsersHonorsManualOverride) {
  std::vector<LogRecord> records(3);
  records[0].seq = 1;
  records[0].user = "mallory";
  records[1].seq = 2;
  records[1].user = "carol";
  records[2].seq = 3;
  records[2].user = "mallory";

  EXPECT_EQ(implicated_users(records, {1, 2, 3}),
            (std::set<std::string>{"mallory", "carol"}));
  EXPECT_EQ(implicated_users(records, {1, 3}), (std::set<std::string>{"mallory"}));
  EXPECT_EQ(implicated_users(records, {1, 2, 3}, {"carol"}),
            (std::set<std::string>{"mallory"}));
  EXPECT_TRUE(implicated_users(records, {}).empty());
}

TEST(Revocation, AuditVerdictDrivesTheResponse) {
  Deployment dep;
  dep.add_user("mallory");
  auto& agent = dep.agent("mallory");
  const std::vector<std::string> paths = {"/m/a", "/m/b", "/m/c", "/m/d"};
  for (const auto& p : paths) {
    ASSERT_TRUE(agent.write_file(p, content_for(p)).ok());
  }
  dep.clock()->advance_us(300'000'000);  // detector window: isolate the burst
  const StolenCredentials loot = steal_credentials(dep, "mallory");
  const RansomwareReport ransom = ransomware_attack(agent, paths, 0xBAD5EED);
  ASSERT_EQ(ransom.files_encrypted, paths.size());

  auto recovery = dep.make_recovery_service("mallory");
  auto audit = recovery.audit_log();
  ASSERT_TRUE(audit.ok()) << audit.error().message;
  const auto flagged = AuditAnalyzer(audit->records).detect_mass_rewrite();
  EXPECT_FALSE(flagged.empty());

  // The administrator's veto suppresses the response entirely.
  auto vetoed = dep.apply_audit_verdict(audit->records, flagged, {"mallory"});
  ASSERT_TRUE(vetoed.ok());
  EXPECT_TRUE(vetoed->responses.empty());
  EXPECT_EQ(vetoed->overridden, (std::set<std::string>{"mallory"}));

  // Without the veto, the verdict revokes and rotates the flagged author.
  auto outcome = dep.apply_audit_verdict(audit->records, flagged);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  ASSERT_EQ(outcome->implicated, (std::set<std::string>{"mallory"}));
  EXPECT_TRUE(outcome->responses.at("mallory").rotated);

  const StolenCredentialReport after = stolen_credential_attack(dep, loot);
  EXPECT_EQ(after.writes_accepted_post_floor, 0u);
  EXPECT_EQ(after.writes_accepted_pre_floor, 0u);

  // And recovery (rotation-aware) undoes the ransomware damage.
  auto fresh = dep.make_recovery_service("mallory");
  auto recovered = fresh.recover_all(ransom.malicious_seqs);
  ASSERT_TRUE(recovered.ok()) << recovered.error().message;
  for (const auto& p : paths) {
    auto back = agent.read_file(p);
    ASSERT_TRUE(back.ok()) << p;
    EXPECT_EQ(*back, content_for(p)) << p;
  }
}

// ---- chaos soak: lockout + no lost honest update, under faults ----

TEST(Revocation, SoakLockoutHoldsAndHonestContentConverges) {
  for (const std::uint64_t seed : {11u, 23u, 47u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    CompromiseSoakOptions opts;
    opts.rounds = 8;
    opts.incident_every = 4;
    opts.seed = seed;
    const CompromiseSoakReport attacked = run_compromise_soak(opts);
    EXPECT_EQ(attacked.incidents, 2u);
    EXPECT_GT(attacked.rotations, 0u);
    EXPECT_GT(attacked.attack.write_attempts, 0u);
    EXPECT_GT(attacked.attack.revoked_denials, 0u);
    EXPECT_TRUE(attacked.lockout_held)
        << "post-floor accepts: " << attacked.attack.writes_accepted_post_floor
        << " writes, " << attacked.attack.reads_accepted_post_floor << " reads";
    EXPECT_TRUE(attacked.converged)
        << attacked.read_mismatches << " mismatches, " << attacked.write_failures
        << " failed writes";

    CompromiseSoakOptions calm = opts;
    calm.attacker = false;
    const CompromiseSoakReport baseline = run_compromise_soak(calm);
    EXPECT_EQ(baseline.incidents, 0u);
    EXPECT_TRUE(baseline.converged);
    // The attacker raced revocation the whole way and changed nothing about
    // the honest content.
    EXPECT_EQ(attacked.content_digest, baseline.content_digest);
  }
}

TEST(Revocation, SoakSurvivesAdminCrashes) {
  CompromiseSoakOptions opts;
  opts.rounds = 8;
  opts.incident_every = 2;  // 4 incidents
  opts.seed = 5;
  opts.crash_prob = 1.0;           // every incident kills the admin once
  opts.recovery_crash_prob = 1.0;  // and the recovery pass too
  opts.cloud_outage_prob = 0.0;
  opts.coord_fault_prob = 0.0;
  const CompromiseSoakReport report = run_compromise_soak(opts);
  EXPECT_EQ(report.incidents, 4u);
  EXPECT_GT(report.response_crashes, 0u);
  EXPECT_GT(report.recovery_crashes, 0u);
  EXPECT_TRUE(report.lockout_held);
  EXPECT_TRUE(report.converged);
}

}  // namespace
}  // namespace rockfs::core
