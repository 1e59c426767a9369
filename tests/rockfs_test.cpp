#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "rockfs/attack.h"
#include "rockfs/costs.h"
#include "rockfs/deployment.h"

namespace rockfs::core {
namespace {

// ---------------------------------------------------------------- Keystore

struct KeystoreFixture : ::testing::Test {
  crypto::Drbg drbg{to_bytes("keystore-test")};
  std::vector<ShareHolder> holders{
      {"device", crypto::generate_keypair(drbg)},
      {"coordination", crypto::generate_keypair(drbg)},
      {"external", crypto::generate_keypair(drbg)},
  };
  std::vector<crypto::Point> pubs{holders[0].keys.public_key, holders[1].keys.public_key,
                                  holders[2].keys.public_key};

  Keystore sample_keystore() {
    Keystore ks;
    ks.user_id = "alice";
    ks.user_private_key = drbg.generate(32);
    ks.session_key = drbg.generate(32);
    ks.session_key_expiry_us = 123456;
    ks.fssagg_key_a = drbg.generate(32);
    ks.fssagg_key_b = drbg.generate(32);
    return ks;
  }
};

TEST_F(KeystoreFixture, SealUnsealRoundTrip) {
  const Keystore ks = sample_keystore();
  const SealedKeystore sealed = seal_keystore(ks, holders, 2, drbg);
  for (const auto& pair : {std::pair{0, 1}, {0, 2}, {1, 2}}) {
    auto restored = unseal_keystore(sealed, {holders[static_cast<std::size_t>(pair.first)],
                                             holders[static_cast<std::size_t>(pair.second)]},
                                    pubs, 2, drbg);
    ASSERT_TRUE(restored.ok()) << restored.error().message;
    EXPECT_EQ(restored->user_id, "alice");
    EXPECT_EQ(restored->user_private_key, ks.user_private_key);
    EXPECT_EQ(restored->fssagg_key_a, ks.fssagg_key_a);
  }
}

TEST_F(KeystoreFixture, OneShareIsNotEnough) {
  const SealedKeystore sealed = seal_keystore(sample_keystore(), holders, 2, drbg);
  auto restored = unseal_keystore(sealed, {holders[0]}, pubs, 2, drbg);
  EXPECT_EQ(restored.code(), ErrorCode::kInvalidArgument);
}

TEST_F(KeystoreFixture, TamperedCiphertextDetected) {
  SealedKeystore sealed = seal_keystore(sample_keystore(), holders, 2, drbg);
  sealed.ciphertext[sealed.ciphertext.size() / 2] ^= 0x01;
  auto restored = unseal_keystore(sealed, {holders[0], holders[1]}, pubs, 2, drbg);
  EXPECT_EQ(restored.code(), ErrorCode::kIntegrity);
}

TEST_F(KeystoreFixture, TamperedDealDetected) {
  SealedKeystore sealed = seal_keystore(sample_keystore(), holders, 2, drbg);
  sealed.deal.commitments[0] = crypto::scalar_mul_base(crypto::Uint256(5));
  auto restored = unseal_keystore(sealed, {holders[0], holders[1]}, pubs, 2, drbg);
  EXPECT_EQ(restored.code(), ErrorCode::kIntegrity);
}

TEST_F(KeystoreFixture, WrongHolderKeyDetectedByVerifyS) {
  const SealedKeystore sealed = seal_keystore(sample_keystore(), holders, 2, drbg);
  // Ransomware "encrypted" the device share: the holder key is now garbage.
  ShareHolder corrupted = holders[0];
  corrupted.keys = crypto::generate_keypair(drbg);
  auto restored = unseal_keystore(sealed, {corrupted, holders[1]}, pubs, 2, drbg);
  EXPECT_EQ(restored.code(), ErrorCode::kIntegrity);
}

TEST_F(KeystoreFixture, PasswordLayerRequiresBothFactors) {
  // Paper §5.4: the keystore is also password-encrypted, so k shares alone
  // do not suffice.
  const Keystore ks = sample_keystore();
  const SealedKeystore sealed = seal_keystore(ks, holders, 2, drbg, "hunter2");
  // Right password + k shares: ok.
  auto ok = unseal_keystore(sealed, {holders[0], holders[1]}, pubs, 2, drbg, "hunter2");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok->user_id, "alice");
  // Right shares, wrong/missing password: integrity failure, not plaintext.
  EXPECT_EQ(
      unseal_keystore(sealed, {holders[0], holders[1]}, pubs, 2, drbg, "wrong").code(),
      ErrorCode::kIntegrity);
  EXPECT_EQ(unseal_keystore(sealed, {holders[0], holders[1]}, pubs, 2, drbg).code(),
            ErrorCode::kIntegrity);
  // Right password, too few shares: still rejected.
  EXPECT_FALSE(unseal_keystore(sealed, {holders[2]}, pubs, 2, drbg, "hunter2").ok());
}

TEST_F(KeystoreFixture, KeystoreSerializationRoundTrip) {
  Keystore ks = sample_keystore();
  auto restored = Keystore::deserialize(ks.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->user_id, ks.user_id);
  EXPECT_EQ(restored->session_key_expiry_us, ks.session_key_expiry_us);
  Bytes mangled = ks.serialize();
  mangled.push_back(0);
  EXPECT_EQ(Keystore::deserialize(mangled).code(), ErrorCode::kCorrupted);
}

// -------------------------------------------------------------- Deployment

TEST(Deployment, PaperTopology) {
  Deployment dep;
  EXPECT_EQ(dep.clouds().size(), 4u);                     // 4 S3 buckets
  EXPECT_EQ(dep.coordination()->replica_count(), 4u);     // 4 DepSpace replicas
  auto& alice = dep.add_user("alice");
  EXPECT_TRUE(alice.logged_in());
}

TEST(Deployment, BasicFileWorkflow) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/doc.txt", to_bytes("first version")).ok());
  auto content = alice.read_file("/doc.txt");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(to_string(*content), "first version");
  EXPECT_EQ(alice.log_seq(), 1u);  // the close was logged
  ASSERT_TRUE(alice.write_file("/doc.txt", to_bytes("second version")).ok());
  EXPECT_EQ(alice.log_seq(), 2u);
}

TEST(Deployment, UsersAreIsolated) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  auto& bob = dep.add_user("bob");
  ASSERT_TRUE(alice.write_file("/mine", to_bytes("alice data")).ok());
  // Bob shares the namespace view (SCFS is a *shared* FS) but his units and
  // logs are separate.
  ASSERT_TRUE(bob.write_file("/his", to_bytes("bob data")).ok());
  EXPECT_EQ(alice.log_seq(), 1u);
  EXPECT_EQ(bob.log_seq(), 1u);
}

TEST(Deployment, EveryAddedUserGetsTheDeploymentWiring) {
  // f = 2 (seven clouds) and a two-thread pool: whichever add_user overload
  // adds a user, their storage runs the deployment's quorum maths, shares
  // its freshness witness (cross-session equivocation checks) and its pool.
  DeploymentOptions opts;
  opts.f = 2;
  opts.executor_threads = 2;
  Deployment dep(opts);
  AgentOptions own;
  own.sync_mode = scfs::SyncMode::kBlocking;
  for (RockFsAgent* agent : {&dep.add_user("carol"), &dep.add_user("dave", own)}) {
    SCOPED_TRACE(agent->user_id());
    const auto storage = agent->storage();
    ASSERT_NE(storage, nullptr);
    EXPECT_EQ(storage->f(), 2u);
    EXPECT_EQ(&storage->witness(), dep.witness().get());
    EXPECT_NE(storage->config().executor, nullptr);
  }

  // A user added after a reconfiguration starts at the epoch in force.
  auto report = dep.reconfigure_cloud(0);
  ASSERT_TRUE(report.ok()) << report.error().message;
  ASSERT_EQ(dep.membership_epoch(), 1u);
  for (RockFsAgent* agent : {&dep.add_user("erin"), &dep.add_user("frank", own)}) {
    SCOPED_TRACE(agent->user_id());
    EXPECT_EQ(agent->storage()->membership_epoch(), 1u);
  }
}

// ------------------------------------------------ T2: credential recovery

TEST(ThreatT2, DeviceShareDestroyedExternalRecovers) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/f", to_bytes("precious")).ok());
  alice.logout();

  // Ransomware wipes the device share.
  dep.destroy_device_share("alice");
  // Default login (device + coordination) no longer has k=2 shares.
  EXPECT_FALSE(dep.login_default("alice").ok());
  EXPECT_FALSE(alice.logged_in());
  // The user fetches the USB stick: external + coordination shares suffice.
  ASSERT_TRUE(dep.login_with_external("alice").ok());
  ASSERT_TRUE(alice.logged_in());
  auto content = alice.read_file("/f");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(to_string(*content), "precious");
}

// ------------------------------------------------ T3: local cache secrecy

TEST(ThreatT3, CacheHoldsNoPlaintext) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  const std::string probe = "CONFIDENTIAL-MARKER-XYZZY";
  ASSERT_TRUE(alice.write_file("/secret.txt", to_bytes("data " + probe + " end")).ok());

  const auto report = cache_theft_attack(alice, {"/secret.txt"}, probe);
  EXPECT_EQ(report.cached_files, 1u);
  EXPECT_EQ(report.plaintext_leaks, 0u);
}

TEST(ThreatT3, StockScfsLeaksPlaintext) {
  // Control experiment: with cache crypto off (stock SCFS), the probe IS on
  // disk — this is exactly the gap RockFS closes.
  DeploymentOptions opts;
  opts.agent.enable_cache_crypto = false;
  Deployment dep(opts);
  auto& alice = dep.add_user("alice");
  const std::string probe = "CONFIDENTIAL-MARKER-XYZZY";
  ASSERT_TRUE(alice.write_file("/secret.txt", to_bytes("data " + probe + " end")).ok());
  const auto report = cache_theft_attack(alice, {"/secret.txt"}, probe);
  EXPECT_EQ(report.plaintext_leaks, 1u);
}

TEST(ThreatT3, TamperedCacheDetectedAndRefetched) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/f", to_bytes("genuine content")).ok());
  // Attacker flips bits in the cached file on disk.
  auto raw = alice.fs().cached_raw("/f");
  ASSERT_TRUE(raw.has_value());
  (*raw)[raw->size() / 2] ^= 0xFF;
  alice.fs().poke_cache("/f", *raw);
  // open() detects the mismatch and falls back to the cloud copy.
  auto content = alice.read_file("/f");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(to_string(*content), "genuine content");
}

TEST(ThreatT3, TamperAnywhereInTheCachedBoxRefetches) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  const std::string genuine = "genuine content";
  ASSERT_TRUE(alice.write_file("/f", to_bytes(genuine)).ok());
  ASSERT_TRUE(alice.write_file("/g", to_bytes("other file, same version")).ok());
  const Bytes other_box = *alice.fs().cached_raw("/g");

  // Each case rewrites the freshly refilled box of /f; the next open must
  // reject it once and serve the cloud's bytes. The box is IV || ciphertext
  // || tag, 48 bytes longer than the file, so flipping every byte in turn
  // covers the first and last IV byte, the first ciphertext byte and the
  // last tag byte whatever the split between IV and tag.
  std::vector<std::pair<std::string, std::function<Bytes(Bytes)>>> cases;
  const std::size_t box_size = genuine.size() + 48;
  for (std::size_t i = 0; i < box_size; ++i) {
    cases.emplace_back("flip byte " + std::to_string(i), [i](Bytes raw) {
      raw[i] ^= 0x01;
      return raw;
    });
  }
  cases.emplace_back("truncate to 47 bytes", [](Bytes raw) {
    raw.resize(47);
    return raw;
  });
  cases.emplace_back("append one byte", [](Bytes raw) {
    raw.push_back(0x00);
    return raw;
  });
  cases.emplace_back("another path's box", [&](Bytes) { return other_box; });

  for (const auto& [name, tamper] : cases) {
    SCOPED_TRACE(name);
    auto raw = alice.fs().cached_raw("/f");
    ASSERT_TRUE(raw.has_value());
    ASSERT_EQ(raw->size(), box_size);
    alice.fs().poke_cache("/f", tamper(*raw));
    const auto fails = obs::metrics().counter_value("cache.data.unseal_fail");
    auto content = alice.read_file("/f");
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(to_string(*content), genuine);
    EXPECT_EQ(obs::metrics().counter_value("cache.data.unseal_fail"), fails + 1);
  }
}

TEST(ThreatT3, SessionKeyExpiryDiscardsCache) {
  DeploymentOptions opts;
  opts.agent.session_key_validity_us = 1'000'000;  // 1 virtual second
  Deployment dep(opts);
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/f", Bytes(50'000, 0x3C)).ok());

  std::uint64_t down_before = 0;
  for (auto& c : dep.clouds()) down_before += c->traffic().downloaded_bytes();
  dep.clock()->advance_seconds(10);  // session key expires
  auto content = alice.read_file("/f");
  ASSERT_TRUE(content.ok());
  std::uint64_t down_after = 0;
  for (auto& c : dep.clouds()) down_after += c->traffic().downloaded_bytes();
  // The stale cache could not be used: the file was refetched.
  EXPECT_GT(down_after, down_before);
}

TEST(ThreatT3, ReloginNeverRepeatsACacheIv) {
  // Two GCM boxes under one key and one IV give up the hash subkey, and with
  // it the power to forge boxes that open. So no IV may come back in a later
  // session, whether that session mints its own S_U or adopts the one a
  // keystore rotation stored; and since IVs are public, none may equal an
  // S_U either. Every session seals a new file the same way, so a session
  // that replays an earlier one's random draws repeats its IV.
  Deployment dep;
  auto& alice = dep.add_user("alice");
  const auto seal = [&](const std::string& path) {
    EXPECT_TRUE(alice.write_file(path, to_bytes("the same bytes every session")).ok());
    const Bytes raw = alice.fs().cached_raw(path).value();
    return std::pair{Bytes(raw.begin(), raw.begin() + 32), alice.current_session_key()};
  };
  const auto relogin = [&] {
    alice.logout();
    EXPECT_TRUE(dep.login_default("alice").ok());
  };

  const auto [iv1, minted1] = seal("/s1");
  relogin();
  const auto [iv2, minted2] = seal("/s2");
  EXPECT_NE(iv1, iv2);
  EXPECT_NE(minted1, minted2);  // a stolen S_U does not come back either

  ASSERT_TRUE(dep.respond_to_compromise("alice").ok());
  const auto [iv3, stored3] = seal("/s3");
  relogin();
  const auto [iv4, stored4] = seal("/s4");
  EXPECT_EQ(stored3, stored4);  // both sessions seal under the stored S_U
  EXPECT_NE(iv3, iv4);

  for (const Bytes& iv : {iv1, iv2, iv3, iv4}) {
    for (const Bytes& key : {minted1, minted2, stored3}) EXPECT_NE(iv, key);
  }
}

// ------------------------------------------- A2: log tampering is blocked

TEST(AttackA2, StolenTokensCannotDestroyTheLog) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/f", to_bytes("v1")).ok());
  ASSERT_TRUE(alice.write_file("/f", to_bytes("v2")).ok());

  const auto report = log_tamper_attack(dep, "alice");
  EXPECT_GT(report.delete_attempts, 0u);
  EXPECT_EQ(report.deletes_denied, report.delete_attempts);
  EXPECT_EQ(report.overwrites_denied, report.overwrite_attempts);
}

// --------------------------------------------------- Recovery (T1, A1/A3)

struct RecoveryFixture : ::testing::Test {
  Deployment dep;
  RockFsAgent& alice = dep.add_user("alice");
};

TEST_F(RecoveryFixture, AuditCleanLog) {
  ASSERT_TRUE(alice.write_file("/f", to_bytes("v1")).ok());
  ASSERT_TRUE(alice.write_file("/f", to_bytes("v1 and v2")).ok());
  auto recovery = dep.make_recovery_service("alice");
  auto audit = recovery.audit_log();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->report.ok);
  EXPECT_EQ(audit->records.size(), 2u);
  EXPECT_EQ(audit->records[0].op, "create");
  EXPECT_EQ(audit->records[1].op, "update");
}

TEST_F(RecoveryFixture, UndoRansomwareOnOneFile) {
  const Bytes good = to_bytes("the good content the user wants back");
  ASSERT_TRUE(alice.write_file("/doc", good).ok());

  const auto attack = ransomware_attack(alice, {"/doc"}, /*seed=*/666);
  ASSERT_EQ(attack.files_encrypted, 1u);
  EXPECT_NE(*alice.read_file("/doc"), good);  // damage is live in the clouds

  auto recovery = dep.make_recovery_service("alice");
  auto result = recovery.recover_file("/doc", attack.malicious_seqs);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(result->content, good);
  EXPECT_EQ(result->skipped_malicious, 1u);

  // The user sees the recovered version (cache is stale -> refetch).
  auto content = alice.read_file("/doc");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, good);
}

TEST_F(RecoveryFixture, FailedRecoveryBooksNoMttr) {
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("content")).ok());
  auto recovery = dep.make_recovery_service("alice");
  ASSERT_TRUE(recovery.recover_file("/doc", {}).ok());
  const auto files = obs::metrics().counter_value("recovery.files_recovered");
  const auto mttrs = obs::metrics().histogram("recovery.mttr_us").count();
  const auto last = recovery.last_recovery_us();
  const auto before = dep.clock()->now_us();

  auto missing = recovery.recover_file("/never-written", {});
  EXPECT_EQ(missing.code(), ErrorCode::kNotFound);
  EXPECT_EQ(obs::metrics().counter_value("recovery.files_recovered"), files);
  EXPECT_EQ(obs::metrics().histogram("recovery.mttr_us").count(), mttrs);
  EXPECT_EQ(recovery.last_recovery_us(), last);
  // The failed attempt's audit still took virtual time.
  EXPECT_GT(dep.clock()->now_us(), before);
}

TEST_F(RecoveryFixture, ValidOperationsAfterAttackAreKept) {
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("clean v1")).ok());
  const auto attack = ransomware_attack(alice, {"/doc"}, 667);
  // The user (or a collaborator) later writes a legitimate new version.
  const Bytes post = to_bytes("legitimate full rewrite after the attack");
  ASSERT_TRUE(alice.write_file("/doc", post).ok());

  auto recovery = dep.make_recovery_service("alice");
  auto result = recovery.recover_file("/doc", attack.malicious_seqs);
  ASSERT_TRUE(result.ok());
  // Selective re-execution: the attack is skipped, the post-attack write
  // survives (it was a whole-file entry).
  EXPECT_EQ(result->content, post);
  EXPECT_EQ(result->skipped_malicious, 1u);
  EXPECT_GE(result->applied, 2u);  // create + post-attack rewrite
}

TEST_F(RecoveryFixture, DeltaChainRecovery) {
  // Build 5 versions by appending; recover with no malicious ops and get
  // the exact final content (pure selective re-execution sanity).
  Bytes content = to_bytes("base");
  ASSERT_TRUE(alice.write_file("/doc", content).ok());
  for (int i = 0; i < 4; ++i) {
    append(content, to_bytes(" +chunk" + std::to_string(i)));
    ASSERT_TRUE(alice.write_file("/doc", content).ok());
  }
  auto recovery = dep.make_recovery_service("alice");
  auto result = recovery.recover_file("/doc", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->content, content);
  EXPECT_EQ(result->applied, 5u);
}

TEST_F(RecoveryFixture, DeletedFileIsResurrected) {
  const Bytes good = to_bytes("please do not delete me");
  ASSERT_TRUE(alice.write_file("/doc", good).ok());
  const std::uint64_t seq_before = alice.log_seq();
  ASSERT_TRUE(alice.unlink("/doc").ok());  // the "malicious" deletion
  EXPECT_EQ(alice.read_file("/doc").code(), ErrorCode::kNotFound);

  auto recovery = dep.make_recovery_service("alice");
  auto result = recovery.recover_file("/doc", {seq_before});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->content, good);
  auto content = alice.read_file("/doc");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, good);
}

TEST_F(RecoveryFixture, WholeFileSystemRansomwareRecovery) {
  std::map<std::string, Bytes> ground_truth;
  Rng rng(42);
  for (int i = 0; i < 8; ++i) {
    const std::string path = "/file" + std::to_string(i);
    Bytes content = rng.next_bytes(2'000 + 500 * static_cast<std::size_t>(i));
    ASSERT_TRUE(alice.write_file(path, content).ok());
    // A second legitimate version for some files.
    if (i % 2 == 0) {
      append(content, rng.next_bytes(700));
      ASSERT_TRUE(alice.write_file(path, content).ok());
    }
    ground_truth[path] = content;
  }
  std::vector<std::string> paths;
  for (const auto& [p, c] : ground_truth) paths.push_back(p);

  const auto attack = ransomware_attack(alice, paths, 13);
  ASSERT_EQ(attack.files_encrypted, paths.size());

  auto recovery = dep.make_recovery_service("alice");
  auto results = recovery.recover_all(attack.malicious_seqs);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), paths.size());
  for (const auto& r : *results) {
    EXPECT_EQ(r.content, ground_truth[r.path]) << r.path;
  }
  EXPECT_GT(recovery.last_recovery_us(), 0);

  // End-to-end: the user reads every file back intact.
  for (const auto& [path, content] : ground_truth) {
    auto got = alice.read_file(path);
    ASSERT_TRUE(got.ok()) << path;
    EXPECT_EQ(*got, content) << path;
  }
}

TEST_F(RecoveryFixture, PriorityFilesRecoverFirst) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        alice.write_file("/f" + std::to_string(i), to_bytes("data" + std::to_string(i)))
            .ok());
  }
  const auto attack = ransomware_attack(alice, {"/f0", "/f1", "/f2", "/f3"}, 5);
  auto recovery = dep.make_recovery_service("alice");
  auto results = recovery.recover_all(attack.malicious_seqs, {"/f3", "/f2"});
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 4u);
  EXPECT_EQ((*results)[0].path, "/f3");
  EXPECT_EQ((*results)[1].path, "/f2");
}

TEST_F(RecoveryFixture, PriorityListToleratesDuplicatesAndUnknowns) {
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(
        alice.write_file("/f" + std::to_string(i), to_bytes("data" + std::to_string(i)))
            .ok());
  }
  auto recovery = dep.make_recovery_service("alice");
  // Operators paste messy lists: duplicated entries must recover once, paths
  // the log has never seen must be skipped (not fail the whole run), and the
  // completion order must still honor the (deduplicated) priorities.
  auto results =
      recovery.recover_all({}, {"/f2", "/missing", "/f2", "/f0", "/also-missing", "/f2"});
  ASSERT_TRUE(results.ok()) << results.error().message;
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ((*results)[0].path, "/f2");
  EXPECT_EQ((*results)[1].path, "/f0");
  EXPECT_EQ((*results)[2].path, "/f1");
  std::set<std::string> unique_paths;
  for (const auto& r : *results) unique_paths.insert(r.path);
  EXPECT_EQ(unique_paths.size(), results->size());  // nothing recovered twice
}

TEST_F(RecoveryFixture, RecoveryOperationsAreLogged) {
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("v1")).ok());
  const auto attack = ransomware_attack(alice, {"/doc"}, 7);
  auto recovery = dep.make_recovery_service("alice");
  ASSERT_TRUE(recovery.recover_file("/doc", attack.malicious_seqs).ok());
  // The admin chain holds a "recover" record.
  auto admin_log = read_log_records(*dep.coordination(), "admin:alice");
  ASSERT_TRUE(admin_log.value.ok());
  ASSERT_EQ(admin_log.value->size(), 1u);
  EXPECT_EQ((*admin_log.value)[0].op, "recover");
}

// --------------------------------- A3: log metadata tampering is detected

TEST_F(RecoveryFixture, TamperedLogRecordIsDiscarded) {
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("v1")).ok());
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("v1v2")).ok());

  // The attacker somehow rewrites a log tuple at EVERY replica (beyond the
  // BFT bound — worst case). FssAgg still catches it.
  auto records = read_log_records(*dep.coordination(), "alice");
  ASSERT_TRUE(records.value.ok());
  LogRecord forged = (*records.value)[1];
  forged.path = "/somewhere-else";  // attacker redirects the entry
  const auto pattern = coord::Template::of(
      {"rocklog", "alice", "*", "/doc", "5", "*", "*", "*", "*", "*", "*", "*", "*"});
  for (std::size_t i = 0; i < dep.coordination()->replica_count(); ++i) {
    auto& replica = dep.coordination()->replica(i);
    // Remove the genuine second record and plant the forged one.
    coord::Template exact = coord::Template::of(
        {"rocklog", "alice", (*records.value)[1].to_tuple()[2], "*", "*", "*", "*", "*",
         "*", "*", "*", "*", "*"});
    replica.inp(exact);
    replica.out(forged.to_tuple());
  }
  (void)pattern;

  auto recovery = dep.make_recovery_service("alice");
  auto audit = recovery.audit_log();
  ASSERT_TRUE(audit.ok());
  EXPECT_FALSE(audit->report.ok);
  ASSERT_EQ(audit->discarded_seqs.size(), 1u);

  // Recovery proceeds using only the intact entries: the forged record
  // points at another path, and its seq is in the discard set either way.
  auto result = recovery.recover_file("/doc", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(result->content), "v1");  // v2's entry was discarded
}

TEST_F(RecoveryFixture, ByzantineReplicaCannotPoisonTheAudit) {
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("v1")).ok());
  dep.coordination()->replica(2).set_byzantine(true);
  auto recovery = dep.make_recovery_service("alice");
  auto audit = recovery.audit_log();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->report.ok);  // the lie was outvoted
}

TEST_F(RecoveryFixture, CorruptedLogDataHalfIsSkipped) {
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("v1")).ok());
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("v1 plus v2")).ok());
  // Corrupt the second entry's payload at every cloud (beyond-f worst case).
  auto records = read_log_records(*dep.coordination(), "alice");
  const std::string unit = (*records.value)[1].data_unit();
  for (auto& c : dep.clouds()) {
    for (std::size_t s = 0; s < 4; ++s) {
      (void)c->corrupt_object(unit + ".v1.s" + std::to_string(s));
    }
  }
  auto recovery = dep.make_recovery_service("alice");
  auto result = recovery.recover_file("/doc", {});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(result->content), "v1");
  EXPECT_EQ(result->skipped_invalid, 1u);
}

TEST_F(RecoveryFixture, PointInTimeRecovery) {
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("v1")).ok());
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("v1+v2")).ok());
  const std::int64_t before_attack = dep.clock()->now_us();
  dep.clock()->advance_seconds(60);
  // The "compromise": a write after the cut-off (IDS only knows the time).
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("TAMPERED")).ok());

  auto recovery = dep.make_recovery_service("alice");
  auto result = recovery.recover_file_at("/doc", before_attack);
  ASSERT_TRUE(result.ok()) << result.error().message;
  EXPECT_EQ(to_string(result->content), "v1+v2");
  EXPECT_EQ(result->skipped_malicious, 1u);  // the post-cutoff entry
  auto read_back = alice.read_file("/doc");
  ASSERT_TRUE(read_back.ok());
  EXPECT_EQ(to_string(*read_back), "v1+v2");
}

TEST_F(RecoveryFixture, PointInTimeIgnoresLaterSnapshots) {
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("clean")).ok());
  const std::int64_t cutoff = dep.clock()->now_us();
  dep.clock()->advance_seconds(10);
  ASSERT_TRUE(alice.write_file("/doc", to_bytes("clean+dirty")).ok());

  auto recovery = dep.make_recovery_service("alice");
  // A snapshot taken AFTER the cut-off folds the dirty write in; the
  // point-in-time recovery must bypass it.
  recovery.compact_file("/doc").expect("compact");
  auto result = recovery.recover_file_at("/doc", cutoff);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(to_string(result->content), "clean");
}

// ----------------------------------------------------------- Cost models

TEST(CostModel, PaperExamples) {
  const CostModel model;  // delta=30%, n=4, $0.09/GB egress
  constexpr double kMb = 1024.0 * 1024.0;
  // §6.4.1: 1MB update -> 3MB uploaded; 50MB -> 130MB.
  EXPECT_NEAR(model.log_upload_bytes(1 * kMb) / kMb, 2.6, 0.01);
  EXPECT_NEAR(model.log_upload_bytes(50 * kMb) / kMb, 130.0, 0.5);
  // §6.4.2: 1MB 1-version recovery ~3MB; 50MB 100 versions ~3.1GB, ~$0.27.
  EXPECT_NEAR(model.recovery_download_bytes(1 * kMb, 1) / kMb, 2.6, 0.01);
  EXPECT_NEAR(model.recovery_download_bytes(50 * kMb, 100) / kMb, 3100.0, 10.0);
  EXPECT_NEAR(model.recovery_cost_usd(50 * kMb, 100), 0.27, 0.02);
  EXPECT_LT(model.recovery_cost_usd(1 * kMb, 1), 0.01);
  // Uploads are free by default.
  EXPECT_DOUBLE_EQ(model.upload_cost_usd(1e9), 0.0);
}

TEST(CostModel, StorageEstimateFromRecords) {
  const CostModel model;
  std::vector<LogRecord> records;
  LogRecord create;
  create.seq = 0;
  create.path = "/f";
  create.op = "create";
  create.whole_file = true;
  create.payload_size = 10 << 20;
  records.push_back(create);
  const double usd = estimate_monthly_storage_usd(model, records);
  // 20MB file copy + 20MB log, ~0.04GB at $0.023 -> around a tenth of a cent.
  EXPECT_GT(usd, 0.0005);
  EXPECT_LT(usd, 0.01);
}

// ------------------------------------------------------------ Agent misc

TEST(Agent, OpsRequireLogin) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  alice.logout();
  EXPECT_EQ(alice.create("/f").code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(alice.read_file("/f").code(), ErrorCode::kPermissionDenied);
  EXPECT_EQ(alice.write_file("/f", to_bytes("x")).code(), ErrorCode::kPermissionDenied);
}

TEST(Agent, CrashInADueFlushEndsTheConvenienceCallAsKCrashed) {
  // Each case stages /a, lets its write-back deadline pass and arms the file
  // put: the call's first SCFS operation flushes the due /a and dies in it.
  // The convenience calls must land that crash like any other: kCrashed,
  // session gone — never a raw sim::ClientCrash.
  using Call = std::function<ErrorCode(RockFsAgent&)>;
  const std::vector<std::pair<std::string, Call>> calls = {
      {"read_file", [](RockFsAgent& a) { return a.read_file("/a").code(); }},
      {"write_file", [](RockFsAgent& a) { return a.write_file("/b", to_bytes("b")).code(); }},
      {"unlink", [](RockFsAgent& a) { return a.unlink("/a").code(); }},
  };
  for (const auto& [name, call] : calls) {
    SCOPED_TRACE(name);
    DeploymentOptions opts;
    opts.agent.sync_mode = scfs::SyncMode::kBlocking;
    opts.agent.write_back = true;
    Deployment dep(opts);
    auto& alice = dep.add_user("alice");
    ASSERT_TRUE(alice.write_file("/a", to_bytes("staged")).ok());
    ASSERT_EQ(alice.fs().dirty_entries(), 1u);
    dep.clock()->advance_us(cache::kFlushDeadlineUs + 1);
    dep.crash_schedule()->arm(sim::CrashPoint::kBeforeFilePut);

    ErrorCode code = ErrorCode::kOk;
    EXPECT_NO_THROW(code = call(alice));
    EXPECT_EQ(code, ErrorCode::kCrashed);
    EXPECT_FALSE(alice.logged_in());
    EXPECT_EQ(alice.read_file("/a").code(), ErrorCode::kPermissionDenied);
    EXPECT_TRUE(dep.login_default("alice").ok());  // the restart still works
  }
}

TEST(Agent, LoggingOffMatchesPlainScfs) {
  DeploymentOptions opts;
  opts.agent.enable_logging = false;
  Deployment dep(opts);
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/f", to_bytes("x")).ok());
  EXPECT_EQ(alice.log_seq(), 0u);
  auto records = read_log_records(*dep.coordination(), "alice");
  ASSERT_TRUE(records.value.ok());
  EXPECT_TRUE(records.value->empty());
}

TEST(Agent, ReadFileReturnsTheOpenedContentOrAnError) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/f", to_bytes("hello world")).ok());
  alice.drain_background();

  // Two of the four coordination replicas go dark just after the open's
  // round: no later round can reach a quorum. The opened version is already
  // in hand, so the read must return all of it, never a short OK.
  const auto now = dep.clock()->now_us();
  for (std::size_t i = 0; i < 2; ++i) {
    dep.coordination()->replica_faults(i).add_outage(now + 1, now + 60'000'000);
  }
  auto content = alice.read_file("/f");
  ASSERT_TRUE(content.ok()) << content.error().message;
  EXPECT_EQ(to_string(*content), "hello world");
}

TEST(Agent, NonBlockingModeWorksEndToEnd) {
  DeploymentOptions opts;
  opts.agent.sync_mode = scfs::SyncMode::kNonBlocking;
  Deployment dep(opts);
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/f", Bytes(100'000, 0x77)).ok());
  alice.drain_background();
  auto content = alice.read_file("/f");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(content->size(), 100'000u);
}

}  // namespace
}  // namespace rockfs::core
