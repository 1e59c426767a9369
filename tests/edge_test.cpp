// Edge-case sweeps that round out the per-module suites: latency-composition
// helpers, cold-tier lifecycle, coordination durability under churn, keystore
// threshold variants, crypto known-answer vectors beyond the basics, and
// truncated encodings served by untrusted clouds and replicas.
#include <gtest/gtest.h>

#include "cloud/provider.h"
#include "common/compress.h"
#include "common/hex.h"
#include "coord/replica.h"
#include "coord/service.h"
#include "crypto/aes.h"
#include "crypto/hmac.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"
#include "depsky/metadata.h"
#include "diff/binary_diff.h"
#include "rockfs/deployment.h"
#include "rockfs/keystore.h"
#include "rockfs/logservice.h"
#include "secretshare/pvss.h"
#include "secretshare/shamir.h"
#include "sim/timed.h"

namespace rockfs {
namespace {

// ------------------------------------------------------------ sim helpers

TEST(QuorumDelay, Semantics) {
  using sim::quorum_delay;
  EXPECT_EQ(quorum_delay({}, 3), 0);
  EXPECT_EQ(quorum_delay({10, 20, 30}, 0), 0);
  EXPECT_EQ(quorum_delay({10, 20, 30}, 1), 10);
  EXPECT_EQ(quorum_delay({30, 10, 20}, 2), 20);   // order-independent
  EXPECT_EQ(quorum_delay({10, 20, 30}, 3), 30);
  EXPECT_EQ(quorum_delay({10, 20, 30}, 99), 30);  // clamped to size
}

TEST(ParallelDelay, Semantics) {
  EXPECT_EQ(sim::parallel_delay({}), 0);
  EXPECT_EQ(sim::parallel_delay({5}), 5);
  EXPECT_EQ(sim::parallel_delay({5, 50, 7}), 50);
}

// ----------------------------------------------------------- cloud cold tier

struct ColdTierFixture : ::testing::Test {
  sim::SimClockPtr clock = std::make_shared<sim::SimClock>();
  cloud::CloudProvider provider{"s3", clock, sim::LinkProfile::s3_like("s3"), 11};
  cloud::AccessToken admin =
      provider.issue_token("admin", "fs", cloud::TokenScope::kAdmin);
  cloud::AccessToken user = provider.issue_token("u", "fs", cloud::TokenScope::kFiles);
};

TEST_F(ColdTierFixture, ArchiveMovesBytesBetweenTiers) {
  provider.put(user, "files/f", Bytes(1'000, 1)).value.expect("put");
  EXPECT_EQ(provider.stored_bytes(), 1'000u);
  EXPECT_EQ(provider.cold_bytes(), 0u);
  provider.archive(admin, "files/f").value.expect("archive");
  EXPECT_EQ(provider.stored_bytes(), 0u);
  EXPECT_EQ(provider.cold_bytes(), 1'000u);
  EXPECT_TRUE(provider.archived("files/f"));
  // Hot read now misses; cold read succeeds with a huge delay.
  EXPECT_EQ(provider.get(admin, "files/f").value.code(), ErrorCode::kNotFound);
  auto cold = provider.restore_from_cold(admin, "files/f");
  ASSERT_TRUE(cold.value.ok());
  EXPECT_EQ(cold.value->size(), 1'000u);
  EXPECT_GT(cold.delay, 3'600'000'000LL);  // Glacier-class hours
}

TEST_F(ColdTierFixture, ArchiveValidation) {
  EXPECT_EQ(provider.archive(admin, "files/none").value.code(), ErrorCode::kNotFound);
  EXPECT_EQ(provider.restore_from_cold(admin, "files/none").value.code(),
            ErrorCode::kNotFound);
  provider.put(user, "files/f", Bytes(10, 1)).value.expect("put");
  provider.set_available(false);
  EXPECT_EQ(provider.archive(admin, "files/f").value.code(), ErrorCode::kUnavailable);
  EXPECT_EQ(provider.restore_from_cold(admin, "files/f").value.code(),
            ErrorCode::kUnavailable);
}

// -------------------------------------------------- coordination durability

TEST(CoordDurability, FullClusterCheckpointRoundTrip) {
  auto clock = std::make_shared<sim::SimClock>();
  coord::CoordinationService svc(clock, 1, 3);
  for (int i = 0; i < 20; ++i) {
    svc.out({"k", std::to_string(i)}).value.expect("out");
  }
  // Checkpoint every replica, wipe two via restore-from-peer, verify state.
  const Bytes cp = svc.checkpoint_replica(0);
  ASSERT_TRUE(svc.restore_replica(1, cp).ok());
  ASSERT_TRUE(svc.restore_replica(2, cp).ok());
  auto c = svc.count(coord::Template::of({"k", "*"}));
  ASSERT_TRUE(c.value.ok());
  EXPECT_EQ(*c.value, 20u);
}

TEST(CoordDurability, RestoreRejectsGarbage) {
  auto clock = std::make_shared<sim::SimClock>();
  coord::CoordinationService svc(clock, 1, 3);
  EXPECT_FALSE(svc.restore_replica(0, to_bytes("not a checkpoint")).ok());
  // A slot holding a valid tuple encoding followed by stray bytes: the tuple
  // parses, but the restored replica could not checkpoint those bytes back.
  Bytes slot = coord::serialize_tuple({"k", "v"});
  append(slot, Bytes{1, 2, 3});
  Bytes cp;
  append_u64(cp, 1);
  append_lp(cp, slot);
  EXPECT_EQ(svc.restore_replica(0, cp).code(), ErrorCode::kCorrupted);
}

TEST(CoordChurn, WritesDuringRollingFaults) {
  auto clock = std::make_shared<sim::SimClock>();
  coord::CoordinationService svc(clock, 1, 9);
  // One replica at a time goes down while writes continue; state converges
  // for the replicas that stayed up (the down one misses updates — our
  // simulation has no state-transfer protocol beyond checkpoints, so bring
  // it back via a peer checkpoint as DepSpace's durability layer would).
  for (std::size_t down = 0; down < 4; ++down) {
    svc.set_replica_down(down, true);
    svc.out({"epoch", std::to_string(down)}).value.expect("out");
    svc.set_replica_down(down, false);
    const Bytes cp = svc.checkpoint_replica((down + 1) % 4);
    ASSERT_TRUE(svc.restore_replica(down, cp).ok());
  }
  auto c = svc.count(coord::Template::of({"epoch", "*"}));
  ASSERT_TRUE(c.value.ok());
  EXPECT_EQ(*c.value, 4u);
}

// --------------------------------------------------------- crypto vectors

TEST(CryptoVectors, HmacSha256Rfc4231Case3) {
  // key = 20x 0xaa, data = 50x 0xdd.
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(hex_encode(crypto::hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(CryptoVectors, Sha256TwoBlockBoundaryLengths) {
  // Lengths around the 64-byte block boundary must all round-trip the
  // streaming/one-shot equivalence (padding edge cases).
  for (const std::size_t len : {55uL, 56uL, 57uL, 63uL, 64uL, 65uL, 119uL, 120uL}) {
    const Bytes data(len, 'x');
    crypto::Sha256 ctx;
    for (const Byte b : data) ctx.update(BytesView(&b, 1));
    EXPECT_EQ(ctx.finish(), crypto::sha256(data)) << len;
  }
}

TEST(CryptoVectors, Aes256CtrMultiBlockSp80038a) {
  // SP 800-38A F.5.5 CTR-AES256, blocks 1-2.
  const Bytes key = hex_decode(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  const Bytes iv = hex_decode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = hex_decode(
      "6bc1bee22e409f96e93d7e117393172a"
      "ae2d8a571e03ac9c9eb76fac45af8e51");
  EXPECT_EQ(hex_encode(crypto::aes256_ctr(key, iv, pt)),
            "601ec313775789a5b7a7f504bbf3d228"
            "f443e3ca4d62b59aca84e990cacaf5c5");
}

// ---------------------------------------------------- truncated encodings
//
// Every decoder below parses bytes a cloud or a coordination replica served,
// before any signature or digest check, and a Byzantine server can always
// cut an object short. No prefix may read past its buffer (each prefix gets
// its own exactly-sized heap copy, so the sanitizer builds see an over-read)
// or let an exception escape. Self-delimiting encodings must also reject
// every strict prefix.

// Calls check(prefix, len) for every strict prefix of `full`.
template <typename Check>
void for_each_strict_prefix(const Bytes& full, Check check) {
  for (std::size_t len = 0; len < full.size(); ++len) {
    const Bytes prefix(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(len));
    check(BytesView(prefix), len);
  }
}

template <typename Decode>
void expect_prefixes_rejected(const char* what, const Bytes& full, Decode decode) {
  ASSERT_TRUE(decode(BytesView(full)).ok()) << what << ": the full encoding must decode";
  for_each_strict_prefix(full, [&](BytesView prefix, std::size_t len) {
    EXPECT_FALSE(decode(prefix).ok()) << what << " accepted a " << len << "-byte prefix";
  });
}

template <typename Decode>
void expect_prefixes_survive(const char* what, const Bytes& full, Decode decode) {
  for_each_strict_prefix(full, [&](BytesView prefix, std::size_t len) {
    EXPECT_NO_THROW((void)decode(prefix)) << what << ", " << len << "-byte prefix";
  });
}

TEST(TruncatedEncodings, SelfDelimitingPrefixesAreErrors) {
  crypto::Drbg drbg(to_bytes("truncation"));
  const crypto::KeyPair writer = crypto::generate_keypair(drbg);

  depsky::UnitMetadata meta;
  meta.unit = "files/x";
  meta.version = 3;
  meta.data_size = 100;
  meta.membership_epoch = 1;
  meta.share_digests.assign(4, crypto::sha256(to_bytes("share")));
  meta.sign(writer);
  expect_prefixes_rejected("UnitMetadata", meta.serialize(), depsky::UnitMetadata::deserialize);

  auto clock = std::make_shared<sim::SimClock>();
  cloud::CloudProvider provider{"s3", clock, sim::LinkProfile::s3_like("s3"), 11};
  const cloud::AccessToken token =
      provider.issue_token("alice", "fs", cloud::TokenScope::kLogAppend);
  expect_prefixes_rejected("AccessToken", token.serialize(), cloud::AccessToken::deserialize);

  std::vector<core::ShareHolder> holders;
  std::vector<crypto::Point> holder_pubs;
  for (const char* name : {"device", "coord", "usb"}) {
    holders.push_back({name, crypto::generate_keypair(drbg)});
    holder_pubs.push_back(holders.back().keys.public_key);
  }
  const secretshare::PvssDeal deal = secretshare::pvss_share(
      crypto::scalar_from_bytes(drbg.generate(32)), holder_pubs, 2, drbg);
  expect_prefixes_rejected("PvssDeal", deal.serialize(), secretshare::PvssDeal::deserialize);
  const auto decrypted = secretshare::pvss_decrypt_share(deal, 1, holders[0].keys, drbg);
  ASSERT_TRUE(decrypted.ok());
  expect_prefixes_rejected("PvssDecryptedShare", decrypted->serialize(),
                           secretshare::PvssDecryptedShare::deserialize);

  core::Keystore keystore;
  keystore.user_id = "alice";
  keystore.user_private_key = drbg.generate(32);
  keystore.file_tokens = {provider.issue_token("alice", "fs", cloud::TokenScope::kFiles)};
  keystore.log_tokens = {token};
  keystore.session_key = drbg.generate(32);
  keystore.session_key_expiry_us = 7;
  keystore.fssagg_key_a = drbg.generate(32);
  keystore.fssagg_key_b = drbg.generate(32);
  keystore.fssagg_base_count = 5;
  expect_prefixes_rejected("Keystore", keystore.serialize(), core::Keystore::deserialize);
  expect_prefixes_rejected("SealedKeystore",
                           core::seal_keystore(keystore, holders, 2, drbg).serialize(),
                           core::SealedKeystore::deserialize);

  coord::Replica replica("r0");
  replica.out({"inode", "/a", "3"});
  replica.out({"lease", "/a", "alice", ""});
  expect_prefixes_rejected("Replica", replica.checkpoint(), [](BytesView b) {
    return coord::Replica::restore("r1", b);
  });

  Bytes text;
  for (int i = 0; i < 40; ++i) append(text, to_bytes("ransomware-resilient "));
  expect_prefixes_rejected("lz", lz_compress(text),
                           [](BytesView b) { return lz_decompress(b); });
}

TEST(TruncatedEncodings, OpenEndedPrefixesNeverCrash) {
  crypto::Drbg drbg(to_bytes("truncation"));
  const auto shares = secretshare::shamir_share(drbg.generate(32), 2, 4, drbg);
  expect_prefixes_survive("ShamirShare", shares[0].serialize(),
                          secretshare::ShamirShare::deserialize);

  // A delta with both COPY and (compressible) INSERT opcodes.
  const Bytes old_data = drbg.generate(4096);
  Bytes new_data = old_data;
  new_data[100] ^= 0xff;
  for (int i = 0; i < 20; ++i) append(new_data, to_bytes("appended line "));
  const diff::LogDelta delta = diff::make_log_delta(old_data, new_data);
  ASSERT_FALSE(delta.whole_file);
  expect_prefixes_survive("LogDelta", delta.serialize(), diff::LogDelta::deserialize);
  expect_prefixes_survive("patch", delta.payload,
                          [&](BytesView b) { return diff::patch(old_data, b); });

  for (const Byte codec : {Byte{0}, Byte{1}}) {
    const Bytes payload = core::wrap_log_payload(delta.serialize(), codec == 1);
    ASSERT_EQ(payload.front(), codec);
    expect_prefixes_survive(codec == 1 ? "lz log payload" : "raw log payload", payload,
                            core::unwrap_log_payload);
  }
}

// ------------------------------------------------ deployment odds and ends

TEST(DeploymentEdge, DuplicateUserRejected) {
  core::Deployment dep;
  dep.add_user("alice");
  EXPECT_THROW(dep.add_user("alice"), std::invalid_argument);
  EXPECT_THROW(dep.agent("nobody"), std::invalid_argument);
  EXPECT_THROW(dep.secrets("nobody"), std::invalid_argument);
}

TEST(DeploymentEdge, F2DeploymentEndToEnd) {
  core::DeploymentOptions opts;
  opts.f = 2;  // 7 clouds, 7 coordination replicas
  core::Deployment dep(opts);
  EXPECT_EQ(dep.clouds().size(), 7u);
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/f", to_bytes("seven clouds")).ok());
  // Two simultaneous cloud outages are within the f=2 bound.
  dep.clouds()[0]->set_available(false);
  dep.clouds()[5]->set_available(false);
  alice.fs().clear_cache();
  auto content = alice.read_file("/f");
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(to_string(*content), "seven clouds");
}

}  // namespace
}  // namespace rockfs
