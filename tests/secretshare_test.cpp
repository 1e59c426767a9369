#include <gtest/gtest.h>

#include <stdexcept>

#include "common/hex.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "secretshare/pvss.h"
#include "secretshare/shamir.h"

namespace rockfs::secretshare {
namespace {

using crypto::Drbg;
using crypto::KeyPair;
using crypto::Point;
using crypto::Uint256;

Drbg test_drbg(const char* tag) { return Drbg(to_bytes(tag)); }

// ------------------------------------------------------------------ Shamir

TEST(Shamir, RoundTrip2of3) {
  Drbg drbg = test_drbg("shamir1");
  const Bytes secret = to_bytes("the keystore contents: SC1,SC2,CC1");
  const auto shares = shamir_share(secret, 2, 3, drbg);
  ASSERT_EQ(shares.size(), 3u);
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = 0; b < 3; ++b) {
      if (a == b) continue;
      const auto out = shamir_combine({shares[a], shares[b]}, 2);
      ASSERT_TRUE(out.ok());
      EXPECT_EQ(*out, secret);
    }
  }
}

TEST(Shamir, SingleShareRevealsNothing) {
  // With k=2, one share must be statistically unrelated to the secret: share
  // two different secrets with the same DRBG state and note that a single
  // share cannot be used to reconstruct.
  Drbg drbg = test_drbg("shamir2");
  const Bytes secret = to_bytes("super secret");
  const auto shares = shamir_share(secret, 2, 3, drbg);
  const auto out = shamir_combine({shares[0]}, 2);
  EXPECT_EQ(out.code(), ErrorCode::kInvalidArgument);
  // A forged second share yields garbage, not the secret.
  ShamirShare forged = shares[0];
  forged.x = 2;
  const auto combined = shamir_combine({shares[0], forged}, 2);
  ASSERT_TRUE(combined.ok());
  EXPECT_NE(*combined, secret);
}

TEST(Shamir, KofNSweep) {
  Drbg drbg = test_drbg("shamir3");
  const Bytes secret = drbg.generate(64);
  for (std::size_t n = 1; n <= 8; ++n) {
    for (std::size_t k = 1; k <= n; ++k) {
      const auto shares = shamir_share(secret, k, n, drbg);
      // Use the *last* k shares to stress non-trivial x coordinates.
      std::vector<ShamirShare> subset(shares.end() - static_cast<std::ptrdiff_t>(k),
                                      shares.end());
      const auto out = shamir_combine(subset, k);
      ASSERT_TRUE(out.ok()) << "k=" << k << " n=" << n;
      EXPECT_EQ(*out, secret);
    }
  }
}

TEST(Shamir, EmptySecretAndParamValidation) {
  Drbg drbg = test_drbg("shamir4");
  const auto shares = shamir_share(Bytes{}, 2, 3, drbg);
  const auto out = shamir_combine({shares[0], shares[1]}, 2);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->empty());
  EXPECT_THROW(shamir_share(Bytes{1}, 0, 3, drbg), std::invalid_argument);
  EXPECT_THROW(shamir_share(Bytes{1}, 4, 3, drbg), std::invalid_argument);
}

TEST(Shamir, SerializeRoundTrip) {
  Drbg drbg = test_drbg("shamir5");
  const auto shares = shamir_share(to_bytes("data"), 2, 3, drbg);
  const Bytes wire = shares[1].serialize();
  const auto restored = ShamirShare::deserialize(wire);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->x, shares[1].x);
  EXPECT_EQ(restored->y, shares[1].y);
  EXPECT_EQ(ShamirShare::deserialize(Bytes{}).code(), ErrorCode::kCorrupted);
  EXPECT_EQ(ShamirShare::deserialize(Bytes{0, 1, 2}).code(), ErrorCode::kCorrupted);
}

TEST(Shamir, MixedShareLengthsRejected) {
  Drbg drbg = test_drbg("shamir6");
  auto shares = shamir_share(to_bytes("12345678"), 2, 3, drbg);
  shares[1].y.pop_back();
  EXPECT_EQ(shamir_combine({shares[0], shares[1]}, 2).code(),
            ErrorCode::kInvalidArgument);
}

TEST(Shamir, InterpolateShareMatchesOriginal) {
  Drbg drbg = test_drbg("shamir-interp");
  const Bytes secret = drbg.generate(48);
  const auto shares = shamir_share(secret, 3, 5, drbg);
  // Recreate share x=2 from shares {1,4,5}.
  const auto derived =
      shamir_interpolate_share({shares[0], shares[3], shares[4]}, 3, 2);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(derived->x, shares[1].x);
  EXPECT_EQ(derived->y, shares[1].y);
  // And the derived share combines like the original.
  const auto combined = shamir_combine({shares[0], *derived, shares[4]}, 3);
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(*combined, secret);
}

TEST(Shamir, InterpolateBeyondOriginalN) {
  // The polynomial extends past the dealt shares: x=9 is a valid new share.
  Drbg drbg = test_drbg("shamir-interp2");
  const Bytes secret = drbg.generate(16);
  const auto shares = shamir_share(secret, 2, 3, drbg);
  const auto extra = shamir_interpolate_share(shares, 2, 9);
  ASSERT_TRUE(extra.ok());
  const auto combined = shamir_combine({shares[0], *extra}, 2);
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(*combined, secret);
}

TEST(Shamir, InterpolateValidation) {
  Drbg drbg = test_drbg("shamir-interp3");
  const auto shares = shamir_share(to_bytes("s3cret"), 3, 4, drbg);
  EXPECT_EQ(shamir_interpolate_share(shares, 3, 0).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(shamir_interpolate_share({shares[0], shares[1]}, 3, 4).code(),
            ErrorCode::kInvalidArgument);
  // k = 0 is rejected like shamir_combine rejects it, with or without shares.
  EXPECT_EQ(shamir_interpolate_share({}, 0, 4).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(shamir_interpolate_share(shares, 0, 4).code(), ErrorCode::kInvalidArgument);
  // Requesting an x we already have returns it verbatim.
  const auto same = shamir_interpolate_share(shares, 3, shares[2].x);
  ASSERT_TRUE(same.ok());
  EXPECT_EQ(same->y, shares[2].y);
}

// -------------------------------------------------------------------- DLEQ

// Every caller proves against g1 = G; a second base off the generator runs
// a1 = r*g1 + c*h1 with neither point on G.
std::vector<Point> dleq_bases() {
  return {crypto::generator(), crypto::scalar_mul_base(Uint256(0x5eed))};
}

TEST(Dleq, ProveVerify) {
  Drbg drbg = test_drbg("dleq1");
  const Uint256 x = crypto::scalar_from_bytes(drbg.generate(32));
  const Point g2 = crypto::scalar_mul_base(Uint256(999));
  for (const Point& g1 : dleq_bases()) {
    const Point h1 = crypto::scalar_mul(x, g1);
    const Point h2 = crypto::scalar_mul(x, g2);
    const DleqProof proof = dleq_prove(g1, h1, g2, h2, x, drbg);
    EXPECT_TRUE(dleq_verify(g1, h1, g2, h2, proof)) << g1.x.to_hex();
  }
}

TEST(Dleq, RejectsUnequalLogs) {
  Drbg drbg = test_drbg("dleq2");
  const Uint256 x = crypto::scalar_from_bytes(drbg.generate(32));
  const Point g2 = crypto::scalar_mul_base(Uint256(999));
  for (const Point& g1 : dleq_bases()) {
    const Point h1 = crypto::scalar_mul(x, g1);
    const Point h2_wrong = crypto::scalar_mul(crypto::scalar_add(x, Uint256(1)), g2);
    const DleqProof proof = dleq_prove(g1, h1, g2, h2_wrong, x, drbg);
    EXPECT_FALSE(dleq_verify(g1, h1, g2, h2_wrong, proof)) << g1.x.to_hex();
  }
}

TEST(Dleq, RejectsTamperedProof) {
  Drbg drbg = test_drbg("dleq3");
  const Uint256 x = crypto::scalar_from_bytes(drbg.generate(32));
  const Point g2 = crypto::scalar_mul_base(Uint256(42));
  for (const Point& g1 : dleq_bases()) {
    const Point h1 = crypto::scalar_mul(x, g1);
    const Point h2 = crypto::scalar_mul(x, g2);
    DleqProof proof = dleq_prove(g1, h1, g2, h2, x, drbg);
    proof.r = crypto::scalar_add(proof.r, Uint256(1));
    EXPECT_FALSE(dleq_verify(g1, h1, g2, h2, proof)) << g1.x.to_hex();
  }
}

// -------------------------------------------------------------------- PVSS

struct PvssFixture {
  Drbg drbg = test_drbg("pvss-fixture");
  std::vector<KeyPair> participants;
  std::vector<Point> public_keys;
  Uint256 secret;

  explicit PvssFixture(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      participants.push_back(crypto::generate_keypair(drbg));
      public_keys.push_back(participants.back().public_key);
    }
    secret = crypto::scalar_from_bytes(drbg.generate(32));
  }
};

TEST(Pvss, ShareVerifyCombine2of3) {
  PvssFixture fx(3);
  const PvssDeal deal = pvss_share(fx.secret, fx.public_keys, 2, fx.drbg);
  EXPECT_TRUE(pvss_verify_deal(deal, fx.public_keys));

  std::vector<PvssDecryptedShare> dec;
  for (const std::size_t i : {std::size_t{1}, std::size_t{3}}) {
    auto share = pvss_decrypt_share(deal, i, fx.participants[i - 1], fx.drbg);
    ASSERT_TRUE(share.ok());
    EXPECT_TRUE(pvss_verify_decrypted(deal, *share, fx.public_keys[i - 1]));
    dec.push_back(*share);
  }
  const auto combined = pvss_combine(dec, 2);
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(*combined, pvss_public_secret(fx.secret));
  EXPECT_EQ(pvss_secret_key(*combined), pvss_secret_key(pvss_public_secret(fx.secret)));
}

TEST(Pvss, AnyKSubsetsAgree) {
  PvssFixture fx(4);
  const PvssDeal deal = pvss_share(fx.secret, fx.public_keys, 3, fx.drbg);
  const Point expected = pvss_public_secret(fx.secret);
  for (std::size_t skip = 1; skip <= 4; ++skip) {
    std::vector<PvssDecryptedShare> dec;
    for (std::size_t i = 1; i <= 4; ++i) {
      if (i == skip) continue;
      dec.push_back(*pvss_decrypt_share(deal, i, fx.participants[i - 1], fx.drbg));
    }
    const auto combined = pvss_combine(dec, 3);
    ASSERT_TRUE(combined.ok());
    EXPECT_EQ(*combined, expected) << "skipping " << skip;
  }
}

TEST(Pvss, FewerThanKFails) {
  PvssFixture fx(3);
  const PvssDeal deal = pvss_share(fx.secret, fx.public_keys, 2, fx.drbg);
  const auto one = pvss_decrypt_share(deal, 1, fx.participants[0], fx.drbg);
  EXPECT_EQ(pvss_combine({*one}, 2).code(), ErrorCode::kInvalidArgument);
}

TEST(Pvss, KMinusOneSharesGiveWrongSecret) {
  // Combining with a forged share must not reveal the real secret.
  PvssFixture fx(3);
  const PvssDeal deal = pvss_share(fx.secret, fx.public_keys, 2, fx.drbg);
  auto real_share = *pvss_decrypt_share(deal, 1, fx.participants[0], fx.drbg);
  PvssDecryptedShare forged = real_share;
  forged.index = 2;  // claims to be participant 2's share but isn't
  EXPECT_FALSE(pvss_verify_decrypted(deal, forged, fx.public_keys[1]));
  const auto combined = pvss_combine({real_share, forged}, 2);
  ASSERT_TRUE(combined.ok());
  EXPECT_NE(*combined, pvss_public_secret(fx.secret));
}

TEST(Pvss, VerifyDealCatchesTamperedCommitment) {
  PvssFixture fx(3);
  PvssDeal deal = pvss_share(fx.secret, fx.public_keys, 2, fx.drbg);
  deal.commitments[0] = crypto::scalar_mul_base(Uint256(123456));
  EXPECT_FALSE(pvss_verify_deal(deal, fx.public_keys));
}

TEST(Pvss, VerifyDealCatchesTamperedShare) {
  PvssFixture fx(3);
  PvssDeal deal = pvss_share(fx.secret, fx.public_keys, 2, fx.drbg);
  deal.shares[1].y = crypto::scalar_mul_base(Uint256(77));
  EXPECT_FALSE(pvss_verify_deal(deal, fx.public_keys));
}

TEST(Pvss, VerifyDecryptedCatchesLyingParticipant) {
  PvssFixture fx(3);
  const PvssDeal deal = pvss_share(fx.secret, fx.public_keys, 2, fx.drbg);
  auto share = *pvss_decrypt_share(deal, 2, fx.participants[1], fx.drbg);
  share.s = crypto::scalar_mul_base(Uint256(31337));  // lie about the share
  EXPECT_FALSE(pvss_verify_decrypted(deal, share, fx.public_keys[1]));
}

TEST(Pvss, WrongParticipantCannotDecrypt) {
  PvssFixture fx(3);
  const PvssDeal deal = pvss_share(fx.secret, fx.public_keys, 2, fx.drbg);
  // Participant 3 tries to decrypt share 1 with its own key.
  auto bogus = pvss_decrypt_share(deal, 1, fx.participants[2], fx.drbg);
  ASSERT_TRUE(bogus.ok());  // mechanically possible...
  EXPECT_FALSE(pvss_verify_decrypted(deal, *bogus, fx.public_keys[0]));  // ...but caught
}

TEST(Pvss, DealSerializationRoundTrip) {
  PvssFixture fx(3);
  const PvssDeal deal = pvss_share(fx.secret, fx.public_keys, 2, fx.drbg);
  const auto restored = PvssDeal::deserialize(deal.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->k, deal.k);
  EXPECT_TRUE(pvss_verify_deal(*restored, fx.public_keys));

  Bytes mangled = deal.serialize();
  mangled.resize(mangled.size() - 3);
  EXPECT_EQ(PvssDeal::deserialize(mangled).code(), ErrorCode::kCorrupted);
}

TEST(Pvss, DecryptedShareSerializationRoundTrip) {
  PvssFixture fx(3);
  const PvssDeal deal = pvss_share(fx.secret, fx.public_keys, 2, fx.drbg);
  const auto share = *pvss_decrypt_share(deal, 1, fx.participants[0], fx.drbg);
  const auto restored = PvssDecryptedShare::deserialize(share.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(pvss_verify_decrypted(deal, *restored, fx.public_keys[0]));
}

TEST(Pvss, InvalidParameters) {
  PvssFixture fx(3);
  EXPECT_THROW(pvss_share(fx.secret, fx.public_keys, 0, fx.drbg), std::invalid_argument);
  EXPECT_THROW(pvss_share(fx.secret, fx.public_keys, 4, fx.drbg), std::invalid_argument);
  const PvssDeal deal = pvss_share(fx.secret, fx.public_keys, 2, fx.drbg);
  EXPECT_EQ(pvss_decrypt_share(deal, 0, fx.participants[0], fx.drbg).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(pvss_decrypt_share(deal, 9, fx.participants[0], fx.drbg).code(),
            ErrorCode::kInvalidArgument);
}

// The PVSS twin of Schnorr.KeysAndSignaturesArePinned. Every DLEQ proof
// hashes its commitments a1 and a2, so a wrong point anywhere in share,
// verifyD, decrypt, verifyS or combine moves a byte of the digest.
TEST(Pvss, DealsSharesAndSecretsArePinned) {
  Drbg drbg = test_drbg("pvss-pinned");
  crypto::Sha256 digest;
  for (std::size_t n = 3; n <= 5; ++n) {
    for (std::size_t k = 1; k <= n; ++k) {
      std::vector<KeyPair> holders;
      std::vector<Point> keys;
      for (std::size_t i = 0; i < n; ++i) {
        holders.push_back(crypto::generate_keypair(drbg));
        keys.push_back(holders.back().public_key);
      }
      const Uint256 secret = crypto::scalar_from_bytes(drbg.generate(32));
      const PvssDeal deal = pvss_share(secret, keys, k, drbg);
      ASSERT_TRUE(pvss_verify_deal(deal, keys)) << n << " " << k;
      digest.update(deal.serialize());
      std::vector<PvssDecryptedShare> dec;
      for (std::size_t i = 1; i <= n; ++i) {
        const auto share = pvss_decrypt_share(deal, i, holders[i - 1], drbg);
        ASSERT_TRUE(share.ok());
        ASSERT_TRUE(pvss_verify_decrypted(deal, *share, keys[i - 1])) << n << " " << k;
        digest.update(share->serialize());
        dec.push_back(*share);
      }
      // The last k shares, so the Lagrange weights are not all small.
      dec.erase(dec.begin(), dec.end() - static_cast<std::ptrdiff_t>(k));
      const auto combined = pvss_combine(dec, k);
      ASSERT_TRUE(combined.ok());
      ASSERT_EQ(*combined, pvss_public_secret(secret)) << n << " " << k;
      digest.update(pvss_secret_key(*combined));
    }
  }
  EXPECT_EQ(hex_encode(digest.finish()),
            "873129646d449d7a0e1fd25cf2ec916298936b07714b7ab680f0c2b21563be46");
}

}  // namespace
}  // namespace rockfs::secretshare
