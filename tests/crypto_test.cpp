#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/bigint.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/kernels.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"

namespace rockfs::crypto {
namespace {

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, FipsVectors) {
  EXPECT_EQ(hex_encode(sha256(to_bytes(""))),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
  EXPECT_EQ(hex_encode(sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
  EXPECT_EQ(hex_encode(sha256(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, StreamingMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 1000; ++i) data.push_back(static_cast<Byte>(i * 7));
  Sha256 ctx;
  // Feed in awkward chunk sizes crossing block boundaries.
  std::size_t off = 0;
  const std::size_t chunks[] = {1, 63, 64, 65, 128, 679};
  for (const std::size_t c : chunks) {
    ctx.update(BytesView(data).subspan(off, c));
    off += c;
  }
  ASSERT_EQ(off, data.size());
  EXPECT_EQ(ctx.finish(), sha256(data));
}

TEST(Sha256, MillionA) {
  // FIPS 180-4 long vector: 1,000,000 'a' characters.
  Sha256 ctx;
  const Bytes chunk(10000, 'a');
  for (int i = 0; i < 100; ++i) ctx.update(chunk);
  EXPECT_EQ(hex_encode(ctx.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// The compression kernels are compared on whole messages padded here by
// hand, in one multi-block call. Buffers are sized exactly, so ASan flags
// any read past a tail.
Bytes sha256_with(detail::CompressKernel kernel, BytesView msg) {
  Bytes padded(msg.begin(), msg.end());
  padded.push_back(0x80);
  while (padded.size() % Sha256::kBlockSize != 56) padded.push_back(0x00);
  append_u64(padded, msg.size() * 8);
  padded.shrink_to_fit();
  std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  kernel(state, padded.data(), padded.size() / Sha256::kBlockSize);
  Bytes out;
  for (const std::uint32_t w : state) append_u32(out, w);
  return out;
}

TEST(Sha256, PortableKernelMatchesStreamingHash) {
  Rng rng(20);
  for (std::size_t n = 0; n <= 1100; ++n) {
    const Bytes msg = rng.next_bytes(n);
    ASSERT_EQ(sha256_with(&detail::sha256_compress_portable, msg), sha256(msg)) << "n=" << n;
  }
}

TEST(Sha256, ShaNiMatchesPortable) {
  const detail::CompressKernel shani = detail::shani_compress_kernel();
  if (shani == nullptr) GTEST_SKIP() << "CPU lacks the SHA extensions";
  Rng rng(21);
  for (std::size_t n = 0; n <= 1100; ++n) {
    const Bytes msg = rng.next_bytes(n);
    ASSERT_EQ(sha256_with(shani, msg), sha256_with(&detail::sha256_compress_portable, msg))
        << "n=" << n;
  }
}

TEST(Sha256, EverySplitOfAThreeBlockUpdate) {
  Rng rng(22);
  const Bytes data = rng.next_bytes(3 * Sha256::kBlockSize);
  const Bytes want = sha256(data);
  const BytesView view(data);
  for (std::size_t i = 0; i <= data.size(); ++i) {
    for (std::size_t j = i; j <= data.size(); ++j) {
      Sha256 ctx;
      ctx.update(view.subspan(0, i));
      ctx.update(view.subspan(i, j - i));
      ctx.update(view.subspan(j));
      ASSERT_EQ(ctx.finish(), want) << "splits " << i << ", " << j;
    }
  }
}

// ---------------------------------------------------------------- HMAC/HKDF

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex_encode(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(hex_encode(hmac_sha256(to_bytes("Jefe"),
                                   to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const Bytes long_key(200, 0xAA);
  const Bytes mac = hmac_sha256(long_key, to_bytes("msg"));
  EXPECT_EQ(mac.size(), 32u);
  // Hashing the key down to 32 bytes must give the same MAC as the raw long key.
  EXPECT_EQ(hmac_sha256(sha256(long_key), to_bytes("msg")), mac);
}

TEST(Hkdf, Rfc5869Case1) {
  const Bytes ikm(22, 0x0b);
  const Bytes salt = hex_decode("000102030405060708090a0b0c");
  const Bytes info = hex_decode("f0f1f2f3f4f5f6f7f8f9");
  EXPECT_EQ(hex_encode(hkdf_sha256(ikm, salt, info, 42)),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, DifferentInfoDifferentKeys) {
  const Bytes ikm = to_bytes("master");
  EXPECT_NE(hkdf_sha256(ikm, {}, to_bytes("a"), 32), hkdf_sha256(ikm, {}, to_bytes("b"), 32));
}

// ---------------------------------------------------------------- AES

TEST(Aes256, Fips197Vector) {
  const Bytes key = hex_decode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  Bytes block = hex_decode("00112233445566778899aabbccddeeff");
  Aes256 cipher(key);
  cipher.encrypt_block(block.data());
  EXPECT_EQ(hex_encode(block), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes256, RejectsBadKeySize) {
  EXPECT_THROW(Aes256(Bytes(16, 0)), std::invalid_argument);
}

TEST(Aes256Ctr, Sp80038aVector) {
  const Bytes key = hex_decode(
      "603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  const Bytes iv = hex_decode("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  const Bytes pt = hex_decode("6bc1bee22e409f96e93d7e117393172a");
  EXPECT_EQ(hex_encode(aes256_ctr(key, iv, pt)), "601ec313775789a5b7a7f504bbf3d228");
}

TEST(Aes256Ctr, RoundTripAndNonBlockLength) {
  const Bytes key(32, 0x42);
  const Bytes iv(16, 0x01);
  Bytes pt;
  for (int i = 0; i < 1000; ++i) pt.push_back(static_cast<Byte>(i));
  const Bytes ct = aes256_ctr(key, iv, pt);
  EXPECT_NE(ct, pt);
  EXPECT_EQ(aes256_ctr(key, iv, ct), pt);
}

TEST(Aes256Ctr, CounterIncrementCrossesByteBoundary) {
  // The counter block steps as one 128-bit big-endian integer: a carry
  // crosses bytes, crosses from the low into the high 64-bit half, and
  // FF x16 wraps to zero. A 32- or 64-bit-only increment fails a case.
  const Bytes key(32, 0x01);
  const Aes256 cipher(key);
  Bytes byte_carry(16, 0x00), half_carry(16, 0x41), wrap(16, 0xFF);
  byte_carry[15] = 0xFF;
  std::fill(half_carry.begin() + 8, half_carry.end(), 0xFF);
  Bytes byte_next(16, 0x00), half_next(8, 0x41), wrap_next(16, 0x00);
  byte_next[14] = 0x01;
  half_next[7] = 0x42;
  half_next.resize(16, 0x00);
  for (auto [iv, next] : {std::pair{byte_carry, byte_next}, std::pair{half_carry, half_next},
                          std::pair{wrap, wrap_next}}) {
    cipher.encrypt_block(next.data());
    const Bytes ks = aes256_ctr(key, iv, Bytes(32, 0x00));
    EXPECT_EQ(Bytes(ks.begin() + 16, ks.end()), next) << "iv=" << hex_encode(iv);
  }
}

TEST(Aes256Ctr, AesNiMatchesPortable) {
  const detail::CtrKernel aesni = detail::aesni_ctr_kernel();
  if (aesni == nullptr) GTEST_SKIP() << "CPU lacks AES-NI";
  Rng rng(25);
  const Aes256 cipher(rng.next_bytes(32));
  std::vector<Bytes> ivs;
  for (int i = 0; i < 4; ++i) ivs.push_back(rng.next_bytes(16));
  Bytes low_half_wraps = rng.next_bytes(16);
  std::fill(low_half_wraps.begin() + 8, low_half_wraps.end(), 0xFF);
  ivs.push_back(low_half_wraps);
  ivs.push_back(Bytes(16, 0xFF));
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  lengths.push_back(4096 - 17);
  lengths.push_back(4096 + 17);
  for (const Bytes& iv : ivs) {
    for (const std::size_t n : lengths) {
      const Bytes in = rng.next_bytes(n);
      Bytes want(n), got(n);
      detail::aes256_ctr_portable(cipher, iv.data(), in.data(), want.data(), n);
      aesni(cipher, iv.data(), in.data(), got.data(), n);
      ASSERT_EQ(got, want) << "n=" << n << " iv=" << hex_encode(iv);
    }
  }
}

TEST(SealedBox, RoundTrip) {
  const Bytes key(32, 0x07);
  const Bytes iv(16, 0x11);
  const Bytes aad = to_bytes("header");
  const Bytes box = seal(key, to_bytes("secret payload"), aad, iv);
  const auto opened = open_sealed(key, box, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(to_string(*opened), "secret payload");
}

TEST(SealedBox, DetectsTampering) {
  const Bytes key(32, 0x07);
  const Bytes iv(16, 0x11);
  Bytes box = seal(key, to_bytes("secret payload"), {}, iv);
  box[20] ^= 0x01;
  EXPECT_EQ(open_sealed(key, box, {}).code(), ErrorCode::kIntegrity);
}

TEST(SealedBox, WrongKeyOrAadFails) {
  const Bytes key(32, 0x07), other(32, 0x08);
  const Bytes iv(16, 0x11);
  const Bytes box = seal(key, to_bytes("x"), to_bytes("aad"), iv);
  EXPECT_EQ(open_sealed(other, box, to_bytes("aad")).code(), ErrorCode::kIntegrity);
  EXPECT_EQ(open_sealed(key, box, to_bytes("AAD")).code(), ErrorCode::kIntegrity);
  EXPECT_EQ(open_sealed(key, Bytes(10, 0), {}).code(), ErrorCode::kCorrupted);
}

TEST(SealedBox, AadBoundaryIsAuthenticated) {
  // The tag covers the AAD's length, so no byte can slide between the AAD
  // and the IV: a cache entry sealed for (/f, version 12) with '2'
  // prepended must not open as (/f, version 1), and vice versa.
  const Bytes key(32, 0x07);
  const Bytes payload = to_bytes("cached file contents....");
  const Bytes v1 = to_bytes("rockfs.cache.v1|/f|1");
  const Bytes v12 = to_bytes("rockfs.cache.v1|/f|12");

  const Bytes box12 = seal(key, payload, v12, Bytes(16, 0x11));
  ASSERT_TRUE(open_sealed(key, box12, v12).ok());
  Bytes prepended{Byte{'2'}};
  append(prepended, box12);
  EXPECT_EQ(open_sealed(key, prepended, v1).code(), ErrorCode::kIntegrity);

  Bytes iv = Bytes(16, 0x11);
  iv[0] = '2';
  const Bytes box1 = seal(key, payload, v1, iv);
  ASSERT_TRUE(open_sealed(key, box1, v1).ok());
  const Bytes stripped(box1.begin() + 1, box1.end());
  EXPECT_EQ(open_sealed(key, stripped, v12).code(), ErrorCode::kIntegrity);
}

// ---------------------------------------------------------------- GCM

TEST(Aes256Ctr32, Inc32WrapsTheLowWordOnly) {
  // From ...FFFFFFFE the counter block runs FFFFFFFF, 00000000, 00000001, ...
  // and never carries into its first 12 bytes. 20 blocks cross the AES-NI
  // kernel's eight-block body and its one-block tail.
  Rng rng(26);
  const Aes256 cipher(rng.next_bytes(32));
  Bytes iv = rng.next_bytes(16);
  std::fill(iv.begin() + 12, iv.end(), 0xFF);
  iv[15] = 0xFE;
  constexpr std::size_t kBlocks = 20;
  Bytes want;
  for (std::uint32_t k = 0; k < kBlocks; ++k) {
    Bytes block(iv.begin(), iv.begin() + 12);
    append_u32(block, 0xFFFFFFFEu + k);
    cipher.encrypt_block(block.data());
    append(want, block);
  }
  std::vector<detail::CtrKernel> kernels{&detail::aes256_ctr32_portable};
  if (const auto aesni = detail::aesni_ctr32_kernel()) kernels.push_back(aesni);
  for (const auto kernel : kernels) {
    for (const std::size_t n : {std::size_t{48}, std::size_t{16 * kBlocks - 5}}) {
      const Bytes zeros(n, 0x00);
      Bytes got(n);
      kernel(cipher, iv.data(), zeros.data(), got.data(), n);
      EXPECT_EQ(got, Bytes(want.begin(), want.begin() + static_cast<std::ptrdiff_t>(n)))
          << "n=" << n;
    }
  }
}

TEST(Aes256Ctr32, AesNiMatchesPortable) {
  const detail::CtrKernel aesni = detail::aesni_ctr32_kernel();
  if (aesni == nullptr) GTEST_SKIP() << "CPU lacks AES-NI";
  Rng rng(27);
  const Aes256 cipher(rng.next_bytes(32));
  for (int round = 0; round < 4; ++round) {
    Bytes iv = rng.next_bytes(16);
    if (round > 0) {
      // The low word wraps after 3, 6 and 9 blocks.
      std::fill(iv.begin() + 12, iv.end(), 0xFF);
      iv[15] = static_cast<Byte>(0x100 - 3 * round);
    }
    for (std::size_t n = 0; n <= 300; n += 7) {
      const Bytes in = rng.next_bytes(n);
      Bytes want(n), got(n);
      detail::aes256_ctr32_portable(cipher, iv.data(), in.data(), want.data(), n);
      aesni(cipher, iv.data(), in.data(), got.data(), n);
      ASSERT_EQ(got, want) << "n=" << n << " iv=" << hex_encode(iv);
    }
  }
}

TEST(Ghash, PclmulMatchesPortable) {
  const detail::GhashKernel pclmul = detail::pclmul_ghash_kernel();
  if (pclmul == nullptr) GTEST_SKIP() << "CPU lacks PCLMULQDQ";
  Rng rng(28);
  Bytes field_one(16, 0x00), last_bit(16, 0x00);
  field_one[0] = 0x80;  // bit 0, the coefficient of x^0
  last_bit[15] = 0x01;  // x^127
  std::vector<Bytes> keys{Bytes(16, 0x00), field_one, last_bit, Bytes(16, 0xFF)};
  for (int i = 0; i < 4; ++i) keys.push_back(rng.next_bytes(16));
  for (const Bytes& h : keys) {
    for (std::size_t nblocks = 0; nblocks <= 40; ++nblocks) {
      const Bytes blocks = rng.next_bytes(16 * nblocks);
      Bytes want = rng.next_bytes(16);
      Bytes got = want;
      detail::ghash_portable(h.data(), want.data(), blocks.data(), nblocks);
      pclmul(h.data(), got.data(), blocks.data(), nblocks);
      ASSERT_EQ(got, want) << "nblocks=" << nblocks << " h=" << hex_encode(h);
    }
  }
}

struct GcmVector {
  const char* key;
  const char* iv;
  const char* plaintext;
  const char* aad;
  const char* ciphertext;
  const char* tag;
};

void expect_vector(const GcmVector& v) {
  const Bytes key = hex_decode(v.key), iv = hex_decode(v.iv);
  const Bytes pt = hex_decode(v.plaintext), aad = hex_decode(v.aad);
  const Bytes box = gcm_seal(key, iv, pt, aad);
  EXPECT_EQ(hex_encode(box), std::string(v.iv) + v.ciphertext + v.tag);
  const auto opened = gcm_open(key, box, aad, iv.size());
  ASSERT_TRUE(opened.ok()) << opened.error().message;
  EXPECT_EQ(*opened, pt);
}

// The AES-256 test cases 13-18 published with the GCM specification (McGrew
// and Viega, "The Galois/Counter Mode of Operation", Appendix B): 96-bit IVs,
// then a 64-bit (17) and a 480-bit IV (18), both of which take J0 from GHASH.
TEST(Gcm, SpecTestCases13To18) {
  const char* k0 = "0000000000000000000000000000000000000000000000000000000000000000";
  const char* k = "feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308";
  const std::string p64 =
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255";
  const std::string p60 = p64.substr(0, 120);
  const char* a = "feedfacedeadbeeffeedfacedeadbeefabaddad2";
  const std::string c64 =
      "522dc1f099567d07f47f37a32a84427d643a8cdcbfe5c0c97598a2bd2555d1aa"
      "8cb08e48590dbb3da7b08b1056828838c5f61e6393ba7a0abcc9f662898015ad";
  const std::string c60 = c64.substr(0, 120);
  const std::string c17 =
      "c3762df1ca787d32ae47c13bf19844cbaf1ae14d0b976afac52ff7d79bba9de0"
      "feb582d33934a4f0954cc2363bc73f7862ac430e64abe499f47c9b1f";
  const std::string iv18 =
      "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728"
      "c3c0c95156809539fcf0e2429a6b525416aedbf5a0de6a57a637b39b";
  const std::string c18 =
      "5a8def2f0c9e53f1f75d7853659e2a20eeb2b22aafde6419a058ab4f6f746bf4"
      "0fc0c3b780f244452da3ebf1c5d82cdea2418997200ef82e44ae7e3f";
  const GcmVector cases[] = {
      {k0, "000000000000000000000000", "", "", "", "530f8afbc74536b9a963b4f1c4cb738b"},
      {k0, "000000000000000000000000", "00000000000000000000000000000000", "",
       "cea7403d4d606b6e074ec5d3baf39d18", "d0d1c8a799996bf0265b98b5d48ab919"},
      {k, "cafebabefacedbaddecaf888", p64.c_str(), "", c64.c_str(),
       "b094dac5d93471bdec1a502270e3cc6c"},
      {k, "cafebabefacedbaddecaf888", p60.c_str(), a, c60.c_str(),
       "76fc6ece0f4e1768cddf8853bb2d551b"},
      {k, "cafebabefacedbad", p60.c_str(), a, c17.c_str(), "3a337dbf46a792c45e454913fe2ea8f2"},
      {k, iv18.c_str(), p60.c_str(), a, c18.c_str(), "a44a8266ee1c8eb0c8b5d4cf5ae9f19a"},
  };
  for (std::size_t i = 0; i < std::size(cases); ++i) {
    SCOPED_TRACE("test case " + std::to_string(13 + i));
    expect_vector(cases[i]);
  }
}

// 256-bit IVs, the length the cache box uses. Generated once with Python's
// `cryptography` 48.0 (OpenSSL's AES-GCM): the first reuses test case 16's
// key, plaintext and AAD; the second's 200 bytes cross two eight-block GHASH
// strides and end in a partial block.
TEST(Gcm, Iv256Vectors) {
  expect_vector({"feffe9928665731c6d6a8f9467308308feffe9928665731c6d6a8f9467308308",
                 "9313225df88406e555909c5aff5269aa6a7a9538534f7da1e4c303d2a318a728",
                 "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
                 "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
                 "feedfacedeadbeeffeedfacedeadbeefabaddad2",
                 "88ef565da1373fc6b7fe75efe792c3ac4e4854482b36632c2f35030baa44cd4c"
                 "8b62d7cbaeed34544e60a180fbf2da2eafb04a1f4c61e31f9cb48a73",
                 "49476f3d0d85566228b6ffc6add56fd4"});

  Bytes key, iv, pt, aad;
  for (int i = 0; i < 32; ++i) key.push_back(static_cast<Byte>(i));
  for (int i = 0; i < 32; ++i) iv.push_back(static_cast<Byte>(0xA0 + i));
  for (int i = 0; i < 200; ++i) pt.push_back(static_cast<Byte>(7 * i + 3));
  for (int i = 0; i < 40; ++i) aad.push_back(static_cast<Byte>(5 * i + 1));
  const Bytes box = gcm_seal(key, iv, pt, aad);
  ASSERT_EQ(box.size(), 32u + 200u + 16u);
  EXPECT_EQ(hex_encode(sha256(BytesView(box).subspan(32, 200))),
            "45ce825c08c580c4d364027aa2c7f5b91e954aebf1d1973b36f2927abdeabb65");
  EXPECT_EQ(hex_encode(BytesView(box).last(16)), "a8240c89854d1f16c84f823b7f70e3b0");
  const auto opened = gcm_open(key, box, aad, iv.size());
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(Gcm, RoundTripsAtEveryIvAndLength) {
  Rng rng(29);
  const Bytes key = rng.next_bytes(32);
  for (const std::size_t iv_size : {1u, 8u, 12u, 16u, 32u, 60u}) {
    for (std::size_t n = 0; n <= 300; n += 13) {
      const Bytes iv = rng.next_bytes(iv_size);
      const Bytes pt = rng.next_bytes(n);
      const Bytes aad = rng.next_bytes(n % 41);
      const Bytes box = gcm_seal(key, iv, pt, aad);
      ASSERT_EQ(box.size(), iv_size + n + kGcmTagSize);
      const auto opened = gcm_open(key, box, aad, iv_size);
      ASSERT_TRUE(opened.ok()) << "iv=" << iv_size << " n=" << n;
      EXPECT_EQ(*opened, pt);
    }
  }
  EXPECT_THROW(gcm_seal(key, {}, Bytes(4, 0x00), {}), std::invalid_argument);
}

TEST(Gcm, OpenRejectsAnyChangedByte) {
  Rng rng(30);
  const Bytes key = rng.next_bytes(32);
  const Bytes aad = to_bytes("rockfs.cache.v1|/f|1");
  const Bytes box = gcm_seal(key, rng.next_bytes(32), to_bytes("cached file"), aad);
  for (std::size_t i = 0; i < box.size(); ++i) {
    Bytes bad = box;
    bad[i] ^= 0x80;
    EXPECT_EQ(gcm_open(key, bad, aad, 32).code(), ErrorCode::kIntegrity) << "byte " << i;
  }
  EXPECT_EQ(gcm_open(rng.next_bytes(32), box, aad, 32).code(), ErrorCode::kIntegrity);
  EXPECT_EQ(gcm_open(key, box, to_bytes("rockfs.cache.v1|/f|12"), 32).code(),
            ErrorCode::kIntegrity);
  Bytes longer = box;
  longer.push_back(0x00);
  EXPECT_EQ(gcm_open(key, longer, aad, 32).code(), ErrorCode::kIntegrity);
  EXPECT_EQ(gcm_open(key, BytesView(box).first(47), aad, 32).code(), ErrorCode::kCorrupted);
  EXPECT_TRUE(gcm_open(key, gcm_seal(key, Bytes(32, 0x01), {}, aad), aad, 32).ok());
}

// ---------------------------------------------------------------- DRBG

TEST(Drbg, DeterministicPerSeed) {
  Drbg a(to_bytes("seed"), to_bytes("p"));
  Drbg b(to_bytes("seed"), to_bytes("p"));
  EXPECT_EQ(a.generate(64), b.generate(64));
}

TEST(Drbg, PersonalizationAndReseedChangeOutput) {
  Drbg a(to_bytes("seed"), to_bytes("p1"));
  Drbg b(to_bytes("seed"), to_bytes("p2"));
  EXPECT_NE(a.generate(32), b.generate(32));

  Drbg c(to_bytes("seed"));
  Drbg d(to_bytes("seed"));
  d.reseed(to_bytes("fresh entropy"));
  EXPECT_NE(c.generate(32), d.generate(32));
}

TEST(Drbg, OutputLooksUniform) {
  Drbg drbg(to_bytes("uniformity"));
  const Bytes sample = drbg.generate(1 << 16);
  std::array<int, 256> counts{};
  for (const Byte x : sample) ++counts[x];
  for (const int c : counts) {
    EXPECT_GT(c, 128);  // expectation 256, allow wide slack
    EXPECT_LT(c, 512);
  }
}

// ---------------------------------------------------------------- Bigint

TEST(Bigint, HexRoundTrip) {
  const auto v = Uint256::from_hex("0123456789abcdef0011223344556677");
  EXPECT_EQ(v.to_hex(),
            "000000000000000000000000000000000123456789abcdef0011223344556677");
  EXPECT_EQ(Uint256::from_hex(v.to_hex()), v);
}

TEST(Bigint, AddSubInverse) {
  const auto a = Uint256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
  const auto b = Uint256::from_hex("123456789");
  Uint256 s, d;
  const auto carry = add_with_carry(a, b, s);
  EXPECT_EQ(carry, 1u);  // wraps
  sub_with_borrow(s, b, d);
  EXPECT_EQ(d, a);
}

TEST(Bigint, MulWideKnown) {
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1
  const Uint256 a(UINT64_MAX);
  const Uint512 p = mul_wide(a, a);
  EXPECT_EQ(p.limb[0], 1u);
  EXPECT_EQ(p.limb[1], UINT64_MAX - 1);
  EXPECT_EQ(p.limb[2], 0u);
}

TEST(Bigint, ModKnown) {
  const Uint512 a = mul_wide(Uint256(1000003), Uint256(999983));
  const Uint256 m(97);
  const Uint256 r = mod(a, m);
  EXPECT_EQ(r.limb[0], (1000003ULL % 97) * (999983ULL % 97) % 97);
}

TEST(Bigint, PowModFermat) {
  // 2^(p-1) mod p == 1 for prime p.
  const Uint256 p(1000003);
  EXPECT_EQ(pow_mod(Uint256(2), Uint256(1000002), p), Uint256(1));
}

TEST(Bigint, InvModPrime) {
  const Uint256 p(1000003);
  const Uint256 a(123456);
  const Uint256 inv = inv_mod_prime(a, p);
  EXPECT_EQ(mul_mod(a, inv, p), Uint256(1));
  EXPECT_THROW(inv_mod_prime(Uint256(0), p), std::invalid_argument);
}

TEST(Bigint, BitLength) {
  EXPECT_EQ(Uint256(0).bit_length(), 0u);
  EXPECT_EQ(Uint256(1).bit_length(), 1u);
  EXPECT_EQ(Uint256(255).bit_length(), 8u);
  EXPECT_EQ(Uint256::from_limbs(0, 0, 0, 1).bit_length(), 193u);
}

// ---------------------------------------------------------------- secp256k1

TEST(Secp256k1, GeneratorOnCurve) { EXPECT_TRUE(on_curve(generator())); }

TEST(Secp256k1, OrderTimesGeneratorIsIdentity) {
  EXPECT_TRUE(scalar_mul(curve_n(), generator()).infinity);
}

TEST(Secp256k1, DoubleMatchesAdd) {
  const Point g = generator();
  const Point d = point_double(g);
  EXPECT_EQ(d, point_add(g, g));
  EXPECT_EQ(d, scalar_mul(Uint256(2), g));
  EXPECT_EQ(d, scalar_mul_base(Uint256(2)));
  // Known coordinates of 2G.
  EXPECT_EQ(d.x.to_hex(),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
  EXPECT_EQ(d.y.to_hex(),
            "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a");
}

TEST(Secp256k1, KnownMultiples) {
  const Point g = generator();
  const Point g3{
      Uint256::from_hex("f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9"),
      Uint256::from_hex("388f7b0f632de8140fe337e62a37f3566500a99934c2231b6cb9fd7584b8e672"),
      false};
  EXPECT_EQ(scalar_mul_base(Uint256(3)), g3);
  EXPECT_EQ(scalar_mul(Uint256(3), g), g3);
  EXPECT_EQ(point_add(point_double(g), g), g3);

  Uint256 n_minus_1;
  sub_with_borrow(curve_n(), Uint256(1), n_minus_1);
  const Point minus_g{
      g.x,
      Uint256::from_hex("b7c52588d95c3b9aa25b0403f1eef75702e84bb7597aabe663b82f6f04ef2777"),
      false};
  EXPECT_EQ(scalar_mul_base(n_minus_1), minus_g);
  EXPECT_EQ(scalar_mul(n_minus_1, g), minus_g);
  EXPECT_EQ(point_negate(g), minus_g);
}

TEST(Secp256k1, AdditionIsCommutativeAndAssociative) {
  const Point a = scalar_mul(Uint256(12345), generator());
  const Point b = scalar_mul(Uint256(67890), generator());
  const Point c = scalar_mul(Uint256(424242), generator());
  EXPECT_EQ(point_add(a, b), point_add(b, a));
  EXPECT_EQ(point_add(point_add(a, b), c), point_add(a, point_add(b, c)));
}

TEST(Secp256k1, ScalarMulDistributes) {
  const Uint256 a(777), b(888);
  const Point lhs = point_add(scalar_mul_base(a), scalar_mul_base(b));
  EXPECT_EQ(lhs, scalar_mul_base(scalar_add(a, b)));
}

TEST(Secp256k1, NegationCancels) {
  const Point p = scalar_mul_base(Uint256(31337));
  EXPECT_TRUE(point_add(p, point_negate(p)).infinity);
}

TEST(Secp256k1, IdentityLaws) {
  const Point p = scalar_mul_base(Uint256(5));
  EXPECT_EQ(point_add(p, Point{}), p);
  EXPECT_EQ(point_add(Point{}, p), p);
  EXPECT_TRUE(scalar_mul(Uint256(0), p).infinity);
}

TEST(Secp256k1, EncodeDecodeRoundTrip) {
  const Point p = scalar_mul_base(Uint256(99999));
  EXPECT_EQ(point_decode(point_encode(p)), p);
  EXPECT_TRUE(point_decode(point_encode(Point{})).infinity);
}

TEST(Secp256k1, DecodeRejectsOffCurve) {
  Bytes enc = point_encode(scalar_mul_base(Uint256(3)));
  enc[40] ^= 0x01;
  EXPECT_THROW(point_decode(enc), std::invalid_argument);
  EXPECT_THROW(point_decode(Bytes{0x02, 0x00}), std::invalid_argument);
}

TEST(Secp256k1, FastReductionMatchesGenericModP) {
  // The field code folds on p = 2^256 - kC, kC = 2^32 + 977, and uses an
  // addition chain for the inverse; the generic bitwise bigint functions are
  // the reference. Edge values sit at the fold's carry corners.
  const Uint256& p = curve_p();
  Drbg drbg(to_bytes("fe-reduce"));
  Uint256 p_minus_1, p_minus_2;
  sub_with_borrow(p, Uint256(1), p_minus_1);
  sub_with_borrow(p, Uint256(2), p_minus_2);
  const Uint256 k_c(0x1000003D1ULL);
  const Uint256 two_255 = Uint256::from_limbs(0, 0, 0, 1ULL << 63);
  std::vector<Uint256> samples{Uint256(0), Uint256(1), Uint256(2), k_c,
                               p_minus_2,  p_minus_1,  two_255};
  for (int i = 0; i < 40; ++i) {
    const Uint256 raw = Uint256::from_bytes_be(drbg.generate(32));
    samples.push_back(mod(Uint512::from_uint256(raw), p));
  }
  for (const auto& a : samples) {
    for (const auto& b : samples) {
      EXPECT_EQ(fe_mul(a, b), mul_mod(a, b, p)) << a.to_hex() << " * " << b.to_hex();
      EXPECT_EQ(fe_add(a, b), add_mod(a, b, p)) << a.to_hex() << " + " << b.to_hex();
      EXPECT_EQ(fe_sub(a, b), sub_mod(a, b, p)) << a.to_hex() << " - " << b.to_hex();
    }
    EXPECT_EQ(fe_sqr(a), mul_mod(a, a, p)) << a.to_hex();
    if (!a.is_zero()) {
      EXPECT_EQ(fe_inv(a), inv_mod_prime(a, p)) << a.to_hex();
    }
  }
  // fe_mul and fe_sqr also take unreduced input, such as 2^256 - 1.
  const Uint256 all_ones = Uint256::from_limbs(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  samples.push_back(all_ones);
  for (const auto& b : samples) {
    EXPECT_EQ(fe_mul(all_ones, b), mul_mod(all_ones, b, p)) << b.to_hex();
  }
  EXPECT_EQ(fe_sqr(all_ones), mul_mod(all_ones, all_ones, p));
  EXPECT_THROW(fe_inv(Uint256(0)), std::invalid_argument);
}

TEST(Secp256k1, ScalarArithmeticMatchesGenericModN) {
  // Scalars fold on n = 2^256 - c, c < 2^129; the generic bigint functions
  // are the reference, on unreduced inputs too.
  const Uint256& n = curve_n();
  Drbg drbg(to_bytes("scalar-reduce"));
  Uint256 n_minus_1, n_plus_1;
  sub_with_borrow(n, Uint256(1), n_minus_1);
  add_with_carry(n, Uint256(1), n_plus_1);
  const Uint256 all_ones = Uint256::from_limbs(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  std::vector<Uint256> samples{Uint256(0), Uint256(1), Uint256(2), n_minus_1, n, n_plus_1,
                               all_ones};
  for (int i = 0; i < 24; ++i) samples.push_back(Uint256::from_bytes_be(drbg.generate(32)));
  for (const auto& a : samples) {
    for (const auto& b : samples) {
      EXPECT_EQ(scalar_mul_mod_n(a, b), mul_mod(a, b, n)) << a.to_hex() << " * " << b.to_hex();
    }
    EXPECT_EQ(scalar_from_bytes(a.to_bytes_be()), mod(Uint512::from_uint256(a), n))
        << a.to_hex();
    if (a.is_zero() || a == n) {
      EXPECT_THROW(scalar_inv(a), std::invalid_argument) << a.to_hex();
    } else {
      EXPECT_EQ(scalar_inv(a), inv_mod_prime(a, n)) << a.to_hex();
    }
  }
  // scalar_add/scalar_sub on reduced scalars.
  for (const auto& a0 : samples) {
    const Uint256 a = scalar_from_bytes(a0.to_bytes_be());
    for (const auto& b0 : samples) {
      const Uint256 b = scalar_from_bytes(b0.to_bytes_be());
      EXPECT_EQ(scalar_add(a, b), add_mod(a, b, n));
      EXPECT_EQ(scalar_sub(a, b), sub_mod(a, b, n));
    }
  }
}

// k*P by affine double-and-add over the public group law: the reference for
// the comb and the multi-scalar sum.
Point reference_mul(const Uint256& k, const Point& p) {
  Point acc;
  for (int i = 255; i >= 0; --i) {
    acc = point_double(acc);
    if (k.bit(static_cast<unsigned>(i))) acc = point_add(acc, p);
  }
  return acc;
}

// The GLV endomorphism: lambda * (x, y) == (beta * x, y).
const Uint256 kLambda =
    Uint256::from_hex("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");
const Uint256 kBeta =
    Uint256::from_hex("7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee");

TEST(Secp256k1, EndomorphismConstants) {
  EXPECT_EQ(pow_mod(kBeta, Uint256(3), curve_p()), Uint256(1));
  EXPECT_EQ(pow_mod(kLambda, Uint256(3), curve_n()), Uint256(1));
  EXPECT_NE(kBeta, Uint256(1));
  EXPECT_NE(kLambda, Uint256(1));
  const Point g = generator();
  EXPECT_EQ(reference_mul(kLambda, g), (Point{fe_mul(kBeta, g.x), g.y, false}));
}

// The scalars the multiplies are held to: comb digit edges, the group
// order's neighbours, 2^256 - 1, and 32 DRBG scalars.
std::vector<Uint256> multiply_scalars() {
  const Uint256& n = curve_n();
  Uint256 n_minus_1, n_plus_1;
  sub_with_borrow(n, Uint256(1), n_minus_1);
  add_with_carry(n, Uint256(1), n_plus_1);
  std::vector<Uint256> ks{Uint256(0),  Uint256(1),   Uint256(2),   Uint256(15),
                          Uint256(16), Uint256(17),  Uint256(255), Uint256(256),
                          n_minus_1,   n,            n_plus_1,
                          Uint256::from_limbs(~0ULL, ~0ULL, ~0ULL, ~0ULL)};
  Drbg drbg(to_bytes("scalar-mul"));
  for (int i = 0; i < 32; ++i) ks.push_back(Uint256::from_bytes_be(drbg.generate(32)));
  return ks;
}

TEST(Secp256k1, ScalarMulMatchesDoubleAndAdd) {
  const Point g = generator();
  const Point p = reference_mul(Uint256::from_hex("5eed0f5ca1a7b0b1"), g);
  for (const Uint256& k : multiply_scalars()) {
    const Point kg = reference_mul(k, g);
    EXPECT_EQ(scalar_mul_base(k), kg) << k.to_hex();
    EXPECT_EQ(scalar_mul(k, g), kg) << k.to_hex();
    EXPECT_EQ(scalar_mul(k, p), reference_mul(k, p)) << k.to_hex();
  }
  EXPECT_TRUE(scalar_mul(Uint256(5), Point{}).infinity);
}

TEST(Secp256k1, ScalarMulSumMatchesDoubleAndAdd) {
  // Beside multiply_scalars(), the GLV split's edges: lambda and n - lambda
  // (one half zero), n/2 and n/2 + 1, and the 2^128 boundary of a half.
  std::vector<Uint256> ks = multiply_scalars();
  Uint256 n_minus_lambda;
  sub_with_borrow(curve_n(), kLambda, n_minus_lambda);
  const Uint256 half_n =
      Uint256::from_hex("7fffffffffffffffffffffffffffffff5d576e7357a4501ddfe92f46681b20a0");
  Uint256 half_n_plus_1;
  add_with_carry(half_n, Uint256(1), half_n_plus_1);
  ks.insert(ks.end(), {kLambda, n_minus_lambda, half_n, half_n_plus_1,
                       Uint256::from_limbs(~0ULL, ~0ULL, 0, 0), Uint256::from_limbs(0, 0, 1, 0),
                       Uint256::from_limbs(0, 0, 2, 0)});
  const Point g = generator();
  const Point p = reference_mul(Uint256::from_hex("5eed0f5ca1a7b0b1"), g);
  const Point q = reference_mul(Uint256::from_hex("c0ffee"), g);
  std::vector<Point> kg, kp, kq;
  for (const Uint256& k : ks) {
    kg.push_back(reference_mul(k, g));
    kp.push_back(reference_mul(k, p));
    kq.push_back(reference_mul(k, q));
  }
  using Terms = std::vector<std::pair<Uint256, Point>>;
  const auto sum = [](const Terms& terms) { return scalar_mul_sum(terms); };
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const std::size_t j = (i * 7 + 3) % ks.size();
    const Uint256& a = ks[i];
    const Uint256& b = ks[j];
    const std::string ab = a.to_hex() + " " + b.to_hex();
    EXPECT_EQ(sum({{a, p}}), kp[i]) << a.to_hex();
    EXPECT_EQ(sum({{a, g}}), kg[i]) << a.to_hex();
    EXPECT_EQ(sum({{a, g}, {b, p}}), point_add(kg[i], kp[j])) << ab;
    EXPECT_EQ(sum({{a, p}, {b, q}}), point_add(kp[i], kq[j])) << ab;
    EXPECT_EQ(sum({{a, p}, {b, p}}), point_add(kp[i], kp[j])) << ab;
    EXPECT_EQ(sum({{a, g}, {b, g}}), point_add(kg[i], kg[j])) << ab;
    // A zero scalar and the identity point drop out.
    EXPECT_EQ(sum({{a, p}, {b, Point{}}, {Uint256(0), q}}), kp[i]) << a.to_hex();
    EXPECT_TRUE(sum({{a, Point{}}}).infinity) << a.to_hex();
    // k*P + (n - k)*P, and the same on G.
    const Uint256 minus_a = scalar_sub(Uint256(0), scalar_from_bytes(a.to_bytes_be()));
    EXPECT_TRUE(sum({{a, p}, {minus_a, p}}).infinity) << a.to_hex();
    EXPECT_TRUE(sum({{a, g}, {minus_a, g}}).infinity) << a.to_hex();
  }
  EXPECT_TRUE(sum({}).infinity);
  // a*G == b*P, whose sum must double, and a*G + b*P == O (P = 0xc0ffee * G).
  EXPECT_EQ(sum({{Uint256(1), g}, {Uint256(1), g}}), point_double(g));
  EXPECT_EQ(sum({{Uint256(1), p}, {Uint256(1), p}}), point_double(p));
  EXPECT_EQ(sum({{Uint256(0xc0ffee * 3), g}, {Uint256(3), q}}),
            point_double(reference_mul(Uint256(0xc0ffee * 3), g)));
  const Uint256 b(0x1234);
  const Uint256 a = scalar_sub(Uint256(0), scalar_mul_mod_n(b, Uint256(0xc0ffee)));
  EXPECT_TRUE(sum({{a, g}, {b, q}}).infinity);
}

// The two no-inversion checks agree with the affine sums they stand for:
// scalar_mul_sum_equals with scalar_mul_sum, comb_sum_equals with the
// a*G + b*P of scalar_mul_sum (which ScalarMulSumMatchesDoubleAndAdd holds
// to the reference), on the comb scalars, a key equal to G (both walks then
// share a table, and a + b == n meets the identity) and one off by G.
TEST(Secp256k1, JacobianComparisonsMatchTheAffineSums) {
  const std::vector<Uint256> ks = multiply_scalars();
  const Point g = generator();
  const Point p = scalar_mul(Uint256::from_hex("5eed0f5ca1a7b0b1"), g);
  const Comb g_comb(g);
  const Comb p_comb(p);
  using Terms = std::vector<std::pair<Uint256, Point>>;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    const Uint256& a = ks[i];
    const Uint256& b = ks[(i * 7 + 3) % ks.size()];
    const std::string ab = a.to_hex() + " " + b.to_hex();
    for (const auto& [q, comb] : {std::pair<Point, const Comb*>{p, &p_comb}, {g, &g_comb}}) {
      const Point sum = scalar_mul_sum(Terms{{a, g}, {b, q}});
      const Point off = point_add(sum, g);
      EXPECT_TRUE(comb_sum_equals(a, b, *comb, sum)) << ab;
      EXPECT_FALSE(comb_sum_equals(a, b, *comb, off)) << ab;
      EXPECT_TRUE(scalar_mul_sum_equals(Terms{{a, g}, {b, q}}, sum)) << ab;
      EXPECT_FALSE(scalar_mul_sum_equals(Terms{{a, g}, {b, q}}, off)) << ab;
      EXPECT_EQ(comb_sum_equals(a, b, *comb, point_negate(sum)), sum.infinity) << ab;
    }
    // a*G + (n - a)*G is the identity, which equals only the identity.
    const Uint256 minus_a = scalar_sub(Uint256(0), scalar_from_bytes(a.to_bytes_be()));
    EXPECT_TRUE(comb_sum_equals(a, minus_a, g_comb, Point{})) << a.to_hex();
    EXPECT_FALSE(comb_sum_equals(a, minus_a, g_comb, g)) << a.to_hex();
    EXPECT_TRUE(scalar_mul_sum_equals(Terms{{a, p}, {minus_a, p}}, Point{})) << a.to_hex();
  }
  // 1*G + 1*G doubles inside the mixed addition.
  EXPECT_TRUE(comb_sum_equals(Uint256(1), Uint256(1), g_comb, point_double(g)));
  // (1, y) written with x = 1 + p is not the sum (1, y), as it is not to_affine's.
  const Point q{Uint256(1),
                Uint256::from_hex(
                    "4218f20ae6c646b363db68605822fb14264ca8d2587fdd6fbc750d587e76a7ee"),
                false};
  ASSERT_TRUE(on_curve(q));
  Uint256 one_plus_p;
  add_with_carry(curve_p(), Uint256(1), one_plus_p);
  EXPECT_TRUE(comb_sum_equals(Uint256(0), Uint256(1), Comb(q), q));
  EXPECT_FALSE(comb_sum_equals(Uint256(0), Uint256(1), Comb(q), Point{one_plus_p, q.y, false}));
  EXPECT_FALSE(scalar_mul_sum_equals(Terms{{Uint256(1), q}}, Point{one_plus_p, q.y, false}));
  EXPECT_THROW(Comb(Point{}), std::invalid_argument);
}

TEST(Secp256k1, FieldInverse) {
  const Uint256 a = Uint256::from_hex("deadbeefcafebabe");
  EXPECT_EQ(fe_mul(a, fe_inv(a)), Uint256(1));
}

TEST(Secp256k1, ScalarInverse) {
  const Uint256 a(123456789);
  EXPECT_EQ(scalar_mul_mod_n(a, scalar_inv(a)), Uint256(1));
}

// ---------------------------------------------------------------- Schnorr

TEST(Schnorr, SignVerifyRoundTrip) {
  Drbg drbg(to_bytes("schnorr-test"));
  const KeyPair kp = generate_keypair(drbg);
  const Bytes msg = to_bytes("log entry #42");
  const Bytes sig = sign(kp, msg);
  EXPECT_EQ(sig.size(), kSignatureSize);
  EXPECT_TRUE(verify(kp.public_key, msg, sig));
  EXPECT_TRUE(verify(kp.public_bytes(), msg, sig));
}

TEST(Schnorr, RejectsTamperedMessage) {
  Drbg drbg(to_bytes("schnorr-test2"));
  const KeyPair kp = generate_keypair(drbg);
  const Bytes sig = sign(kp, to_bytes("original"));
  EXPECT_FALSE(verify(kp.public_key, to_bytes("0riginal"), sig));
}

TEST(Schnorr, RejectsTamperedSignature) {
  Drbg drbg(to_bytes("schnorr-test3"));
  const KeyPair kp = generate_keypair(drbg);
  Bytes sig = sign(kp, to_bytes("msg"));
  sig[80] ^= 0x01;
  EXPECT_FALSE(verify(kp.public_key, to_bytes("msg"), sig));
  sig[80] ^= 0x01;
  sig[10] ^= 0x01;  // corrupt R encoding -> off curve -> clean reject
  EXPECT_FALSE(verify(kp.public_key, to_bytes("msg"), sig));
}

TEST(Schnorr, RejectsWrongKey) {
  Drbg drbg(to_bytes("schnorr-test4"));
  const KeyPair kp1 = generate_keypair(drbg);
  const KeyPair kp2 = generate_keypair(drbg);
  const Bytes sig = sign(kp1, to_bytes("msg"));
  EXPECT_FALSE(verify(kp2.public_key, to_bytes("msg"), sig));
}

TEST(Schnorr, RejectsMalformedInputs) {
  Drbg drbg(to_bytes("schnorr-test5"));
  const KeyPair kp = generate_keypair(drbg);
  EXPECT_FALSE(verify(kp.public_key, to_bytes("msg"), Bytes(10, 0)));
  EXPECT_FALSE(verify(Bytes(65, 0xAA), to_bytes("msg"), sign(kp, to_bytes("msg"))));
}

TEST(Schnorr, KeypairFromPrivateRoundTrip) {
  Drbg drbg(to_bytes("schnorr-test6"));
  const KeyPair kp = generate_keypair(drbg);
  const KeyPair restored = keypair_from_private(kp.private_key.to_bytes_be());
  EXPECT_EQ(restored.public_key, kp.public_key);
  const Bytes sig = sign(restored, to_bytes("m"));
  EXPECT_TRUE(verify(kp.public_key, to_bytes("m"), sig));
}

TEST(Schnorr, RejectsIdentityOrOffCurvePublicKey) {
  // With P = O, s*G == R + e*O holds for R = s*G whatever the message.
  // (1, 0) lies on y^2 = x^3 - 1, not on the curve; the group formulas give
  // it order 2, so R = s*G passes for every challenge of the right parity.
  const Uint256 s(0x5157);
  Bytes sig = point_encode(scalar_mul_base(s));
  append(sig, s.to_bytes_be());
  const Point off_curve{Uint256(1), Uint256(0), false};
  for (int i = 0; i < 8; ++i) {
    const Bytes msg = to_bytes("message " + std::to_string(i));
    EXPECT_FALSE(verify(Bytes{0x00}, msg, sig)) << i;
    EXPECT_FALSE(verify(Point{}, msg, sig)) << i;
    EXPECT_FALSE(verify(off_curve, msg, sig)) << i;
  }
}

// Public keys and signatures of 32 DRBG-seeded (key, message) pairs, pinned
// by digest. Every seeded figure downstream (metadata blobs, traces, digests)
// depends on these bytes, so the group arithmetic's internals must not move them.
TEST(Schnorr, KeysAndSignaturesArePinned) {
  Drbg drbg(to_bytes("schnorr-pinned"));
  Sha256 digest;
  for (std::size_t i = 0; i < 32; ++i) {
    const KeyPair kp = generate_keypair(drbg);
    const Bytes msg = drbg.generate(1 + 7 * i);
    digest.update(kp.public_bytes());
    digest.update(sign(kp, msg));
  }
  EXPECT_EQ(hex_encode(digest.finish()),
            "fe3f1de56f32120986e7ea8430a50529b9d9db29a6420facfa05ba96c5f2b5c1");
}

// ---------------------------------------------------------------- PreparedKey

// A signature's bad variants: a flip of every byte of R and of s, R off the
// curve, R as the identity's encoding (padded to size, and alone), s == n,
// s == n + 1 and s == 2^256 - 1, and sizes one short and one long.
std::vector<Bytes> bad_signatures(const Bytes& sig, unsigned salt) {
  std::vector<Bytes> bad;
  for (std::size_t i = 0; i < sig.size(); ++i) {
    Bytes b = sig;
    b[i] ^= static_cast<Byte>(1u << ((i + salt) % 8));
    bad.push_back(std::move(b));
  }
  Bytes off_curve = sig;
  off_curve[64] ^= 0x01;  // y's last byte: (x, y ^ 1) is not on the curve
  bad.push_back(off_curve);
  Bytes identity(65, 0x00);
  append(identity, BytesView(sig).subspan(65));
  bad.push_back(identity);
  Bytes bare{0x00};
  append(bare, BytesView(sig).subspan(65));
  bad.push_back(bare);
  Uint256 n_plus_1;
  add_with_carry(curve_n(), Uint256(1), n_plus_1);
  for (const Uint256& s : {curve_n(), n_plus_1, Uint256::from_limbs(~0ULL, ~0ULL, ~0ULL, ~0ULL)}) {
    Bytes b(sig.begin(), sig.begin() + 65);
    append(b, s.to_bytes_be());
    bad.push_back(std::move(b));
  }
  bad.emplace_back(sig.begin(), sig.end() - 1);
  Bytes longer = sig;
  longer.push_back(0x00);
  bad.push_back(longer);
  return bad;
}

// The prepared check is a faster path to verify()'s verdict: over random
// keys (plus G and -G, whose combs match G's) and messages, it accepts what
// verify() accepts and rejects a tampered message, every bad_signatures()
// variant and another key's signature.
TEST(PreparedKey, AgreesWithTheOneOffCheck) {
  Drbg drbg(to_bytes("prepared-key"));
  std::vector<KeyPair> keys{keypair_from_private(Uint256(1).to_bytes_be())};
  Uint256 n_minus_1;
  sub_with_borrow(curve_n(), Uint256(1), n_minus_1);
  keys.push_back(keypair_from_private(n_minus_1.to_bytes_be()));
  for (int i = 0; i < 6; ++i) keys.push_back(generate_keypair(drbg));
  const KeyPair other = generate_keypair(drbg);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const KeyPair& kp = keys[k];
    const PreparedKey key(kp.public_key);
    ASSERT_EQ(key.encoded(), kp.public_bytes());
    for (unsigned m = 0; m < 3; ++m) {
      const Bytes msg = drbg.generate(1 + 40 * m);
      const Bytes sig = sign(kp, msg);
      const std::string at = "key " + std::to_string(k) + " message " + std::to_string(m);
      EXPECT_TRUE(key.verify(msg, sig)) << at;
      EXPECT_TRUE(verify(kp.public_key, msg, sig)) << at;
      Bytes tampered = msg;
      tampered[0] ^= 0x80;
      EXPECT_FALSE(key.verify(tampered, sig)) << at;
      EXPECT_FALSE(verify(kp.public_key, tampered, sig)) << at;
      const Bytes foreign = sign(other, msg);
      EXPECT_FALSE(key.verify(msg, foreign)) << at;
      EXPECT_FALSE(verify(kp.public_key, msg, foreign)) << at;
      const std::vector<Bytes> bad = bad_signatures(sig, m + static_cast<unsigned>(k));
      for (std::size_t b = 0; b < bad.size(); ++b) {
        EXPECT_FALSE(key.verify(msg, bad[b])) << at << " bad " << b;
        EXPECT_FALSE(verify(kp.public_key, msg, bad[b])) << at << " bad " << b;
      }
    }
  }
}

// The comb the first check builds: the first and last entry of every row
// equal j * 16^i * P from scalar_mul, whose k*P runs the GLV chain and
// never reads a comb of P. One batch inversion makes all 960 entries
// affine, so an inverse handed to the wrong entry shows here.
TEST(PreparedKey, CombRowsMatchScalarMul) {
  Drbg drbg(to_bytes("prepared-comb"));
  const KeyPair kp = generate_keypair(drbg);
  const PreparedKey key(kp.public_key);
  const Comb& comb = key.comb();
  EXPECT_EQ(&key.comb(), &comb);  // built once
  for (std::size_t i = 0; i < Comb::kRows; ++i) {
    Uint256 sixteen_i;
    sixteen_i.limb[i / 16] = 1ULL << (4 * (i % 16));
    const Uint256 fifteen_i = scalar_mul_mod_n(sixteen_i, Uint256(15));
    EXPECT_EQ(comb.at(i, 1), scalar_mul(sixteen_i, kp.public_key)) << "row " << i;
    EXPECT_EQ(comb.at(i, Comb::kDigits), scalar_mul(fifteen_i, kp.public_key)) << "row " << i;
  }
}

// Only a point verify() could accept something under becomes a key.
TEST(PreparedKey, RejectsTheIdentityAndOffCurvePoints) {
  EXPECT_THROW(PreparedKey(Point{}), std::invalid_argument);
  EXPECT_THROW(PreparedKey(Point{Uint256(1), Uint256(0), false}), std::invalid_argument);
}

TEST(Schnorr, DeterministicSignatures) {
  Drbg drbg(to_bytes("schnorr-test7"));
  const KeyPair kp = generate_keypair(drbg);
  EXPECT_EQ(sign(kp, to_bytes("same msg")), sign(kp, to_bytes("same msg")));
  EXPECT_NE(sign(kp, to_bytes("msg a")), sign(kp, to_bytes("msg b")));
}

}  // namespace
}  // namespace rockfs::crypto
