// AES-256 (FIPS 197) block cipher with CTR-mode streaming, plus an
// encrypt-then-MAC "sealed box" that now serves the keystore only, whose box
// is stored in the coordination service (the local cache seals with
// AES-256-GCM, crypto/gcm.h). The S-box and round constants are computed
// from the GF(2^8) definition at first use rather than hardcoded. CTR runs
// on AES-NI when the CPU has it, with the same key schedule; encrypt_block
// is the portable reference.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/result.h"

namespace rockfs::crypto {

/// AES-256 block encryptor (encryption direction only; CTR needs no decryptor).
class Aes256 {
 public:
  static constexpr std::size_t kKeySize = 32;
  static constexpr std::size_t kBlockSize = 16;
  static constexpr int kRounds = 14;

  explicit Aes256(BytesView key);

  /// Encrypts a single 16-byte block in place.
  void encrypt_block(Byte block[kBlockSize]) const;

  /// The FIPS-197 key schedule: 4 big-endian words per round key.
  const std::array<std::uint32_t, 4 * (kRounds + 1)>& round_keys() const noexcept {
    return round_keys_;
  }

 private:
  std::array<std::uint32_t, 4 * (kRounds + 1)> round_keys_{};
};

/// CTR keystream transform; identical for encryption and decryption.
/// `iv` is a 16-byte initial counter block.
Bytes aes256_ctr(BytesView key, BytesView iv, BytesView data);

/// Authenticated encryption: AES-256-CTR + HMAC-SHA-256 (encrypt-then-MAC).
/// Output layout: iv(16) || ciphertext || tag(32). The tag covers
/// u64be(|aad|) || aad || iv || ciphertext.
Bytes seal(BytesView key, BytesView plaintext, BytesView aad, BytesView iv16);

/// Verifies and decrypts a sealed box. Fails with kIntegrity on any tampering.
Result<Bytes> open_sealed(BytesView key, BytesView box, BytesView aad);

}  // namespace rockfs::crypto
