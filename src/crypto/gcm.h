// AES-256-GCM (NIST SP 800-38D; McGrew and Viega, "The Galois/Counter Mode
// of Operation"): the authenticated box of the local cache. GCTR runs on the
// AES-NI counter kernel with inc32, and GHASH on PCLMULQDQ, so the MAC costs
// about as much as the encryption; CPUs without either use the portable
// kernels in crypto/kernels.h, which are also the tests' references.
#pragma once

#include <cstddef>

#include "common/bytes.h"
#include "common/result.h"

namespace rockfs::crypto {

/// GCM's tag length: the full 128 bits.
inline constexpr std::size_t kGcmTagSize = 16;

/// Encrypts `plaintext` under the 32-byte `key` and authenticates it with
/// `aad`. Returns iv || ciphertext || tag(16), the ciphertext written into
/// the box in place. `iv` may have any non-zero length: a 12-byte IV gives
/// J0 = IV || 0^31 1, any other length gets J0 from GHASH. An IV must never
/// repeat under one key.
Bytes gcm_seal(BytesView key, BytesView iv, BytesView plaintext, BytesView aad);

/// Opens a gcm_seal box whose IV is `iv_size` (non-zero) bytes. The tag is
/// checked in constant time before anything is decrypted: kCorrupted when
/// the box is shorter than iv_size + 16 bytes, kIntegrity when the tag does
/// not match.
Result<Bytes> gcm_open(BytesView key, BytesView box, BytesView aad, std::size_t iv_size);

}  // namespace rockfs::crypto
