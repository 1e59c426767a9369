// Per-byte kernels under AES-256-CTR, AES-256-GCM and SHA-256, and the
// byte-order and counter helpers they share. Internal to src/crypto:
// aes256_ctr, the GCM box and Sha256 dispatch through here, and the tests
// include this header to compare each hardware kernel with its portable
// reference byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace rockfs::crypto::detail {

/// The big-endian 64-bit integer at `p`, and the store that writes one.
inline std::uint64_t load_be64(const Byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

inline void store_be64(Byte* p, std::uint64_t v) {
  for (int i = 7; i >= 0; --i) {
    p[i] = static_cast<Byte>(v);
    v >>= 8;
  }
}

/// Steps a 16-byte big-endian counter block: all 128 bits, or (kInc32) only
/// the last 32, modulo 2^32, as SP 800-38D's inc32.
template <bool kInc32>
void step_counter(Byte counter[Aes256::kBlockSize]) {
  constexpr int kLast = Aes256::kBlockSize - 1;
  constexpr int kStop = kInc32 ? kLast - 3 : 0;
  for (int i = kLast; i >= kStop; --i) {
    if (++counter[i] != 0) break;
  }
}

/// out[i] = in[i] ^ keystream[i] for n bytes of AES-256-CTR keystream that
/// starts at the 16-byte counter block `iv`. The ctr kernels step the block
/// as one 128-bit big-endian integer; the ctr32 kernels step only its last
/// 32 bits, modulo 2^32 (SP 800-38D's inc32, which GCM uses).
using CtrKernel = void (*)(const Aes256& cipher, const Byte* iv, const Byte* in, Byte* out,
                           std::size_t n);

/// Aes256::encrypt_block per block: the fallbacks and the references.
void aes256_ctr_portable(const Aes256& cipher, const Byte* iv, const Byte* in, Byte* out,
                         std::size_t n);
void aes256_ctr32_portable(const Aes256& cipher, const Byte* iv, const Byte* in, Byte* out,
                           std::size_t n);

/// The AES-NI kernels, or nullptr when the CPU (or the build's architecture)
/// lacks AES-NI.
CtrKernel aesni_ctr_kernel();
CtrKernel aesni_ctr32_kernel();

/// Folds `nblocks` consecutive 16-byte blocks X1..Xn into the GHASH digest
/// `y` in place (SP 800-38D §6.4): y = (...((y ^ X1)·H ^ X2)·H ... ^ Xn)·H
/// in GF(2^128), where `h` is the hash subkey E_K(0^128). Blocks and field
/// elements are in the spec's bit order.
using GhashKernel = void (*)(const Byte h[16], Byte y[16], const Byte* blocks,
                             std::size_t nblocks);

/// SP 800-38D Algorithm 1, one bit of X at a time: the fallback and the
/// reference.
void ghash_portable(const Byte h[16], Byte y[16], const Byte* blocks, std::size_t nblocks);

/// The PCLMULQDQ kernel, which folds eight blocks at a time over H^8..H^1
/// with one reduction, or nullptr when the CPU (or the build's architecture)
/// lacks PCLMULQDQ.
GhashKernel pclmul_ghash_kernel();

/// Runs the SHA-256 compression function over `nblocks` consecutive 64-byte
/// blocks, updating the eight-word chaining state in place.
using CompressKernel = void (*)(std::uint32_t state[8], const Byte* blocks,
                                std::size_t nblocks);

/// FIPS 180-4 scalar rounds: the fallback and the reference.
void sha256_compress_portable(std::uint32_t state[8], const Byte* blocks,
                              std::size_t nblocks);

/// The SHA-NI kernel, or nullptr when the CPU (or the build's architecture)
/// lacks the SHA extensions.
CompressKernel shani_compress_kernel();

}  // namespace rockfs::crypto::detail
