// Per-byte kernels under AES-256-CTR and SHA-256. Internal to src/crypto:
// aes256_ctr and Sha256 dispatch through here, and the tests include this
// header to compare each hardware kernel with its portable reference byte
// for byte.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/aes.h"

namespace rockfs::crypto::detail {

/// out[i] = in[i] ^ keystream[i] for n bytes of AES-256-CTR keystream that
/// starts at the 16-byte counter block `iv` and steps it as one 128-bit
/// big-endian integer.
using CtrKernel = void (*)(const Aes256& cipher, const Byte* iv, const Byte* in, Byte* out,
                           std::size_t n);

/// Aes256::encrypt_block per block: the fallback and the reference.
void aes256_ctr_portable(const Aes256& cipher, const Byte* iv, const Byte* in, Byte* out,
                         std::size_t n);

/// The AES-NI kernel, or nullptr when the CPU (or the build's architecture)
/// lacks AES-NI.
CtrKernel aesni_ctr_kernel();

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
