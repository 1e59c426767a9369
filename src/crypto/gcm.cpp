#include "crypto/gcm.h"

#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "crypto/aes.h"
#include "crypto/kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace rockfs::crypto {

namespace detail {

namespace {

// A field element as its two big-endian halves: bytes 0-7 and 8-15. Bit 0
// of the block (the top bit of byte 0) is the coefficient of x^0.
struct Block128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};

Block128 load_block(const Byte* p) { return {load_be64(p), load_be64(p + 8)}; }

void store_block(Byte* p, Block128 b) {
  store_be64(p, b.hi);
  store_be64(p + 8, b.lo);
}

// X·Y by SP 800-38D Algorithm 1: bit i of X adds V = Y·x^i into Z, and V
// steps by one right shift, folding x^128 back in as R = 11100001 || 0^120.
// Masks instead of branches keep the time independent of the operands.
Block128 gf128_mul(Block128 x, Block128 y) {
  constexpr std::uint64_t kR = 0xE100000000000000ull;
  Block128 z;
  Block128 v = y;
  for (int i = 0; i < 128; ++i) {
    const std::uint64_t word = i < 64 ? x.hi : x.lo;
    const std::uint64_t take = 0 - ((word >> (63 - (i & 63))) & 1);
    z.hi ^= v.hi & take;
    z.lo ^= v.lo & take;
    const std::uint64_t carry = 0 - (v.lo & 1);
    v.lo = (v.lo >> 1) | (v.hi << 63);
    v.hi = (v.hi >> 1) ^ (kR & carry);
  }
  return z;
}

#if defined(__x86_64__) || defined(__i386__)
#define ROCKFS_CLMUL __attribute__((target("pclmul,ssse3"), always_inline)) inline

// In registers a block is byte-reversed, so bit j holds the coefficient of
// x^(127-j) (Gueron and Kounavis, Intel's "Carry-Less Multiplication and Its
// Usage for Computing the GCM Mode").
ROCKFS_CLMUL __m128i load_reflected(const Byte* p) {
  const __m128i reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  return _mm_shuffle_epi8(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), reverse);
}

ROCKFS_CLMUL void store_reflected(Byte* p, __m128i v) {
  const __m128i reverse = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(p), _mm_shuffle_epi8(v, reverse));
}

// 128-bit shifts by 0 < n < 64.
ROCKFS_CLMUL __m128i shl128(__m128i v, int n) {
  return _mm_or_si128(_mm_slli_epi64(v, n), _mm_srli_epi64(_mm_slli_si128(v, 8), 64 - n));
}

ROCKFS_CLMUL __m128i shr128(__m128i v, int n) {
  return _mm_or_si128(_mm_srli_epi64(v, n), _mm_slli_epi64(_mm_srli_si128(v, 8), 64 - n));
}

// A sum of carry-less products, unreduced: the low and high 128 bits and
// the two cross terms, which straddle them.
struct Wide {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
};

ROCKFS_CLMUL void add_product(Wide& w, __m128i a, __m128i b) {
  w.lo = _mm_xor_si128(w.lo, _mm_clmulepi64_si128(a, b, 0x00));
  w.hi = _mm_xor_si128(w.hi, _mm_clmulepi64_si128(a, b, 0x11));
  w.mid = _mm_xor_si128(w.mid, _mm_clmulepi64_si128(a, b, 0x01));
  w.mid = _mm_xor_si128(w.mid, _mm_clmulepi64_si128(a, b, 0x10));
}

// Reduces a sum of products modulo x^128 + x^7 + x^2 + x + 1. Shifting and
// reducing are linear, so eight products summed pay for one reduction.
ROCKFS_CLMUL __m128i reduce(const Wide& w) {
  __m128i lo = _mm_xor_si128(w.lo, _mm_slli_si128(w.mid, 8));
  __m128i hi = _mm_xor_si128(w.hi, _mm_srli_si128(w.mid, 8));
  // The product of two reflected operands comes out reflected over 255
  // bits; one left shift of [hi:lo] makes bit j of the 256 hold x^(255-j).
  hi = _mm_or_si128(shl128(hi, 1), _mm_srli_si128(_mm_srli_epi64(lo, 63), 8));
  lo = shl128(lo, 1);
  // lo now holds x^128..x^255, and x^(128+k) = x^(k+7) + x^(k+2) + x^(k+1) + x^k:
  // bit j of lo lands on bits j, j-1, j-2 and j-7 of hi. The bits that fall
  // below bit 0 are x^128..x^134 again; fold them into the top of lo first.
  const __m128i spill = _mm_slli_si128(
      _mm_xor_si128(_mm_xor_si128(_mm_slli_epi64(lo, 63), _mm_slli_epi64(lo, 62)),
                    _mm_slli_epi64(lo, 57)),
      8);
  lo = _mm_xor_si128(lo, spill);
  const __m128i folded = _mm_xor_si128(_mm_xor_si128(lo, shr128(lo, 1)),
                                       _mm_xor_si128(shr128(lo, 2), shr128(lo, 7)));
  return _mm_xor_si128(hi, folded);
}

ROCKFS_CLMUL __m128i gf128_mul_clmul(__m128i a, __m128i b) {
  Wide w;
  add_product(w, a, b);
  return reduce(w);
}

// Eight blocks per reduction: y' = (y ^ X1)·H^8 ^ X2·H^7 ^ ... ^ X8·H, the
// same value as eight single steps. The tail runs one block at a time.
__attribute__((target("pclmul,ssse3"))) void ghash_pclmul(const Byte h[16], Byte y[16],
                                                          const Byte* blocks,
                                                          std::size_t nblocks) {
  constexpr std::size_t kLanes = 8;
  __m128i powers[kLanes];  // powers[k] = H^(k+1)
  powers[0] = load_reflected(h);
  __m128i acc = load_reflected(y);
  std::size_t i = 0;
  if (nblocks >= kLanes) {
    for (std::size_t k = 1; k < kLanes; ++k) {
      powers[k] = gf128_mul_clmul(powers[k - 1], powers[0]);
    }
    for (; nblocks - i >= kLanes; i += kLanes) {
      Wide w;
#pragma GCC unroll 8
      for (std::size_t j = 0; j < kLanes; ++j) {
        __m128i x = load_reflected(blocks + 16 * (i + j));
        if (j == 0) x = _mm_xor_si128(x, acc);
        add_product(w, x, powers[kLanes - 1 - j]);
      }
      acc = reduce(w);
    }
  }
  for (; i < nblocks; ++i) {
    acc = gf128_mul_clmul(_mm_xor_si128(acc, load_reflected(blocks + 16 * i)), powers[0]);
  }
  store_reflected(y, acc);
}

#undef ROCKFS_CLMUL
#endif

}  // namespace

void ghash_portable(const Byte h[16], Byte y[16], const Byte* blocks, std::size_t nblocks) {
  const Block128 hb = load_block(h);
  Block128 acc = load_block(y);
  for (std::size_t i = 0; i < nblocks; ++i) {
    const Block128 x = load_block(blocks + 16 * i);
    acc = gf128_mul({acc.hi ^ x.hi, acc.lo ^ x.lo}, hb);
  }
  store_block(y, acc);
}

GhashKernel pclmul_ghash_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("pclmul") && __builtin_cpu_supports("ssse3")) {
    return &ghash_pclmul;
  }
#endif
  return nullptr;
}

}  // namespace detail

namespace {

constexpr std::size_t kBlock = 16;

struct Kernels {
  detail::CtrKernel ctr32;
  detail::GhashKernel ghash;
};

const Kernels& kernels() {
  static const Kernels k = [] {
    const detail::CtrKernel ctr32 = detail::aesni_ctr32_kernel();
    const detail::GhashKernel ghash = detail::pclmul_ghash_kernel();
    return Kernels{ctr32 != nullptr ? ctr32 : &detail::aes256_ctr32_portable,
                   ghash != nullptr ? ghash : &detail::ghash_portable};
  }();
  return k;
}

// The per-box state that the key and IV fix: the cipher, the hash subkey
// H = E_K(0^128) and the pre-counter block J0 (SP 800-38D §7.1, steps 1-2).
class GcmBox {
 public:
  GcmBox(BytesView key, BytesView iv) : cipher_(key) {
    if (iv.empty()) throw std::invalid_argument("gcm: iv must not be empty");
    const Byte zero[kBlock] = {};
    kernels().ctr32(cipher_, zero, zero, h_, kBlock);
    if (iv.size() == 12) {
      std::memcpy(j0_, iv.data(), iv.size());
      j0_[kBlock - 1] = 1;
    } else {
      // J0 = GHASH(IV || 0^(s+64) || [len(IV)]_64).
      hash_padded(j0_, iv);
      hash_lengths(j0_, 0, iv.size());
    }
  }

  /// GCTR from inc32(J0): encrypts or decrypts n bytes.
  void crypt(const Byte* in, Byte* out, std::size_t n) const {
    Byte counter[kBlock];
    std::memcpy(counter, j0_, kBlock);
    detail::step_counter<true>(counter);
    kernels().ctr32(cipher_, counter, in, out, n);
  }

  /// T = E_K(J0) ^ GHASH(A || 0^v || C || 0^u || [len(A)]_64 || [len(C)]_64).
  void tag(BytesView aad, BytesView ct, Byte out[kBlock]) const {
    Byte s[kBlock] = {};
    hash_padded(s, aad);
    hash_padded(s, ct);
    hash_lengths(s, aad.size(), ct.size());
    kernels().ctr32(cipher_, j0_, s, out, kBlock);
  }

 private:
  // Folds `data` into the digest, its last partial block zero-padded.
  void hash_padded(Byte y[kBlock], BytesView data) const {
    const std::size_t full = data.size() / kBlock;
    kernels().ghash(h_, y, data.data(), full);
    if (const std::size_t rest = data.size() % kBlock; rest != 0) {
      Byte last[kBlock] = {};
      std::memcpy(last, data.data() + full * kBlock, rest);
      kernels().ghash(h_, y, last, 1);
    }
  }

  // Folds in the block of the two bit lengths, 64 bits each.
  void hash_lengths(Byte y[kBlock], std::uint64_t a_bytes, std::uint64_t c_bytes) const {
    Byte block[kBlock];
    detail::store_be64(block, a_bytes * 8);
    detail::store_be64(block + 8, c_bytes * 8);
    kernels().ghash(h_, y, block, 1);
  }

  Aes256 cipher_;
  Byte h_[kBlock] = {};
  Byte j0_[kBlock] = {};
};

}  // namespace

Bytes gcm_seal(BytesView key, BytesView iv, BytesView plaintext, BytesView aad) {
  const GcmBox gcm(key, iv);
  Bytes box(iv.size() + plaintext.size() + kGcmTagSize);
  std::memcpy(box.data(), iv.data(), iv.size());
  Byte* const ct = box.data() + iv.size();
  gcm.crypt(plaintext.data(), ct, plaintext.size());
  gcm.tag(aad, {ct, plaintext.size()}, ct + plaintext.size());
  return box;
}

Result<Bytes> gcm_open(BytesView key, BytesView box, BytesView aad, std::size_t iv_size) {
  if (box.size() < iv_size + kGcmTagSize) {
    return Error{ErrorCode::kCorrupted, "gcm box too short"};
  }
  const GcmBox gcm(key, box.first(iv_size));
  const BytesView ct = box.subspan(iv_size, box.size() - iv_size - kGcmTagSize);
  Byte expect[kGcmTagSize];
  gcm.tag(aad, ct, expect);
  if (!ct_equal(BytesView(expect, kGcmTagSize), box.last(kGcmTagSize))) {
    return Error{ErrorCode::kIntegrity, "gcm tag mismatch"};
  }
  Bytes plaintext(ct.size());
  gcm.crypt(ct.data(), plaintext.data(), ct.size());
  return plaintext;
}

}  // namespace rockfs::crypto
