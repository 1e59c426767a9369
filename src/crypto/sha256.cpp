#include "crypto/sha256.h"

#include <algorithm>
#include <cstring>

#include "crypto/kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace rockfs::crypto {

namespace {
constexpr std::uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

std::uint32_t rotr(std::uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }
}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t state[8], const Byte* blocks,
                              std::size_t nblocks) {
  for (; nblocks > 0; --nblocks, blocks += Sha256::kBlockSize) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<std::uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kK[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

namespace {

#if defined(__x86_64__) || defined(__i386__)
// sha256rnds2 runs two rounds on the state split into ABEF and CDGH halves
// and takes W[t]+K[t] for those rounds in its low 64 bits; sha256msg1/msg2
// extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1,ssse3"))) void sha256_compress_shani(std::uint32_t state[8],
                                                                      const Byte* blocks,
                                                                      std::size_t nblocks) {
  const __m128i word_bswap =
      _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  auto* state_lo = reinterpret_cast<__m128i*>(state);
  auto* state_hi = reinterpret_cast<__m128i*>(state + 4);
  const auto* k = reinterpret_cast<const __m128i*>(kK);
  const __m128i cdab = _mm_shuffle_epi32(_mm_loadu_si128(state_lo), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(_mm_loadu_si128(state_hi), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; nblocks > 0; --nblocks, blocks += Sha256::kBlockSize) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // msg[g & 3] holds W[4g .. 4g+3] for the current group g of four rounds.
    __m128i msg[4];
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i& m = msg[g & 3];
      if (g < 4) {
        const auto* words = reinterpret_cast<const __m128i*>(blocks + 16 * g);
        m = _mm_shuffle_epi8(_mm_loadu_si128(words), word_bswap);
      } else {
        m = _mm_sha256msg1_epu32(m, msg[(g + 1) & 3]);
        m = _mm_add_epi32(m, _mm_alignr_epi8(msg[(g + 3) & 3], msg[(g + 2) & 3], 4));
        m = _mm_sha256msg2_epu32(m, msg[(g + 3) & 3]);
      }
      const __m128i wk = _mm_add_epi32(m, _mm_loadu_si128(k + g));
      // Two rounds make the old ABEF the new CDGH, so the halves trade
      // places twice and end where they started.
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(state_lo, _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(state_hi, _mm_alignr_epi8(dchg, feba, 8));
}
#endif

}  // namespace

CompressKernel shani_compress_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1")) {
    return &sha256_compress_shani;
  }
#endif
  return nullptr;
}

}  // namespace detail

namespace {

void compress(std::uint32_t state[8], const Byte* blocks, std::size_t nblocks) {
  static const detail::CompressKernel kernel = [] {
    const detail::CompressKernel hw = detail::shani_compress_kernel();
    return hw != nullptr ? hw : &detail::sha256_compress_portable;
  }();
  kernel(state, blocks, nblocks);
}

}  // namespace

Sha256::Sha256()
    : h_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
         0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

void Sha256::update(BytesView data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(kBlockSize - buf_len_, data.size());
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off += take;
    if (buf_len_ == kBlockSize) {
      compress(h_.data(), buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  const std::size_t blocks = (data.size() - off) / kBlockSize;
  if (blocks > 0) {
    compress(h_.data(), data.data() + off, blocks);
    off += blocks * kBlockSize;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Bytes Sha256::finish() {
  // Pad in the block buffer: 0x80, zeros up to byte 56 (spilling into a
  // second block when fewer than 9 bytes are free), the 64-bit bit length.
  const std::uint64_t bit_len = total_len_ * 8;
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > kBlockSize - 8) {
    std::memset(buf_.data() + buf_len_, 0, kBlockSize - buf_len_);
    compress(h_.data(), buf_.data(), 1);
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, kBlockSize - 8 - buf_len_);
  for (std::size_t i = 0; i < 8; ++i) {
    buf_[kBlockSize - 8 + i] = static_cast<Byte>(bit_len >> (8 * (7 - i)));
  }
  compress(h_.data(), buf_.data(), 1);

  Bytes out(kDigestSize);
  for (int i = 0; i < 8; ++i) {
    for (int j = 0; j < 4; ++j) {
      out[static_cast<std::size_t>(4 * i + j)] = static_cast<Byte>(h_[static_cast<std::size_t>(i)] >> (8 * (3 - j)));
    }
  }
  return out;
}

Bytes Sha256::hash(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Bytes sha256(BytesView data) { return Sha256::hash(data); }

}  // namespace rockfs::crypto
