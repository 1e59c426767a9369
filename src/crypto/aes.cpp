#include "crypto/aes.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "crypto/hmac.h"
#include "crypto/kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace rockfs::crypto {

namespace {

// GF(2^8) multiplication modulo the AES polynomial x^8+x^4+x^3+x+1 (0x11B).
Byte gmul(Byte a, Byte b) {
  Byte p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    const bool hi = a & 0x80;
    a = static_cast<Byte>(a << 1);
    if (hi) a ^= 0x1B;
    b >>= 1;
  }
  return p;
}

struct SboxTables {
  std::array<Byte, 256> sbox{};
  std::array<Byte, 256> mul2{};
  std::array<Byte, 256> mul3{};
};

// Builds the AES S-box from first principles: multiplicative inverse in
// GF(2^8) followed by the affine transform b ^= rotl(b,1)^rotl(b,2)^rotl(b,3)^rotl(b,4)^0x63.
const SboxTables& tables() {
  static const SboxTables t = [] {
    SboxTables out;
    // Inverses via brute force (runs once).
    std::array<Byte, 256> inv{};
    for (int a = 1; a < 256; ++a) {
      for (int b = 1; b < 256; ++b) {
        if (gmul(static_cast<Byte>(a), static_cast<Byte>(b)) == 1) {
          inv[static_cast<std::size_t>(a)] = static_cast<Byte>(b);
          break;
        }
      }
    }
    auto rotl8 = [](Byte x, int n) {
      return static_cast<Byte>((x << n) | (x >> (8 - n)));
    };
    for (int a = 0; a < 256; ++a) {
      const Byte b = inv[static_cast<std::size_t>(a)];
      out.sbox[static_cast<std::size_t>(a)] = static_cast<Byte>(
          b ^ rotl8(b, 1) ^ rotl8(b, 2) ^ rotl8(b, 3) ^ rotl8(b, 4) ^ 0x63);
      out.mul2[static_cast<std::size_t>(a)] = gmul(static_cast<Byte>(a), 2);
      out.mul3[static_cast<std::size_t>(a)] = gmul(static_cast<Byte>(a), 3);
    }
    return out;
  }();
  return t;
}

std::uint32_t sub_word(std::uint32_t w) {
  const auto& s = tables().sbox;
  return (static_cast<std::uint32_t>(s[(w >> 24) & 0xFF]) << 24) |
         (static_cast<std::uint32_t>(s[(w >> 16) & 0xFF]) << 16) |
         (static_cast<std::uint32_t>(s[(w >> 8) & 0xFF]) << 8) |
         static_cast<std::uint32_t>(s[w & 0xFF]);
}

std::uint32_t rot_word(std::uint32_t w) { return (w << 8) | (w >> 24); }

// The sealed box's MAC input: u64be(|aad|) || aad || iv || ct. The length
// prefix fixes where the AAD ends, so no byte can move between the AAD and
// the IV and still verify.
Bytes mac_input(BytesView aad, BytesView iv_and_ct) {
  Bytes m;
  m.reserve(8 + aad.size() + iv_and_ct.size());
  append_u64(m, aad.size());
  append(m, aad);
  append(m, iv_and_ct);
  return m;
}

}  // namespace

Aes256::Aes256(BytesView key) {
  if (key.size() != kKeySize) throw std::invalid_argument("Aes256: key must be 32 bytes");
  constexpr int nk = 8;  // 256-bit key = 8 words
  for (int i = 0; i < nk; ++i) {
    round_keys_[static_cast<std::size_t>(i)] =
        (static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i)]) << 24) |
        (static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i + 1)]) << 16) |
        (static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i + 2)]) << 8) |
        static_cast<std::uint32_t>(key[static_cast<std::size_t>(4 * i + 3)]);
  }
  Byte rcon = 0x01;
  for (int i = nk; i < 4 * (kRounds + 1); ++i) {
    std::uint32_t temp = round_keys_[static_cast<std::size_t>(i - 1)];
    if (i % nk == 0) {
      temp = sub_word(rot_word(temp)) ^ (static_cast<std::uint32_t>(rcon) << 24);
      rcon = gmul(rcon, 2);
    } else if (i % nk == 4) {
      temp = sub_word(temp);
    }
    round_keys_[static_cast<std::size_t>(i)] =
        round_keys_[static_cast<std::size_t>(i - nk)] ^ temp;
  }
}

void Aes256::encrypt_block(Byte block[kBlockSize]) const {
  const auto& sbox = tables().sbox;
  Byte state[4][4];
  // FIPS-197 column-major state layout.
  for (int c = 0; c < 4; ++c)
    for (int r = 0; r < 4; ++r) state[r][c] = block[4 * c + r];

  auto add_round_key = [&](int round) {
    for (int c = 0; c < 4; ++c) {
      const std::uint32_t w = round_keys_[static_cast<std::size_t>(4 * round + c)];
      state[0][c] ^= static_cast<Byte>(w >> 24);
      state[1][c] ^= static_cast<Byte>(w >> 16);
      state[2][c] ^= static_cast<Byte>(w >> 8);
      state[3][c] ^= static_cast<Byte>(w);
    }
  };
  auto sub_bytes = [&] {
    for (auto& row : state)
      for (auto& b : row) b = sbox[b];
  };
  auto shift_rows = [&] {
    for (int r = 1; r < 4; ++r) {
      Byte tmp[4];
      for (int c = 0; c < 4; ++c) tmp[c] = state[r][(c + r) % 4];
      for (int c = 0; c < 4; ++c) state[r][c] = tmp[c];
    }
  };
  const auto& mul2 = tables().mul2;
  const auto& mul3 = tables().mul3;
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      const Byte a0 = state[0][c], a1 = state[1][c], a2 = state[2][c], a3 = state[3][c];
      state[0][c] = static_cast<Byte>(mul2[a0] ^ mul3[a1] ^ a2 ^ a3);
      state[1][c] = static_cast<Byte>(a0 ^ mul2[a1] ^ mul3[a2] ^ a3);
      state[2][c] = static_cast<Byte>(a0 ^ a1 ^ mul2[a2] ^ mul3[a3]);
      state[3][c] = static_cast<Byte>(mul3[a0] ^ a1 ^ a2 ^ mul2[a3]);
    }
  };

  add_round_key(0);
  for (int round = 1; round < kRounds; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(kRounds);

  for (int c = 0; c < 4; ++c)
    for (int r = 0; r < 4; ++r) block[4 * c + r] = state[r][c];
}

namespace detail {

namespace {

template <bool kInc32>
void ctr_portable(const Aes256& cipher, const Byte* iv, const Byte* in, Byte* out,
                  std::size_t n) {
  Byte counter[Aes256::kBlockSize];
  std::memcpy(counter, iv, Aes256::kBlockSize);
  for (std::size_t off = 0; off < n; off += Aes256::kBlockSize) {
    Byte keystream[Aes256::kBlockSize];
    std::memcpy(keystream, counter, Aes256::kBlockSize);
    cipher.encrypt_block(keystream);
    const std::size_t take = std::min<std::size_t>(Aes256::kBlockSize, n - off);
    for (std::size_t i = 0; i < take; ++i) {
      out[off + i] = static_cast<Byte>(in[off + i] ^ keystream[i]);
    }
    step_counter<kInc32>(counter);
  }
}

}  // namespace

void aes256_ctr_portable(const Aes256& cipher, const Byte* iv, const Byte* in, Byte* out,
                         std::size_t n) {
  ctr_portable<false>(cipher, iv, in, out, n);
}

void aes256_ctr32_portable(const Aes256& cipher, const Byte* iv, const Byte* in, Byte* out,
                           std::size_t n) {
  ctr_portable<true>(cipher, iv, in, out, n);
}

namespace {

#if defined(__x86_64__) || defined(__i386__)
// Eight counter blocks per pass keep the aesenc pipeline full; the tail runs
// one block at a time. The counter is two 64-bit halves: a carry from the low
// half into the high one gives the portable path's 128-bit increment, and
// (kInc32) wrapping the low 32 bits alone gives inc32.
template <bool kInc32>
__attribute__((target("aes,ssse3"))) void aes256_ctr_aesni(const Aes256& cipher,
                                                           const Byte* iv, const Byte* in,
                                                           Byte* out, std::size_t n) {
  constexpr int kRounds = Aes256::kRounds;
  constexpr std::size_t kLanes = 8;
  // aesenc takes each round key as 16 bytes in state order, i.e. every
  // FIPS-197 word big-endian: byte-swap the native words lane by lane.
  const __m128i word_bswap =
      _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);
  __m128i rk[kRounds + 1];
  for (int r = 0; r <= kRounds; ++r) {
    rk[r] = _mm_shuffle_epi8(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cipher.round_keys().data() + 4 * r)),
        word_bswap);
  }
  std::uint64_t hi = load_be64(iv);
  std::uint64_t lo = load_be64(iv + 8);
  const auto step = [&] {
    if constexpr (kInc32) {
      lo = (lo & 0xFFFFFFFF00000000ull) | ((lo + 1) & 0xFFFFFFFFull);
    } else if (++lo == 0) {
      ++hi;
    }
  };

  std::size_t off = 0;
  for (; n - off >= kLanes * Aes256::kBlockSize; off += kLanes * Aes256::kBlockSize) {
    __m128i b[kLanes];
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kLanes; ++j) {
      b[j] = _mm_xor_si128(_mm_set_epi64x(static_cast<long long>(__builtin_bswap64(lo)),
                                          static_cast<long long>(__builtin_bswap64(hi))),
                           rk[0]);
      step();
    }
    for (int r = 1; r < kRounds; ++r) {
#pragma GCC unroll 8
      for (std::size_t j = 0; j < kLanes; ++j) b[j] = _mm_aesenc_si128(b[j], rk[r]);
    }
#pragma GCC unroll 8
    for (std::size_t j = 0; j < kLanes; ++j) {
      b[j] = _mm_aesenclast_si128(b[j], rk[kRounds]);
      const auto* src = reinterpret_cast<const __m128i*>(in + off + j * Aes256::kBlockSize);
      auto* dst = reinterpret_cast<__m128i*>(out + off + j * Aes256::kBlockSize);
      _mm_storeu_si128(dst, _mm_xor_si128(_mm_loadu_si128(src), b[j]));
    }
  }
  for (; off < n; off += Aes256::kBlockSize) {
    __m128i b = _mm_xor_si128(_mm_set_epi64x(static_cast<long long>(__builtin_bswap64(lo)),
                                             static_cast<long long>(__builtin_bswap64(hi))),
                              rk[0]);
    step();
    for (int r = 1; r < kRounds; ++r) b = _mm_aesenc_si128(b, rk[r]);
    b = _mm_aesenclast_si128(b, rk[kRounds]);
    Byte keystream[Aes256::kBlockSize];
    _mm_storeu_si128(reinterpret_cast<__m128i*>(keystream), b);
    const std::size_t take = std::min<std::size_t>(Aes256::kBlockSize, n - off);
    for (std::size_t i = 0; i < take; ++i) {
      out[off + i] = static_cast<Byte>(in[off + i] ^ keystream[i]);
    }
  }
}
#endif

template <bool kInc32>
CtrKernel aesni_kernel_if_supported() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("aes") && __builtin_cpu_supports("ssse3")) {
    return &aes256_ctr_aesni<kInc32>;
  }
#endif
  return nullptr;
}

}  // namespace

CtrKernel aesni_ctr_kernel() { return aesni_kernel_if_supported<false>(); }

CtrKernel aesni_ctr32_kernel() { return aesni_kernel_if_supported<true>(); }

}  // namespace detail

Bytes aes256_ctr(BytesView key, BytesView iv, BytesView data) {
  if (iv.size() != Aes256::kBlockSize) {
    throw std::invalid_argument("aes256_ctr: iv must be 16 bytes");
  }
  static const detail::CtrKernel kernel = [] {
    const detail::CtrKernel hw = detail::aesni_ctr_kernel();
    return hw != nullptr ? hw : &detail::aes256_ctr_portable;
  }();
  const Aes256 cipher(key);
  Bytes out(data.size());
  kernel(cipher, iv.data(), data.data(), out.data(), data.size());
  return out;
}

Bytes seal(BytesView key, BytesView plaintext, BytesView aad, BytesView iv16) {
  if (iv16.size() != 16) throw std::invalid_argument("seal: iv must be 16 bytes");
  // Derive independent cipher and MAC keys from the box key.
  const Bytes enc_key = hkdf_sha256(key, {}, to_bytes("rockfs.seal.enc"), 32);
  const Bytes mac_key = hkdf_sha256(key, {}, to_bytes("rockfs.seal.mac"), 32);

  const Bytes ct = aes256_ctr(enc_key, iv16, plaintext);
  Bytes out = concat({iv16, ct});
  append(out, hmac_sha256(mac_key, mac_input(aad, out)));
  return out;
}

Result<Bytes> open_sealed(BytesView key, BytesView box, BytesView aad) {
  constexpr std::size_t kIv = 16, kTag = 32;
  if (box.size() < kIv + kTag) {
    return Error{ErrorCode::kCorrupted, "sealed box too short"};
  }
  const Bytes enc_key = hkdf_sha256(key, {}, to_bytes("rockfs.seal.enc"), 32);
  const Bytes mac_key = hkdf_sha256(key, {}, to_bytes("rockfs.seal.mac"), 32);

  const BytesView body = box.subspan(0, box.size() - kTag);
  const BytesView tag = box.subspan(box.size() - kTag);
  const Bytes expect = hmac_sha256(mac_key, mac_input(aad, body));
  if (!ct_equal(expect, tag)) {
    return Error{ErrorCode::kIntegrity, "sealed box MAC mismatch"};
  }
  const BytesView iv = body.subspan(0, kIv);
  const BytesView ct = body.subspan(kIv);
  return aes256_ctr(enc_key, iv, ct);
}

}  // namespace rockfs::crypto
