#include "crypto/bigint.h"

#include <stdexcept>

#include "common/hex.h"

namespace rockfs::crypto {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

Uint256 Uint256::from_bytes_be(BytesView b) {
  if (b.size() != 32) throw std::invalid_argument("Uint256::from_bytes_be: need 32 bytes");
  Uint256 r;
  for (int limb_i = 0; limb_i < 4; ++limb_i) {
    u64 v = 0;
    for (int j = 0; j < 8; ++j) {
      v = (v << 8) | b[static_cast<std::size_t>((3 - limb_i) * 8 + j)];
    }
    r.limb[static_cast<std::size_t>(limb_i)] = v;
  }
  return r;
}

Uint256 Uint256::from_hex(std::string_view hex) {
  if (hex.size() > 64) throw std::invalid_argument("Uint256::from_hex: too long");
  std::string padded(64 - hex.size(), '0');
  padded += hex;
  return from_bytes_be(hex_decode(padded));
}

Bytes Uint256::to_bytes_be() const {
  Bytes out(32);
  for (int limb_i = 0; limb_i < 4; ++limb_i) {
    const u64 v = limb[static_cast<std::size_t>(limb_i)];
    for (int j = 0; j < 8; ++j) {
      out[static_cast<std::size_t>((3 - limb_i) * 8 + j)] =
          static_cast<Byte>(v >> (8 * (7 - j)));
    }
  }
  return out;
}

std::string Uint256::to_hex() const { return hex_encode(to_bytes_be()); }

bool Uint256::is_zero() const noexcept {
  return (limb[0] | limb[1] | limb[2] | limb[3]) == 0;
}

bool Uint256::bit(unsigned i) const noexcept {
  return (limb[i / 64] >> (i % 64)) & 1;
}

unsigned Uint256::bit_length() const noexcept {
  for (int i = 3; i >= 0; --i) {
    if (limb[static_cast<std::size_t>(i)] != 0) {
      return static_cast<unsigned>(i) * 64 +
             (64 - static_cast<unsigned>(__builtin_clzll(limb[static_cast<std::size_t>(i)])));
    }
  }
  return 0;
}

int cmp(const Uint256& a, const Uint256& b) noexcept {
  for (int i = 3; i >= 0; --i) {
    const auto ia = a.limb[static_cast<std::size_t>(i)];
    const auto ib = b.limb[static_cast<std::size_t>(i)];
    if (ia < ib) return -1;
    if (ia > ib) return 1;
  }
  return 0;
}

u64 add_with_carry(const Uint256& a, const Uint256& b, Uint256& r) noexcept {
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 s = static_cast<u128>(a.limb[static_cast<std::size_t>(i)]) +
                   b.limb[static_cast<std::size_t>(i)] + carry;
    r.limb[static_cast<std::size_t>(i)] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  return carry;
}

u64 sub_with_borrow(const Uint256& a, const Uint256& b, Uint256& r) noexcept {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 d = static_cast<u128>(a.limb[static_cast<std::size_t>(i)]) -
                   b.limb[static_cast<std::size_t>(i)] - borrow;
    r.limb[static_cast<std::size_t>(i)] = static_cast<u64>(d);
    borrow = (d >> 64) ? 1 : 0;
  }
  return borrow;
}

Uint256 shift_left1(const Uint256& a) noexcept {
  Uint256 r;
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    r.limb[idx] = (a.limb[idx] << 1) | carry;
    carry = a.limb[idx] >> 63;
  }
  return r;
}

Uint512 mul_wide(const Uint256& a, const Uint256& b) noexcept {
  Uint512 r;
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const auto idx = static_cast<std::size_t>(i + j);
      const u128 cur = static_cast<u128>(a.limb[static_cast<std::size_t>(i)]) *
                           b.limb[static_cast<std::size_t>(j)] +
                       r.limb[idx] + carry;
      r.limb[idx] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    r.limb[static_cast<std::size_t>(i + 4)] += carry;
  }
  return r;
}

bool Uint512::bit(unsigned i) const noexcept { return (limb[i / 64] >> (i % 64)) & 1; }

unsigned Uint512::bit_length() const noexcept {
  for (int i = 7; i >= 0; --i) {
    if (limb[static_cast<std::size_t>(i)] != 0) {
      return static_cast<unsigned>(i) * 64 +
             (64 - static_cast<unsigned>(__builtin_clzll(limb[static_cast<std::size_t>(i)])));
    }
  }
  return 0;
}

Uint512 Uint512::from_uint256(const Uint256& v) noexcept {
  Uint512 r;
  for (int i = 0; i < 4; ++i) r.limb[static_cast<std::size_t>(i)] = v.limb[static_cast<std::size_t>(i)];
  return r;
}

Uint256 mod(const Uint512& a, const Uint256& m) {
  if (m.is_zero()) throw std::invalid_argument("mod: zero modulus");
  Uint256 rem;  // running remainder, always < m after each step
  const unsigned nbits = a.bit_length();
  for (int i = static_cast<int>(nbits) - 1; i >= 0; --i) {
    // rem = rem*2 + bit_i; rem < 2m so at most one subtraction. When m is
    // close to 2^256 the doubling can carry out of 256 bits, in which case
    // the true value is 2^256 + shifted and the subtraction is unconditional
    // (the wrap-around of sub_with_borrow supplies the missing 2^256).
    const std::uint64_t carry_out = rem.limb[3] >> 63;
    rem = shift_left1(rem);
    if (a.bit(static_cast<unsigned>(i))) rem.limb[0] |= 1;
    if (carry_out != 0 || rem >= m) {
      Uint256 t;
      sub_with_borrow(rem, m, t);
      rem = t;
    }
  }
  return rem;
}

Uint256 add_mod(const Uint256& a, const Uint256& b, const Uint256& m) {
  Uint256 s;
  const u64 carry = add_with_carry(a, b, s);
  if (carry != 0 || s >= m) {
    Uint256 t;
    sub_with_borrow(s, m, t);
    // With a,b < m < 2^256 the sum is < 2m, so one subtraction suffices even
    // when the add wrapped.
    return t;
  }
  return s;
}

Uint256 sub_mod(const Uint256& a, const Uint256& b, const Uint256& m) {
  Uint256 d;
  if (sub_with_borrow(a, b, d) != 0) {
    Uint256 t;
    add_with_carry(d, m, t);
    return t;
  }
  return d;
}

Uint256 mul_mod(const Uint256& a, const Uint256& b, const Uint256& m) {
  return mod(mul_wide(a, b), m);
}

Uint256 pow_mod(const Uint256& base, const Uint256& exp, const Uint256& m) {
  Uint256 result(1);
  Uint256 acc = mod(Uint512::from_uint256(base), m);
  const unsigned n = exp.bit_length();
  for (unsigned i = 0; i < n; ++i) {
    if (exp.bit(i)) result = mul_mod(result, acc, m);
    acc = mul_mod(acc, acc, m);
  }
  return result;
}

Uint256 inv_mod_prime(const Uint256& a, const Uint256& m) {
  if (mod(Uint512::from_uint256(a), m).is_zero()) {
    throw std::invalid_argument("inv_mod_prime: zero has no inverse");
  }
  Uint256 e;
  sub_with_borrow(m, Uint256(2), e);
  return pow_mod(a, e, m);
}

}  // namespace rockfs::crypto
