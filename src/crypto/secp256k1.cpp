#include "crypto/secp256k1.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

namespace rockfs::crypto {

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

const Uint256 kP = Uint256::from_hex(
    "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
const Uint256 kN = Uint256::from_hex(
    "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141");
const Uint256 kGx = Uint256::from_hex(
    "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
const Uint256 kGy = Uint256::from_hex(
    "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");

// Both moduli sit just below 2^256: p = 2^256 - kC and n = 2^256 - kNc, so
// 2^256 folds to kC (mod p) and to kNc (mod n), with kNc < 2^129.
constexpr u64 kC = 0x1000003D1ULL;  // 2^32 + 977
constexpr Uint256 kCWide(kC);
const Uint256 kNc = Uint256::from_hex("14551231950b75fc4402da1732fc9bebf");

// For m = 2^256 - c: the value carry * 2^256 + a, minus m once if it is at
// least m. Exact whenever that value is below 2m. a + c wraps past 2^256
// exactly when a >= m, and then the wrapped sum is a - m.
[[gnu::always_inline]] inline Uint256 reduce_once(const Uint256& a, u64 carry,
                                                  const Uint256& c) {
  Uint256 t;
  u128 acc = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    acc = (acc >> 64) + a.limb[i] + c.limb[i];
    t.limb[i] = static_cast<u64>(acc);
  }
  return (carry | static_cast<u64>(acc >> 64)) != 0 ? t : a;
}

// Schoolbook products by columns in a three-word accumulator, written
// straight-line so each limb of the 512-bit result is stored once.
// mul_wide's rows read back every partial limb instead: calling it cost ~9%
// of rockfs_bench small-meta ops_per_s (Release, GCC 12, 4-core Xeon), and
// a looped column form was no faster than mul_wide.
struct Columns {
  u64 c0 = 0, c1 = 0, c2 = 0;

  void add(u128 m) {
    const u64 lo = static_cast<u64>(m);
    const u64 hi = static_cast<u64>(m >> 64) + ((c0 += lo) < lo);  // hi < 2^64 - 1
    c2 += (c1 += hi) < hi;
  }
  // The finished column's word; the accumulator moves up one column.
  u64 next() {
    const u64 out = c0;
    c0 = c1;
    c1 = c2;
    c2 = 0;
    return out;
  }
};

u128 mul64(u64 a, u64 b) { return static_cast<u128>(a) * b; }

// t mod p for a 512-bit t. First fold, hi * 2^256 + lo == hi * kC + lo: one
// carried pass leaves a 256-bit value plus a top word below 2^34.
Uint256 fold_p(const std::array<u64, 8>& t) {
  Uint256 r;
  u128 acc = static_cast<u128>(t[4]) * kC + t[0];
  r.limb[0] = static_cast<u64>(acc);
  acc = (acc >> 64) + static_cast<u128>(t[5]) * kC + t[1];
  r.limb[1] = static_cast<u64>(acc);
  acc = (acc >> 64) + static_cast<u128>(t[6]) * kC + t[2];
  r.limb[2] = static_cast<u64>(acc);
  acc = (acc >> 64) + static_cast<u128>(t[7]) * kC + t[3];
  r.limb[3] = static_cast<u64>(acc);
  // Second fold of that top word; what carries out of it is under 2p.
  acc = static_cast<u128>(static_cast<u64>(acc >> 64)) * kC + r.limb[0];
  r.limb[0] = static_cast<u64>(acc);
  acc = (acc >> 64) + r.limb[1];
  r.limb[1] = static_cast<u64>(acc);
  acc = (acc >> 64) + r.limb[2];
  r.limb[2] = static_cast<u64>(acc);
  acc = (acc >> 64) + r.limb[3];
  r.limb[3] = static_cast<u64>(acc);
  return reduce_once(r, static_cast<u64>(acc >> 64), kCWide);
}

// a + b and a - b mod p for a, b < p (the result then is), forced inline:
// the point formulas make about a dozen such sums per doubling or addition,
// and a call costs about as much as the sum itself. fe_add and fe_sub are
// these two. a + b < 2p, so a carry out of 2^256 folds back as kC, which
// is reduce_once.
[[gnu::always_inline]] inline Uint256 add_p(const Uint256& a, const Uint256& b) {
  Uint256 s;
  u128 acc = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    acc = (acc >> 64) + a.limb[i] + b.limb[i];
    s.limb[i] = static_cast<u64>(acc);
  }
  return reduce_once(s, static_cast<u64>(acc >> 64), kCWide);
}

// A borrow out of 2^256 leaves a - b + 2^256; mod p that is kC less, and
// a - b + p >= 1, so taking kC off borrows no further.
[[gnu::always_inline]] inline Uint256 sub_p(const Uint256& a, const Uint256& b) {
  Uint256 d;
  u64 borrow = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    const u128 t = static_cast<u128>(a.limb[i]) - b.limb[i] - borrow;
    d.limb[i] = static_cast<u64>(t);
    borrow = static_cast<u64>(t >> 64) & 1;
  }
  borrow = kC & (0 - borrow);
  for (std::size_t i = 0; i < 4; ++i) {
    const u128 t = static_cast<u128>(d.limb[i]) - borrow;
    d.limb[i] = static_cast<u64>(t);
    borrow = static_cast<u64>(t >> 64) & 1;
  }
  return d;
}

}  // namespace

const Uint256& curve_p() { return kP; }
const Uint256& curve_n() { return kN; }

Uint256 fe_add(const Uint256& a, const Uint256& b) { return add_p(a, b); }
Uint256 fe_sub(const Uint256& a, const Uint256& b) { return sub_p(a, b); }

Uint256 fe_mul(const Uint256& a, const Uint256& b) {
  const auto& x = a.limb;
  const auto& y = b.limb;
  std::array<u64, 8> t;
  Columns acc;
  acc.add(mul64(x[0], y[0]));
  t[0] = acc.next();
  acc.add(mul64(x[0], y[1]));
  acc.add(mul64(x[1], y[0]));
  t[1] = acc.next();
  acc.add(mul64(x[0], y[2]));
  acc.add(mul64(x[1], y[1]));
  acc.add(mul64(x[2], y[0]));
  t[2] = acc.next();
  acc.add(mul64(x[0], y[3]));
  acc.add(mul64(x[1], y[2]));
  acc.add(mul64(x[2], y[1]));
  acc.add(mul64(x[3], y[0]));
  t[3] = acc.next();
  acc.add(mul64(x[1], y[3]));
  acc.add(mul64(x[2], y[2]));
  acc.add(mul64(x[3], y[1]));
  t[4] = acc.next();
  acc.add(mul64(x[2], y[3]));
  acc.add(mul64(x[3], y[2]));
  t[5] = acc.next();
  acc.add(mul64(x[3], y[3]));
  t[6] = acc.next();
  t[7] = acc.c0;
  return fold_p(t);
}

Uint256 fe_sqr(const Uint256& a) {
  // Each cross product x_i * x_j (i < j) appears twice in the square: it is
  // multiplied once and added twice, 10 limb products instead of 16.
  const auto& x = a.limb;
  std::array<u64, 8> t;
  Columns acc;
  const auto cross = [&acc](u64 xi, u64 xj) {
    const u128 m = mul64(xi, xj);
    acc.add(m);
    acc.add(m);
  };
  acc.add(mul64(x[0], x[0]));
  t[0] = acc.next();
  cross(x[0], x[1]);
  t[1] = acc.next();
  cross(x[0], x[2]);
  acc.add(mul64(x[1], x[1]));
  t[2] = acc.next();
  cross(x[0], x[3]);
  cross(x[1], x[2]);
  t[3] = acc.next();
  cross(x[1], x[3]);
  acc.add(mul64(x[2], x[2]));
  t[4] = acc.next();
  cross(x[2], x[3]);
  t[5] = acc.next();
  acc.add(mul64(x[3], x[3]));
  t[6] = acc.next();
  t[7] = acc.c0;
  return fold_p(t);
}

Uint256 fe_inv(const Uint256& a) {
  if (a.is_zero()) throw std::invalid_argument("fe_inv: zero");
  // Fermat, a^(p-2), by the standard addition chain: p - 2 is a run of 223
  // ones, a zero, 22 ones, then 0000101101. x_k below is a^(2^k - 1).
  const auto sqr_n = [](Uint256 x, int times) {
    for (int i = 0; i < times; ++i) x = fe_sqr(x);
    return x;
  };
  const Uint256 x2 = fe_mul(sqr_n(a, 1), a);
  const Uint256 x3 = fe_mul(sqr_n(x2, 1), a);
  const Uint256 x6 = fe_mul(sqr_n(x3, 3), x3);
  const Uint256 x9 = fe_mul(sqr_n(x6, 3), x3);
  const Uint256 x11 = fe_mul(sqr_n(x9, 2), x2);
  const Uint256 x22 = fe_mul(sqr_n(x11, 11), x11);
  const Uint256 x44 = fe_mul(sqr_n(x22, 22), x22);
  const Uint256 x88 = fe_mul(sqr_n(x44, 44), x44);
  const Uint256 x176 = fe_mul(sqr_n(x88, 88), x88);
  const Uint256 x220 = fe_mul(sqr_n(x176, 44), x44);
  const Uint256 x223 = fe_mul(sqr_n(x220, 3), x3);
  Uint256 t = fe_mul(sqr_n(x223, 23), x22);
  t = fe_mul(sqr_n(t, 5), a);
  t = fe_mul(sqr_n(t, 3), x2);
  return fe_mul(sqr_n(t, 2), a);
}

Uint256 scalar_add(const Uint256& a, const Uint256& b) { return add_mod(a, b, kN); }
Uint256 scalar_sub(const Uint256& a, const Uint256& b) { return sub_mod(a, b, kN); }

Uint256 scalar_mul_mod_n(const Uint256& a, const Uint256& b) {
  std::array<u64, 8> t = mul_wide(a, b).limb;
  // Three folds of hi * 2^256 + lo to hi * kNc + lo take the product from
  // below 2^512 to below 2^386, 2^259 and finally 2^256 + 2^133 < 2n.
  for (int round = 0; round < 3; ++round) {
    std::array<u64, 8> r{t[0], t[1], t[2], t[3], 0, 0, 0, 0};
    for (std::size_t i = 0; i < 4; ++i) {
      u64 carry = 0;
      for (std::size_t j = 0; j < 3; ++j) {
        const u128 cur = static_cast<u128>(t[i + 4]) * kNc.limb[j] + r[i + j] + carry;
        r[i + j] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> 64);
      }
      for (std::size_t j = i + 3; j < 8; ++j) {
        const u128 cur = static_cast<u128>(r[j]) + carry;
        r[j] = static_cast<u64>(cur);
        carry = static_cast<u64>(cur >> 64);
      }
    }
    t = r;
  }
  return reduce_once(Uint256::from_limbs(t[0], t[1], t[2], t[3]), t[4], kNc);
}

Uint256 scalar_inv(const Uint256& a) {
  // Below 2^256 < 2n, the only multiples of n are 0 and n itself.
  if (a.is_zero() || a == kN) throw std::invalid_argument("scalar_inv: zero has no inverse");
  // Fermat, a^(n-2), square-and-multiply from the top bit.
  Uint256 e;
  sub_with_borrow(kN, Uint256(2), e);
  Uint256 r(1);
  for (int i = 255; i >= 0; --i) {
    r = scalar_mul_mod_n(r, r);
    if (e.bit(static_cast<unsigned>(i))) r = scalar_mul_mod_n(r, a);
  }
  return r;
}

Uint256 scalar_from_bytes(BytesView b32) {
  // 2^256 < 2n, so one conditional subtraction reduces any 32 bytes.
  return reduce_once(Uint256::from_bytes_be(b32), 0, kNc);
}

const Point& generator() {
  static const Point g{kGx, kGy, false};
  return g;
}

namespace {

// Jacobian coordinates: (X, Y, Z) with x = X/Z^2, y = Y/Z^3.
struct Jac {
  Uint256 x;
  Uint256 y;
  Uint256 z;
  bool infinity = true;
};

[[gnu::always_inline]] inline Uint256 twice(const Uint256& a) { return add_p(a, a); }

Jac to_jac(const Point& p) {
  if (p.infinity) return {};
  return {p.x, p.y, Uint256(1), false};
}

Point to_affine(const Jac& j) {
  if (j.infinity) return {};
  const Uint256 zi = fe_inv(j.z);
  const Uint256 zi2 = fe_sqr(zi);
  const Uint256 zi3 = fe_mul(zi2, zi);
  return {fe_mul(j.x, zi2), fe_mul(j.y, zi3), false};
}

// dbl-2009-l for a = 0 (2 multiplications, 5 squarings); the constants 2,
// 3 and 8 are additions.
Jac jac_double(const Jac& p) {
  if (p.infinity || p.y.is_zero()) return {};
  const Uint256 a = fe_sqr(p.x);
  const Uint256 b = fe_sqr(p.y);
  const Uint256 c = fe_sqr(b);
  const Uint256 d = twice(sub_p(sub_p(fe_sqr(add_p(p.x, b)), a), c));
  const Uint256 e = add_p(twice(a), a);
  const Uint256 x3 = sub_p(fe_sqr(e), twice(d));
  const Uint256 y3 = sub_p(fe_mul(e, sub_p(d, x3)), twice(twice(twice(c))));
  return {x3, y3, twice(fe_mul(p.y, p.z)), false};
}

// The tail both additions share. (u1, s1) and (u2, s2) are P's and Q's
// coordinates over the common denominator and z1z2 = Z1 * Z2. Keeps the
// P == Q (double) and P == -Q (identity) cases.
Jac add_tail(const Jac& p, const Uint256& u1, const Uint256& s1, const Uint256& u2,
             const Uint256& s2, const Uint256& z1z2) {
  const Uint256 h = sub_p(u2, u1);
  const Uint256 r = sub_p(s2, s1);
  if (h.is_zero()) {
    if (r.is_zero()) return jac_double(p);
    return {};
  }
  const Uint256 hh = fe_sqr(h);
  const Uint256 hhh = fe_mul(hh, h);
  const Uint256 v = fe_mul(u1, hh);
  const Uint256 x3 = sub_p(sub_p(fe_sqr(r), hhh), twice(v));
  const Uint256 y3 = sub_p(fe_mul(r, sub_p(v, x3)), fe_mul(s1, hhh));
  return {x3, y3, fe_mul(z1z2, h), false};
}

Jac jac_add(const Jac& p, const Jac& q) {
  if (p.infinity) return q;
  if (q.infinity) return p;
  const Uint256 z1z1 = fe_sqr(p.z);
  const Uint256 z2z2 = fe_sqr(q.z);
  return add_tail(p, fe_mul(p.x, z2z2), fe_mul(p.y, fe_mul(z2z2, q.z)), fe_mul(q.x, z1z1),
                  fe_mul(q.y, fe_mul(z1z1, p.z)), fe_mul(p.z, q.z));
}

// Mixed addition: Q is affine (Z2 = 1).
Jac jac_add_affine(const Jac& p, const Point& q) {
  if (p.infinity) return to_jac(q);
  if (q.infinity) return p;
  const Uint256 z1z1 = fe_sqr(p.z);
  return add_tail(p, p.x, p.y, fe_mul(q.x, z1z1), fe_mul(q.y, fe_mul(z1z1, p.z)), p.z);
}

// Nibble i (4 bits, i < 64) of k, counted from the least significant.
unsigned nibble(const Uint256& k, std::size_t i) {
  return static_cast<unsigned>(k.limb[i / 16] >> (4 * (i % 16))) & 0xF;
}

// G's comb, built once per process on first use (function-local statics
// initialise thread-safely).
const Comb& g_comb() {
  static const std::unique_ptr<const Comb> table = std::make_unique<const Comb>(generator());
  return *table;
}

// acc + k*P for P's comb: one mixed addition per nonzero nibble of k, no
// doublings.
Jac comb_add(Jac acc, const Uint256& k, const Comb& comb) {
  for (std::size_t i = 0; i < Comb::kRows; ++i) {
    const unsigned d = nibble(k, i);
    if (d != 0) acc = jac_add_affine(acc, comb.at(i, d));
  }
  return acc;
}

// Whether the Jacobian j and the affine r are one point: X == x * Z^2 and
// Y == y * Z^3, exactly when to_affine(j) == r. Every coordinate the formulas
// produce is below p, so r's must be too.
bool jac_equals(const Jac& j, const Point& r) {
  if (j.infinity) return r == Point{};
  if (r.infinity || r.x >= kP || r.y >= kP) return false;
  const Uint256 zz = fe_sqr(j.z);
  return j.x == fe_mul(r.x, zz) && j.y == fe_mul(r.y, fe_mul(zz, j.z));
}

// The GLV endomorphism: lambda is a cube root of unity mod n and beta one
// mod p, and lambda * (x, y) == (beta * x, y) for every point. Any k < n
// splits into k1 + k2 * lambda (mod n) with |k1|, |k2| < 2^128, by the
// rounding of libsecp256k1's secp256k1_scalar_split_lambda: c1 = round(k *
// g1 / 2^384), c2 = round(k * g2 / 2^384), k2 = c1 * (-b1) + c2 * (-b2) and
// k1 = k + k2 * (-lambda), all mod n.
const Uint256 kBeta = Uint256::from_hex(
    "7ae96a2b657c07106e64479eac3434e99cf0497512f58995c1396c28719501ee");
const Uint256 kMinusLambda = Uint256::from_hex(
    "ac9c52b33fa3cf1f5ad9e3fd77ed9ba4a880b9fc8ec739c2e0cfc810b51283cf");
const Uint256 kMinusB1 = Uint256::from_hex("e4437ed6010e88286f547fa90abfe4c3");
const Uint256 kMinusB2 = Uint256::from_hex(
    "fffffffffffffffffffffffffffffffe8a280ac50774346dd765cda83db1562c");
const Uint256 kG1 = Uint256::from_hex(
    "3086d221a7d46bcde86c90e49284eb153daa8a1471e8ca7fe893209a45dbb031");
const Uint256 kG2 = Uint256::from_hex(
    "e4437ed6010e88286f547fa90abfe4c4221208ac9df506c61571b4ae8ac47f71");

// round(k * g / 2^384) for k < n: k * g < n * 2^256, so the rounded
// quotient stays below 2^128.
Uint256 mul_shift_384(const Uint256& k, const Uint256& g) {
  const Uint512 m = mul_wide(k, g);
  const u128 q = ((static_cast<u128>(m.limb[7]) << 64) | m.limb[6]) + (m.limb[5] >> 63);
  return Uint256::from_limbs(static_cast<u64>(q), static_cast<u64>(q >> 64), 0, 0);
}

// A wNAF of width 5 has at most one more digit than the 128-bit value.
constexpr std::size_t kWnafDigits = 129;
using Wnaf = std::array<std::int8_t, kWnafDigits>;

// The width-5 NAF of the GLV half h mod n, whose magnitude |h| is h or n - h
// and below 2^128: digits[i] is zero or odd in [-15, 15], a nonzero digit is
// followed by at least four zeros, and sum digits[i] * 2^i == h (mod n).
// Returns the index past the top nonzero digit.
std::size_t wnaf5(const Uint256& h, Wnaf& digits) {
  const bool negative = (h.limb[2] | h.limb[3]) != 0;
  Uint256 v = h;
  if (negative) sub_with_borrow(kN, h, v);
  digits.fill(0);
  std::size_t len = 0;
  unsigned carry = 0;  // 1 when the digits so far exceed v mod 2^bit by 2^bit
  for (std::size_t bit = 0; bit < kWnafDigits;) {
    if (v.bit(static_cast<unsigned>(bit)) == carry) {
      ++bit;  // bit of v + carry * 2^bit is zero; the carry moves up
      continue;
    }
    // The next five bits of v + carry * 2^bit, an odd value below 32.
    const std::size_t limb = bit / 64, shift = bit % 64;
    u64 window = v.limb[limb] >> shift;
    if (shift > 59) window |= v.limb[limb + 1] << (64 - shift);
    const unsigned word = static_cast<unsigned>(window & 31) + carry;
    carry = word >> 4;
    const int d = static_cast<int>(word) - static_cast<int>(carry << 5);
    digits[bit] = static_cast<std::int8_t>(negative ? -d : d);
    len = bit + 1;
    bit += 5;
  }
  return len;
}

// One term's share of the doubling chain: the odd multiples (2i + 1) * P
// for the k1 stream, the same with X scaled by beta, (2i + 1) * lambda * P,
// for the k2 stream, and the two digit streams.
struct GlvTerm {
  std::array<Jac, 8> odd;
  std::array<Jac, 8> odd_lambda;
  Wnaf k1;
  Wnaf k2;
};

// acc + d * P for a wNAF digit d, where odd[i] = (2i + 1) * P; a negative
// digit negates Y.
Jac add_digit(const Jac& acc, const std::array<Jac, 8>& odd, int d) {
  if (d == 0) return acc;
  const Jac& q = odd[static_cast<std::size_t>(d < 0 ? -d : d) / 2];
  if (d > 0) return jac_add(acc, q);
  return jac_add(acc, {q.x, sub_p(Uint256(0), q.y), q.z, q.infinity});
}

// The sum of scalar_mul_sum, still in Jacobian coordinates.
Jac jac_mul_sum(std::span<const std::pair<Uint256, Point>> terms) {
  Uint256 g_sum;  // the scalars of the terms on G, mod n
  std::vector<GlvTerm> glv;
  glv.reserve(terms.size());
  std::size_t chain = 0;  // the longest digit stream sets the doublings
  for (const auto& [scalar, p] : terms) {
    const Uint256 k = reduce_once(scalar, 0, kNc);  // 2^256 < 2n
    if (p.infinity || k.is_zero()) continue;
    if (p == generator()) {
      g_sum = scalar_add(g_sum, k);
      continue;
    }
    GlvTerm& t = glv.emplace_back();
    t.odd[0] = to_jac(p);
    const Jac twice_p = jac_double(t.odd[0]);
    for (std::size_t i = 1; i < t.odd.size(); ++i) t.odd[i] = jac_add(t.odd[i - 1], twice_p);
    for (std::size_t i = 0; i < t.odd.size(); ++i) {
      t.odd_lambda[i] = {fe_mul(t.odd[i].x, kBeta), t.odd[i].y, t.odd[i].z, false};
    }
    const Uint256 k2 = scalar_add(scalar_mul_mod_n(mul_shift_384(k, kG1), kMinusB1),
                                  scalar_mul_mod_n(mul_shift_384(k, kG2), kMinusB2));
    const Uint256 k1 = scalar_add(k, scalar_mul_mod_n(k2, kMinusLambda));
    chain = std::max({chain, wnaf5(k1, t.k1), wnaf5(k2, t.k2)});
  }
  Jac acc;
  for (std::size_t i = chain; i-- > 0;) {
    acc = jac_double(acc);
    for (const GlvTerm& t : glv) {
      acc = add_digit(acc, t.odd, t.k1[i]);
      acc = add_digit(acc, t.odd_lambda, t.k2[i]);
    }
  }
  return comb_add(acc, g_sum, g_comb());
}

}  // namespace

Point point_add(const Point& a, const Point& b) {
  return to_affine(jac_add_affine(to_jac(a), b));
}

Point point_double(const Point& a) { return to_affine(jac_double(to_jac(a))); }

Point scalar_mul_sum(std::span<const std::pair<Uint256, Point>> terms) {
  return to_affine(jac_mul_sum(terms));
}

bool scalar_mul_sum_equals(std::span<const std::pair<Uint256, Point>> terms, const Point& r) {
  return jac_equals(jac_mul_sum(terms), r);
}

Point scalar_mul(const Uint256& k, const Point& p) {
  const std::pair<Uint256, Point> term{k, p};
  return scalar_mul_sum({&term, 1});
}

Comb::Comb(const Point& p) {
  if (p.infinity) throw std::invalid_argument("Comb: the identity has no comb");
  // Every entry in Jacobian coordinates first: row i is base, 2 * base, ...,
  // 15 * base for base = 16^i * P, and the next row's base is 15 * base +
  // base. No entry is the identity: j * 16^i < n and n is prime.
  constexpr std::size_t kEntries = kRows * kDigits;
  std::vector<Jac> entries(kEntries);
  Jac base = to_jac(p);
  for (std::size_t i = 0; i < kRows; ++i) {
    Jac* row = &entries[i * kDigits];
    row[0] = base;
    row[1] = jac_double(base);
    for (std::size_t j = 2; j < kDigits; ++j) row[j] = jac_add(row[j - 1], base);
    base = jac_add(row[kDigits - 1], base);
  }
  // One batch inversion (Montgomery's trick): with prefix[k] = Z_0 * ... *
  // Z_k and inv = 1 / prefix[k], 1 / Z_k is inv * prefix[k - 1], and inv *
  // Z_k is the next inv down.
  std::vector<Uint256> prefix(kEntries);
  Uint256 product(1);
  for (std::size_t k = 0; k < kEntries; ++k) prefix[k] = product = fe_mul(product, entries[k].z);
  Uint256 inv = fe_inv(product);
  for (std::size_t k = kEntries; k-- > 0;) {
    const Uint256 zi = k == 0 ? inv : fe_mul(inv, prefix[k - 1]);
    inv = fe_mul(inv, entries[k].z);
    const Uint256 zi2 = fe_sqr(zi);
    rows_[k / kDigits][k % kDigits] = {fe_mul(entries[k].x, zi2),
                                       fe_mul(entries[k].y, fe_mul(zi2, zi)), false};
  }
}

Point scalar_mul_base(const Uint256& k) { return to_affine(comb_add({}, k, g_comb())); }

bool comb_sum_equals(const Uint256& a, const Uint256& b, const Comb& p_comb, const Point& r) {
  return jac_equals(comb_add(comb_add({}, a, g_comb()), b, p_comb), r);
}

Point point_negate(const Point& a) {
  if (a.infinity) return a;
  return {a.x, sub_p(Uint256(0), a.y), false};
}

bool on_curve(const Point& p) {
  if (p.infinity) return true;
  if (p.x >= kP || p.y >= kP) return false;
  const Uint256 lhs = fe_sqr(p.y);
  const Uint256 rhs = add_p(fe_mul(fe_sqr(p.x), p.x), Uint256(7));
  return lhs == rhs;
}

Bytes point_encode(const Point& p) {
  if (p.infinity) return Bytes{0x00};
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  append(out, p.x.to_bytes_be());
  append(out, p.y.to_bytes_be());
  return out;
}

Point point_decode(BytesView b) {
  if (b.size() == 1 && b[0] == 0x00) return {};
  if (b.size() != 65 || b[0] != 0x04) {
    throw std::invalid_argument("point_decode: malformed encoding");
  }
  Point p{Uint256::from_bytes_be(b.subspan(1, 32)), Uint256::from_bytes_be(b.subspan(33, 32)),
          false};
  if (!on_curve(p)) throw std::invalid_argument("point_decode: not on curve");
  return p;
}

}  // namespace rockfs::crypto
