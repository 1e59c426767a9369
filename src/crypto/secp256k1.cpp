#include "crypto/secp256k1.h"

#include <array>
#include <memory>
#include <stdexcept>

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
const Uint256 kCWide(kC);
const Uint256 kNc = Uint256::from_hex("14551231950b75fc4402da1732fc9bebf");

// For m = 2^256 - c: the value carry * 2^256 + a, minus m once if it is at
// least m. Exact whenever that value is below 2m. a + c wraps past 2^256
// exactly when a >= m, and then the wrapped sum is a - m.
inline Uint256 reduce_once(const Uint256& a, u64 carry, const Uint256& c) {
  Uint256 t;
  const u64 wrap = add_with_carry(a, c, t);
  return (carry | wrap) != 0 ? t : a;
}

}  // namespace

const Uint256& curve_p() { return kP; }
const Uint256& curve_n() { return kN; }

Uint256 fe_add(const Uint256& a, const Uint256& b) { return add_mod(a, b, kP); }
Uint256 fe_sub(const Uint256& a, const Uint256& b) { return sub_mod(a, b, kP); }

Uint256 fe_mul(const Uint256& a, const Uint256& b) {
  // The 512-bit product by columns, summed in a three-word accumulator and
  // written straight-line, so each limb of t is stored once. mul_wide's
  // rows read back every partial limb instead: calling it cost ~9% of
  // rockfs_bench small-meta ops_per_s (Release, GCC 12, 4-core Xeon), and
  // a looped column form was no faster than mul_wide.
  const auto& x = a.limb;
  const auto& y = b.limb;
  std::array<u64, 8> t;
  u64 c0 = 0, c1 = 0, c2 = 0;
  const auto muladd = [&](u64 xi, u64 yj) {
    const u128 m = static_cast<u128>(xi) * yj;
    const u64 lo = static_cast<u64>(m);
    const u64 hi = static_cast<u64>(m >> 64) + ((c0 += lo) < lo);  // hi < 2^64 - 1
    c2 += (c1 += hi) < hi;
  };
  const auto column = [&](std::size_t k) {
    t[k] = c0;
    c0 = c1;
    c1 = c2;
    c2 = 0;
  };
  muladd(x[0], y[0]);
  column(0);
  muladd(x[0], y[1]);
  muladd(x[1], y[0]);
  column(1);
  muladd(x[0], y[2]);
  muladd(x[1], y[1]);
  muladd(x[2], y[0]);
  column(2);
  muladd(x[0], y[3]);
  muladd(x[1], y[2]);
  muladd(x[2], y[1]);
  muladd(x[3], y[0]);
  column(3);
  muladd(x[1], y[3]);
  muladd(x[2], y[2]);
  muladd(x[3], y[1]);
  column(4);
  muladd(x[2], y[3]);
  muladd(x[3], y[2]);
  column(5);
  muladd(x[3], y[3]);
  column(6);
  t[7] = c0;
  // First fold, hi * 2^256 + lo == hi * kC + lo: one carried pass leaves a
  // 256-bit value plus a top word below 2^34.
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

Uint256 fe_inv(const Uint256& a) {
  if (a.is_zero()) throw std::invalid_argument("fe_inv: zero");
  // Fermat, a^(p-2), by the standard addition chain: p - 2 is a run of 223
  // ones, a zero, 22 ones, then 0000101101. x_k below is a^(2^k - 1).
  const auto sqr_n = [](Uint256 x, int times) {
    for (int i = 0; i < times; ++i) x = fe_mul(x, x);
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

Uint256 twice(const Uint256& a) { return fe_add(a, a); }

Jac to_jac(const Point& p) {
  if (p.infinity) return {};
  return {p.x, p.y, Uint256(1), false};
}

Point to_affine(const Jac& j) {
  if (j.infinity) return {};
  const Uint256 zi = fe_inv(j.z);
  const Uint256 zi2 = fe_mul(zi, zi);
  const Uint256 zi3 = fe_mul(zi2, zi);
  return {fe_mul(j.x, zi2), fe_mul(j.y, zi3), false};
}

// dbl-2009-l for a = 0 (2 multiplications, 5 squarings); the constants 2,
// 3 and 8 are additions.
Jac jac_double(const Jac& p) {
  if (p.infinity || p.y.is_zero()) return {};
  const Uint256 a = fe_mul(p.x, p.x);
  const Uint256 b = fe_mul(p.y, p.y);
  const Uint256 c = fe_mul(b, b);
  const Uint256 xb = fe_add(p.x, b);
  const Uint256 d = twice(fe_sub(fe_sub(fe_mul(xb, xb), a), c));
  const Uint256 e = fe_add(twice(a), a);
  const Uint256 x3 = fe_sub(fe_mul(e, e), twice(d));
  const Uint256 y3 = fe_sub(fe_mul(e, fe_sub(d, x3)), twice(twice(twice(c))));
  return {x3, y3, twice(fe_mul(p.y, p.z)), false};
}

// The tail both additions share. (u1, s1) and (u2, s2) are P's and Q's
// coordinates over the common denominator and z1z2 = Z1 * Z2. Keeps the
// P == Q (double) and P == -Q (identity) cases.
Jac add_tail(const Jac& p, const Uint256& u1, const Uint256& s1, const Uint256& u2,
             const Uint256& s2, const Uint256& z1z2) {
  const Uint256 h = fe_sub(u2, u1);
  const Uint256 r = fe_sub(s2, s1);
  if (h.is_zero()) {
    if (r.is_zero()) return jac_double(p);
    return {};
  }
  const Uint256 hh = fe_mul(h, h);
  const Uint256 hhh = fe_mul(hh, h);
  const Uint256 v = fe_mul(u1, hh);
  const Uint256 x3 = fe_sub(fe_sub(fe_mul(r, r), hhh), twice(v));
  const Uint256 y3 = fe_sub(fe_mul(r, fe_sub(v, x3)), fe_mul(s1, hhh));
  return {x3, y3, fe_mul(z1z2, h), false};
}

Jac jac_add(const Jac& p, const Jac& q) {
  if (p.infinity) return q;
  if (q.infinity) return p;
  const Uint256 z1z1 = fe_mul(p.z, p.z);
  const Uint256 z2z2 = fe_mul(q.z, q.z);
  return add_tail(p, fe_mul(p.x, z2z2), fe_mul(p.y, fe_mul(z2z2, q.z)), fe_mul(q.x, z1z1),
                  fe_mul(q.y, fe_mul(z1z1, p.z)), fe_mul(p.z, q.z));
}

// Mixed addition: Q is affine (Z2 = 1).
Jac jac_add_affine(const Jac& p, const Point& q) {
  if (p.infinity) return to_jac(q);
  if (q.infinity) return p;
  const Uint256 z1z1 = fe_mul(p.z, p.z);
  return add_tail(p, p.x, p.y, fe_mul(q.x, z1z1), fe_mul(q.y, fe_mul(z1z1, p.z)), p.z);
}

// Nibble i (4 bits, i < 64) of k, counted from the least significant.
unsigned nibble(const Uint256& k, std::size_t i) {
  return static_cast<unsigned>(k.limb[i / 16] >> (4 * (i % 16))) & 0xF;
}

// k*P over a fixed 4-bit window: a table of 1P..15P, then per nibble of k
// from the top four doublings and at most one addition.
Jac window_mul(const Uint256& k, const Point& p) {
  if (p.infinity || k.is_zero()) return {};
  std::array<Jac, 15> table;
  table[0] = to_jac(p);
  for (std::size_t d = 1; d < table.size(); ++d) table[d] = jac_add_affine(table[d - 1], p);
  Jac acc;
  for (std::size_t i = 64; i-- > 0;) {
    for (int s = 0; s < 4; ++s) acc = jac_double(acc);
    const unsigned d = nibble(k, i);
    if (d != 0) acc = jac_add(acc, table[d - 1]);
  }
  return acc;
}

// The comb for G: row i holds j * 16^i * G for j = 1..15, affine. Built once
// per process on first use (function-local statics initialise thread-safely).
using Comb = std::array<std::array<Point, 15>, 64>;

const Comb& comb() {
  static const std::unique_ptr<const Comb> table = [] {
    auto rows = std::make_unique<Comb>();
    Point base = generator();
    for (auto& row : *rows) {
      Jac acc = to_jac(base);
      row[0] = base;
      for (std::size_t j = 1; j < row.size(); ++j) {
        acc = jac_add_affine(acc, base);
        row[j] = to_affine(acc);
      }
      base = to_affine(jac_add_affine(acc, base));
    }
    return rows;
  }();
  return *table;
}

// acc + k*G: one mixed addition per nonzero nibble of k, no doublings.
Jac comb_add(Jac acc, const Uint256& k) {
  const Comb& rows = comb();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const unsigned d = nibble(k, i);
    if (d != 0) acc = jac_add_affine(acc, rows[i][d - 1]);
  }
  return acc;
}

}  // namespace

Point point_add(const Point& a, const Point& b) {
  return to_affine(jac_add_affine(to_jac(a), b));
}

Point point_double(const Point& a) { return to_affine(jac_double(to_jac(a))); }

Point scalar_mul(const Uint256& k, const Point& p) { return to_affine(window_mul(k, p)); }

Point scalar_mul_base(const Uint256& k) { return to_affine(comb_add({}, k)); }

Point scalar_mul_base_add(const Uint256& a, const Uint256& b, const Point& p) {
  return to_affine(comb_add(window_mul(b, p), a));
}

Point point_negate(const Point& a) {
  if (a.infinity) return a;
  return {a.x, fe_sub(Uint256(0), a.y), false};
}

bool on_curve(const Point& p) {
  if (p.infinity) return true;
  if (p.x >= kP || p.y >= kP) return false;
  const Uint256 lhs = fe_mul(p.y, p.y);
  const Uint256 rhs = fe_add(fe_mul(fe_mul(p.x, p.x), p.x), Uint256(7));
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
