// The secp256k1 elliptic-curve group (y^2 = x^3 + 7 over F_p) with Jacobian
// arithmetic. Used for asymmetric keys (Table 1 of the paper), Schnorr
// signatures (crypto/signature.*) and the PVSS scheme (secretshare/pvss.*).
// Not constant-time: this is a research reproduction, not a wallet.
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <utility>

#include "common/bytes.h"
#include "crypto/bigint.h"

namespace rockfs::crypto {

/// The field prime p = 2^256 - 2^32 - 977.
const Uint256& curve_p();
/// The (prime) group order n.
const Uint256& curve_n();

/// Affine point; `infinity` true means the identity element.
struct Point {
  Uint256 x;
  Uint256 y;
  bool infinity = true;

  bool operator==(const Point&) const = default;
};

/// The standard generator G.
const Point& generator();

/// Group law.
Point point_add(const Point& a, const Point& b);
Point point_double(const Point& a);
/// sum k_i * P_i for any 256-bit k_i (k and k mod n give the same point),
/// with one conversion to affine. Terms on G add their scalars mod n and go
/// through the comb of scalar_mul_base. Every other term splits k mod n by
/// the GLV endomorphism into two halves below 2^128, each a width-5 wNAF
/// over a Jacobian table of 1P, 3P, ..., 15P (the lambda half reads it with
/// X scaled by beta); all streams share one chain of at most 129 doublings.
Point scalar_mul_sum(std::span<const std::pair<Uint256, Point>> terms);
/// Whether scalar_mul_sum(terms) == r, with the sum compared to r in
/// Jacobian coordinates (X == x * Z^2, Y == y * Z^3), so no inversion. The
/// terms' points must have coordinates below p, as on_curve() requires.
bool scalar_mul_sum_equals(std::span<const std::pair<Uint256, Point>> terms, const Point& r);
/// k*P: the one-term scalar_mul_sum, so k*G goes through the comb.
Point scalar_mul(const Uint256& k, const Point& p);

/// The comb of a fixed point P: row i holds j * 16^i * P for 1 <= j <= 15
/// (i < 64), affine, about 68 KiB, so k*P is at most 64 mixed additions and
/// no doublings. The constructor computes every entry in Jacobian
/// coordinates and makes all of them affine with one batch inversion. G's
/// comb is one of these, built once per process on first use, thread-safely.
class Comb {
 public:
  static constexpr std::size_t kRows = 64;
  static constexpr unsigned kDigits = 15;

  /// P's comb; throws std::invalid_argument when P is the identity.
  explicit Comb(const Point& p);

  /// j * 16^row * P, for row < kRows and 1 <= j <= kDigits.
  const Point& at(std::size_t row, unsigned j) const { return rows_[row][j - 1]; }

 private:
  std::array<std::array<Point, kDigits>, kRows> rows_;
};

/// k*G through G's comb.
Point scalar_mul_base(const Uint256& k);
/// Whether a*G + b*P == r, where `p_comb` is P's comb: a walks G's comb and
/// b P's (at most 128 mixed additions, no doublings), and the sum is compared
/// to r in Jacobian coordinates, so no inversion either.
bool comb_sum_equals(const Uint256& a, const Uint256& b, const Comb& p_comb, const Point& r);
Point point_negate(const Point& a);

/// Whether the point satisfies the curve equation (identity counts as valid).
bool on_curve(const Point& p);

/// Uncompressed 65-byte encoding: 0x04 || x || y; identity encodes as a single 0x00.
Bytes point_encode(const Point& p);
/// Inverse of point_encode; throws std::invalid_argument on malformed or off-curve input.
Point point_decode(BytesView b);

// Field arithmetic mod p, on p's special form 2^256 - (2^32 + 977): the
// high half of a product, and the carry or borrow of a sum, fold back as
// multiples of 2^32 + 977. Exposed for tests.
/// a + b and a - b mod p; both inputs must be < p (the result then is).
Uint256 fe_add(const Uint256& a, const Uint256& b);
Uint256 fe_sub(const Uint256& a, const Uint256& b);
/// a * b mod p for any 256-bit inputs; the result is < p.
Uint256 fe_mul(const Uint256& a, const Uint256& b);
/// a * a mod p for any 256-bit input (10 limb products, not 16); the result is < p.
Uint256 fe_sqr(const Uint256& a);
/// a^(p-2) by the standard addition chain (255 squarings, 15 multiplications);
/// throws std::invalid_argument for a == 0.
Uint256 fe_inv(const Uint256& a);

/// Scalar arithmetic mod the group order n = 2^256 - c, c < 2^129.
/// scalar_add/scalar_sub inputs must be < n.
Uint256 scalar_add(const Uint256& a, const Uint256& b);
Uint256 scalar_sub(const Uint256& a, const Uint256& b);
/// a * b mod n for any 256-bit inputs (three folds by c, one subtraction).
Uint256 scalar_mul_mod_n(const Uint256& a, const Uint256& b);
/// a^(n-2) mod n; throws std::invalid_argument when a == 0 (mod n).
Uint256 scalar_inv(const Uint256& a);
/// Reduces arbitrary 32 bytes to a scalar in [0, n).
Uint256 scalar_from_bytes(BytesView b32);

}  // namespace rockfs::crypto
