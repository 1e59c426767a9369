// Fixed-width 256/512-bit unsigned integers with modular arithmetic.
// Backbone of the secp256k1 group (crypto/secp256k1.*).
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"

namespace rockfs::crypto {

struct Uint512;

/// Little-endian limbed 256-bit unsigned integer.
struct Uint256 {
  std::array<std::uint64_t, 4> limb{0, 0, 0, 0};

  constexpr Uint256() = default;
  constexpr explicit Uint256(std::uint64_t v) : limb{v, 0, 0, 0} {}
  static Uint256 from_limbs(std::uint64_t l0, std::uint64_t l1, std::uint64_t l2,
                            std::uint64_t l3) {
    Uint256 r;
    r.limb = {l0, l1, l2, l3};
    return r;
  }

  /// Parses exactly 32 big-endian bytes.
  static Uint256 from_bytes_be(BytesView b);
  /// Parses a (<=64 digit) hex string.
  static Uint256 from_hex(std::string_view hex);
  Bytes to_bytes_be() const;
  std::string to_hex() const;

  bool is_zero() const noexcept;
  bool bit(unsigned i) const noexcept;  // i in [0,256)
  unsigned bit_length() const noexcept;

  bool operator==(const Uint256&) const = default;
};

int cmp(const Uint256& a, const Uint256& b) noexcept;
inline bool operator<(const Uint256& a, const Uint256& b) noexcept { return cmp(a, b) < 0; }
inline bool operator>=(const Uint256& a, const Uint256& b) noexcept { return cmp(a, b) >= 0; }

/// r = a + b, returns carry-out.
std::uint64_t add_with_carry(const Uint256& a, const Uint256& b, Uint256& r) noexcept;
/// r = a - b, returns borrow-out (1 if a < b).
std::uint64_t sub_with_borrow(const Uint256& a, const Uint256& b, Uint256& r) noexcept;
Uint256 shift_left1(const Uint256& a) noexcept;

/// Full 512-bit product.
Uint512 mul_wide(const Uint256& a, const Uint256& b) noexcept;

/// Little-endian limbed 512-bit unsigned integer (product / dividend type).
struct Uint512 {
  std::array<std::uint64_t, 8> limb{};
  bool bit(unsigned i) const noexcept;
  unsigned bit_length() const noexcept;
  static Uint512 from_uint256(const Uint256& v) noexcept;
};

/// a mod m via bitwise long division; m must be nonzero.
Uint256 mod(const Uint512& a, const Uint256& m);

// ---- Generic modular arithmetic (any modulus) ----
// add_mod/sub_mod are the secp256k1 scalar sums and the reference for the
// field sums fe_add/fe_sub; mod, mul_mod, pow_mod and inv_mod_prime are the
// reference the secp256k1 tests hold the fe_*/scalar_* products and
// inverses to.

Uint256 add_mod(const Uint256& a, const Uint256& b, const Uint256& m);
Uint256 sub_mod(const Uint256& a, const Uint256& b, const Uint256& m);
Uint256 mul_mod(const Uint256& a, const Uint256& b, const Uint256& m);
Uint256 pow_mod(const Uint256& base, const Uint256& exp, const Uint256& m);
/// Modular inverse for prime m (Fermat's little theorem). a must be nonzero mod m.
Uint256 inv_mod_prime(const Uint256& a, const Uint256& m);

}  // namespace rockfs::crypto
