// Arithmetic in GF(2^8) modulo x^8+x^4+x^3+x^2+1 (0x11D, the conventional
// Reed-Solomon polynomial), a region multiply-accumulate for bulk coding,
// plus dense matrices with Gauss-Jordan inversion.
// Shared by the erasure coder (src/erasure) and byte-wise Shamir secret
// sharing (src/secretshare).
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace rockfs::gf {

/// Field addition/subtraction (self-inverse).
inline std::uint8_t add(std::uint8_t a, std::uint8_t b) { return a ^ b; }

/// Field multiplication via log/exp tables.
std::uint8_t mul(std::uint8_t a, std::uint8_t b);

/// Field division; throws std::domain_error on division by zero.
std::uint8_t div(std::uint8_t a, std::uint8_t b);

/// Multiplicative inverse; throws std::domain_error for zero.
std::uint8_t inv(std::uint8_t a);

/// a^e with a in the field and integer exponent e >= 0.
std::uint8_t pow(std::uint8_t a, unsigned e);

/// Evaluates a polynomial (coefficients low-degree first) at x.
std::uint8_t poly_eval(BytesView coeffs, std::uint8_t x);

/// Region multiply-accumulate: out[i] ^= c·in[i]. Sizes must match (throws
/// std::invalid_argument otherwise). Split-nibble tables, through SSSE3
/// pshufb when the CPU has it; the result does not depend on the path.
void mul_add_region(std::uint8_t c, BytesView in, std::span<Byte> out);

/// Dense row-major matrix over GF(2^8).
class Matrix {
 public:
  Matrix(std::size_t rows, std::size_t cols);

  static Matrix identity(std::size_t n);
  /// Rows i in [0,rows): [ (i)^0, (i)^1, ... ] — distinct evaluation points.
  static Matrix vandermonde(std::size_t rows, std::size_t cols);

  std::uint8_t& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  std::uint8_t at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  Matrix multiply(const Matrix& rhs) const;
  /// Returns a new matrix made of the selected rows.
  Matrix select_rows(const std::vector<std::size_t>& rows) const;
  /// Gauss-Jordan inverse; throws std::domain_error if singular.
  Matrix inverse() const;

  /// Applies the matrix to a column vector of bytes (size == cols).
  Bytes apply(BytesView vec) const;

  bool operator==(const Matrix&) const = default;

 private:
  std::size_t rows_;
  std::size_t cols_;
  Bytes data_;
};

}  // namespace rockfs::gf
