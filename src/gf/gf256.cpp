#include "gf/gf256.h"

#include <array>
#include <stdexcept>

#include "gf/kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace rockfs::gf {

namespace {

struct Tables {
  std::array<std::uint8_t, 512> exp{};  // doubled to avoid a mod in mul
  std::array<std::uint8_t, 256> log{};
};

const Tables& tables() {
  static const Tables t = [] {
    Tables out;
    // Generator 0x02 is primitive for 0x11D.
    unsigned x = 1;
    for (unsigned i = 0; i < 255; ++i) {
      out.exp[i] = static_cast<std::uint8_t>(x);
      out.log[x] = static_cast<std::uint8_t>(i);
      x <<= 1;
      if (x & 0x100) x ^= 0x11D;
    }
    for (unsigned i = 255; i < 512; ++i) out.exp[i] = out.exp[i - 255];
    return out;
  }();
  return t;
}

}  // namespace

std::uint8_t mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  const auto& t = tables();
  return t.exp[static_cast<std::size_t>(t.log[a]) + t.log[b]];
}

std::uint8_t div(std::uint8_t a, std::uint8_t b) {
  if (b == 0) throw std::domain_error("gf256: division by zero");
  if (a == 0) return 0;
  const auto& t = tables();
  return t.exp[static_cast<std::size_t>(t.log[a]) + 255 - t.log[b]];
}

std::uint8_t inv(std::uint8_t a) {
  if (a == 0) throw std::domain_error("gf256: zero has no inverse");
  const auto& t = tables();
  return t.exp[255 - t.log[a]];
}

std::uint8_t pow(std::uint8_t a, unsigned e) {
  if (e == 0) return 1;
  if (a == 0) return 0;
  const auto& t = tables();
  const unsigned idx = (static_cast<unsigned>(t.log[a]) * e) % 255;
  return t.exp[idx];
}

std::uint8_t poly_eval(BytesView coeffs, std::uint8_t x) {
  // Horner's rule from the highest degree down.
  std::uint8_t acc = 0;
  for (std::size_t i = coeffs.size(); i > 0; --i) {
    acc = static_cast<std::uint8_t>(mul(acc, x) ^ coeffs[i - 1]);
  }
  return acc;
}

namespace detail {

namespace {

// Split-nibble product tables (Plank, Greenan and Miller, "Screaming Fast
// Galois Field Arithmetic Using Intel SIMD Instructions", FAST '13):
// c·x = lo[c][x & 15] ^ hi[c][x >> 4], so one 16-entry table pair per
// coefficient serves both a pshufb lane lookup and the scalar loop.
struct NibbleTables {
  alignas(16) std::uint8_t lo[256][16];
  alignas(16) std::uint8_t hi[256][16];
};

const NibbleTables& nibble_tables() {
  static const NibbleTables t = [] {
    NibbleTables out{};
    for (unsigned c = 0; c < 256; ++c) {
      for (unsigned x = 0; x < 16; ++x) {
        out.lo[c][x] = mul(static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(x));
        out.hi[c][x] = mul(static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(x << 4));
      }
    }
    return out;
  }();
  return t;
}

#if defined(__x86_64__) || defined(__i386__)
__attribute__((target("ssse3"))) void mul_add_region_ssse3(std::uint8_t c, const Byte* in,
                                                           Byte* out, std::size_t n) {
  const NibbleTables& t = nibble_tables();
  const __m128i lo = _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo[c]));
  const __m128i hi = _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi[c]));
  const __m128i nibble = _mm_set1_epi8(0x0f);
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + i));
    const __m128i product =
        _mm_xor_si128(_mm_shuffle_epi8(lo, _mm_and_si128(x, nibble)),
                      _mm_shuffle_epi8(hi, _mm_and_si128(_mm_srli_epi64(x, 4), nibble)));
    __m128i* dst = reinterpret_cast<__m128i*>(out + i);
    _mm_storeu_si128(dst, _mm_xor_si128(_mm_loadu_si128(dst), product));
  }
  mul_add_region_portable(c, in + i, out + i, n - i);
}
#endif

}  // namespace

void mul_add_region_portable(std::uint8_t c, const Byte* in, Byte* out, std::size_t n) {
  const NibbleTables& t = nibble_tables();
  const std::uint8_t* lo = t.lo[c];
  const std::uint8_t* hi = t.hi[c];
  for (std::size_t i = 0; i < n; ++i) out[i] ^= lo[in[i] & 0x0f] ^ hi[in[i] >> 4];
}

RegionKernel ssse3_region_kernel() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("ssse3")) return &mul_add_region_ssse3;
#endif
  return nullptr;
}

}  // namespace detail

void mul_add_region(std::uint8_t c, BytesView in, std::span<Byte> out) {
  if (in.size() != out.size()) throw std::invalid_argument("mul_add_region: size mismatch");
  if (c == 0 || in.empty()) return;
  static const detail::RegionKernel kernel = [] {
    const detail::RegionKernel simd = detail::ssse3_region_kernel();
    return simd != nullptr ? simd : &detail::mul_add_region_portable;
  }();
  kernel(c, in.data(), out.data(), in.size());
}

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0) {
  if (rows == 0 || cols == 0) throw std::invalid_argument("Matrix: empty dimensions");
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

Matrix Matrix::vandermonde(std::size_t rows, std::size_t cols) {
  if (rows > 256) throw std::invalid_argument("vandermonde: more rows than field points");
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      m.at(r, c) = pow(static_cast<std::uint8_t>(r), static_cast<unsigned>(c));
    }
  }
  return m;
}

Matrix Matrix::multiply(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) throw std::invalid_argument("Matrix::multiply: shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const std::uint8_t a = at(r, k);
      if (a == 0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out.at(r, c) ^= mul(a, rhs.at(k, c));
      }
    }
  }
  return out;
}

Matrix Matrix::select_rows(const std::vector<std::size_t>& rows) const {
  if (rows.empty()) throw std::invalid_argument("select_rows: empty selection");
  Matrix out(rows.size(), cols_);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= rows_) throw std::out_of_range("select_rows: bad row index");
    for (std::size_t c = 0; c < cols_; ++c) out.at(i, c) = at(rows[i], c);
  }
  return out;
}

Matrix Matrix::inverse() const {
  if (rows_ != cols_) throw std::invalid_argument("Matrix::inverse: not square");
  const std::size_t n = rows_;
  Matrix work = *this;
  Matrix result = identity(n);
  for (std::size_t col = 0; col < n; ++col) {
    // Find a pivot.
    std::size_t pivot = col;
    while (pivot < n && work.at(pivot, col) == 0) ++pivot;
    if (pivot == n) throw std::domain_error("Matrix::inverse: singular");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(work.at(pivot, c), work.at(col, c));
        std::swap(result.at(pivot, c), result.at(col, c));
      }
    }
    // Normalize the pivot row.
    const std::uint8_t piv_inv = inv(work.at(col, col));
    for (std::size_t c = 0; c < n; ++c) {
      work.at(col, c) = mul(work.at(col, c), piv_inv);
      result.at(col, c) = mul(result.at(col, c), piv_inv);
    }
    // Eliminate the column everywhere else.
    for (std::size_t r = 0; r < n; ++r) {
      if (r == col) continue;
      const std::uint8_t factor = work.at(r, col);
      if (factor == 0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        work.at(r, c) ^= mul(factor, work.at(col, c));
        result.at(r, c) ^= mul(factor, result.at(col, c));
      }
    }
  }
  return result;
}

Bytes Matrix::apply(BytesView vec) const {
  if (vec.size() != cols_) throw std::invalid_argument("Matrix::apply: size mismatch");
  Bytes out(rows_, 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::uint8_t acc = 0;
    for (std::size_t c = 0; c < cols_; ++c) acc ^= mul(at(r, c), vec[c]);
    out[r] = acc;
  }
  return out;
}

}  // namespace rockfs::gf
