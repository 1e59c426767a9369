#include "secretshare/shamir.h"

#include <stdexcept>
#include <string>
#include <utility>

#include "gf/gf256.h"

namespace rockfs::secretshare {

Bytes ShamirShare::serialize() const {
  Bytes out;
  out.reserve(1 + y.size());
  out.push_back(x);
  append(out, y);
  return out;
}

Result<ShamirShare> ShamirShare::deserialize(BytesView b) {
  if (b.empty()) return Error{ErrorCode::kCorrupted, "shamir share: empty"};
  ShamirShare s;
  s.x = b[0];
  if (s.x == 0) return Error{ErrorCode::kCorrupted, "shamir share: x must be nonzero"};
  s.y.assign(b.begin() + 1, b.end());
  return s;
}

std::vector<ShamirShare> shamir_share(BytesView secret, std::size_t k, std::size_t n,
                                      crypto::Drbg& drbg) {
  if (k == 0 || k > n || n > 255) {
    throw std::invalid_argument("shamir_share: need 1 <= k <= n <= 255");
  }
  std::vector<ShamirShare> shares(n);
  for (std::size_t i = 0; i < n; ++i) {
    shares[i].x = static_cast<std::uint8_t>(i + 1);
    shares[i].y.assign(secret.size(), 0);
  }
  // Independent random degree-(k-1) polynomial per secret byte.
  for (std::size_t pos = 0; pos < secret.size(); ++pos) {
    Bytes coeffs = drbg.generate(k);
    coeffs[0] = secret[pos];
    for (std::size_t i = 0; i < n; ++i) {
      shares[i].y[pos] = gf::poly_eval(coeffs, shares[i].x);
    }
  }
  return shares;
}

namespace {

// Evaluates at `x` the degree-(k-1) polynomial through the first k shares
// with distinct nonzero x and equal length, byte-wise by Lagrange
// interpolation: l_i = prod_{j != i} (x - x_j) / (x_i - x_j), where in
// GF(2^8) subtraction is xor. A share already at `x` is returned as is.
// Errors name the public entry point `who`.
Result<ShamirShare> interpolate_at(const std::vector<ShamirShare>& shares, std::size_t k,
                                   std::uint8_t x, const std::string& who) {
  if (k == 0) return Error{ErrorCode::kInvalidArgument, who + ": k == 0"};
  std::vector<const ShamirShare*> chosen;
  bool seen[256] = {};
  for (const auto& s : shares) {
    if (s.x == 0 || seen[s.x]) continue;
    if (!chosen.empty() && s.y.size() != chosen.front()->y.size()) {
      return Error{ErrorCode::kInvalidArgument, who + ": share length mismatch"};
    }
    if (s.x == x) return s;
    seen[s.x] = true;
    chosen.push_back(&s);
    if (chosen.size() == k) break;
  }
  if (chosen.size() < k) {
    return Error{ErrorCode::kInvalidArgument, who + ": fewer than k distinct shares"};
  }

  std::vector<std::uint8_t> lagrange(k);
  for (std::size_t i = 0; i < k; ++i) {
    std::uint8_t num = 1, den = 1;
    for (std::size_t j = 0; j < k; ++j) {
      if (i == j) continue;
      num = gf::mul(num, static_cast<std::uint8_t>(x ^ chosen[j]->x));
      den = gf::mul(den, static_cast<std::uint8_t>(chosen[i]->x ^ chosen[j]->x));
    }
    lagrange[i] = gf::div(num, den);
  }

  ShamirShare out;
  out.x = x;
  out.y.assign(chosen.front()->y.size(), 0);
  for (std::size_t pos = 0; pos < out.y.size(); ++pos) {
    std::uint8_t acc = 0;
    for (std::size_t i = 0; i < k; ++i) acc ^= gf::mul(lagrange[i], chosen[i]->y[pos]);
    out.y[pos] = acc;
  }
  return out;
}

}  // namespace

Result<Bytes> shamir_combine(const std::vector<ShamirShare>& shares, std::size_t k) {
  auto secret = interpolate_at(shares, k, 0, "shamir_combine");
  if (!secret.ok()) return Error{secret.error()};
  return std::move(secret->y);
}

Result<ShamirShare> shamir_interpolate_share(const std::vector<ShamirShare>& shares,
                                             std::size_t k, std::uint8_t x_target) {
  if (x_target == 0) {
    return Error{ErrorCode::kInvalidArgument, "interpolate: x=0 is the secret"};
  }
  return interpolate_at(shares, k, x_target, "interpolate");
}

}  // namespace rockfs::secretshare
