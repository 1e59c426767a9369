#include "crypto/signature.h"

#include <optional>
#include <stdexcept>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace rockfs::crypto {

namespace {

// Challenge scalar e = H(R || P || m) mod n, over the points' encodings.
Uint256 challenge(BytesView r_encoded, BytesView pub_encoded, BytesView message) {
  Sha256 h;
  h.update(r_encoded);
  h.update(pub_encoded);
  h.update(message);
  return scalar_from_bytes(h.finish());
}

// What a check needs of a well-formed signature (97 bytes, R an encoded
// curve point other than the identity, s < n): R, s and n - e.
struct Parsed {
  Point r;
  Uint256 s;
  Uint256 minus_e;
};

std::optional<Parsed> parse(BytesView pub_encoded, BytesView message, BytesView signature) {
  if (signature.size() != kSignatureSize) return std::nullopt;
  const BytesView r_encoded = signature.subspan(0, 65);
  Parsed p;
  try {
    p.r = point_decode(r_encoded);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  if (p.r.infinity) return std::nullopt;
  p.s = Uint256::from_bytes_be(signature.subspan(65, 32));
  if (p.s >= curve_n()) return std::nullopt;
  p.minus_e = scalar_sub(Uint256(0), challenge(r_encoded, pub_encoded, message));
  return p;
}

}  // namespace

KeyPair generate_keypair(Drbg& drbg) {
  for (;;) {
    const Uint256 x = scalar_from_bytes(drbg.generate(32));
    if (x.is_zero()) continue;
    return {x, scalar_mul_base(x)};
  }
}

KeyPair keypair_from_private(BytesView private_be32) {
  const Uint256 x = scalar_from_bytes(private_be32);
  if (x.is_zero()) throw std::invalid_argument("keypair_from_private: zero scalar");
  return {x, scalar_mul_base(x)};
}

Bytes sign(const KeyPair& key, BytesView message) {
  // Deterministic nonce: k = HMAC(priv, msg || counter) mod n, retry on 0.
  const Bytes priv = key.private_key.to_bytes_be();
  for (std::uint32_t counter = 0;; ++counter) {
    Bytes nonce_input(message.begin(), message.end());
    append_u32(nonce_input, counter);
    const Uint256 k = scalar_from_bytes(hmac_sha256(priv, nonce_input));
    if (k.is_zero()) continue;
    Bytes sig = point_encode(scalar_mul_base(k));
    const Uint256 e = challenge(sig, key.public_bytes(), message);
    const Uint256 s = scalar_add(k, scalar_mul_mod_n(e, key.private_key));
    append(sig, s.to_bytes_be());
    return sig;
  }
}

bool verify(const Point& public_key, BytesView message, BytesView signature) {
  // The identity is no key: s*G == R + e*O holds for R = s*G whatever the
  // message. An off-curve point is no key either.
  if (public_key.infinity || !on_curve(public_key)) return false;
  const auto parsed = parse(point_encode(public_key), message, signature);
  if (!parsed) return false;
  // s*G == R + e*P, checked as s*G + (n - e)*P == R in Jacobian coordinates.
  const std::pair<Uint256, Point> terms[] = {{parsed->s, generator()},
                                             {parsed->minus_e, public_key}};
  return scalar_mul_sum_equals(terms, parsed->r);
}

bool verify(BytesView public_key_bytes, BytesView message, BytesView signature) {
  try {
    return verify(point_decode(public_key_bytes), message, signature);
  } catch (const std::invalid_argument&) {
    return false;
  }
}

PreparedKey::PreparedKey(const Point& public_key)
    : point_(public_key), encoded_(point_encode(public_key)) {
  if (public_key.infinity || !on_curve(public_key)) {
    throw std::invalid_argument("PreparedKey: the identity or an off-curve point");
  }
}

const Comb& PreparedKey::comb() const {
  std::call_once(built_, [this] { comb_ = std::make_unique<const Comb>(point_); });
  return *comb_;
}

bool PreparedKey::verify(BytesView message, BytesView signature) const {
  const auto parsed = parse(encoded_, message, signature);
  return parsed && comb_sum_equals(parsed->s, parsed->minus_e, comb(), parsed->r);
}

}  // namespace rockfs::crypto
