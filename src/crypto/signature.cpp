#include "crypto/signature.h"

#include <stdexcept>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace rockfs::crypto {

namespace {

// Challenge scalar e = H(R || P || m) mod n.
Uint256 challenge(const Point& r, const Point& pub, BytesView message) {
  const Bytes input = concat({point_encode(r), point_encode(pub), message});
  return scalar_from_bytes(sha256(input));
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
    const Point r = scalar_mul_base(k);
    const Uint256 e = challenge(r, key.public_key, message);
    const Uint256 s = scalar_add(k, scalar_mul_mod_n(e, key.private_key));
    Bytes sig = point_encode(r);
    append(sig, s.to_bytes_be());
    return sig;
  }
}

bool verify(const Point& public_key, BytesView message, BytesView signature) {
  // The identity is no key: s*G == R + e*O holds for R = s*G whatever the
  // message. An off-curve point is no key either.
  if (public_key.infinity || !on_curve(public_key)) return false;
  if (signature.size() != kSignatureSize) return false;
  Point r;
  try {
    r = point_decode(signature.subspan(0, 65));
  } catch (const std::invalid_argument&) {
    return false;
  }
  if (r.infinity) return false;
  const Uint256 s = Uint256::from_bytes_be(signature.subspan(65, 32));
  if (s >= curve_n()) return false;
  const Uint256 e = challenge(r, public_key, message);
  // s*G == R + e*P, checked as s*G + (n - e)*P == R with one affine conversion.
  const std::pair<Uint256, Point> terms[] = {{s, generator()},
                                             {scalar_sub(Uint256(0), e), public_key}};
  return scalar_mul_sum(terms) == r;
}

bool verify(BytesView public_key_bytes, BytesView message, BytesView signature) {
  try {
    return verify(point_decode(public_key_bytes), message, signature);
  } catch (const std::invalid_argument&) {
    return false;
  }
}

}  // namespace rockfs::crypto
