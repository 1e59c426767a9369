// Schnorr signatures over secp256k1 with deterministic (RFC-6979-style)
// nonces. These back Table 1's asymmetric keys: user keys (PU_U, PR_U),
// administrator keys (PU_A, PR_A) and the per-cloud service keys, as well as
// DepSky's signed metadata files.
#pragma once

#include <memory>
#include <mutex>

#include "common/bytes.h"
#include "crypto/drbg.h"
#include "crypto/secp256k1.h"

namespace rockfs::crypto {

struct KeyPair {
  Uint256 private_key;  // scalar in [1, n)
  Point public_key;     // private_key * G

  /// Encoded public key (65 bytes uncompressed).
  Bytes public_bytes() const { return point_encode(public_key); }
};

/// Generates a fresh keypair from the given DRBG.
KeyPair generate_keypair(Drbg& drbg);

/// Rebuilds a keypair from a stored 32-byte private scalar.
KeyPair keypair_from_private(BytesView private_be32);

/// Signature: R (65 bytes uncompressed point) || s (32 bytes), total 97 bytes.
constexpr std::size_t kSignatureSize = 97;

/// Signs a message with a deterministic nonce derived from key and message.
Bytes sign(const KeyPair& key, BytesView message);

/// Verifies a signature against an encoded public key. Never throws on bad
/// input. The one-off check: s*G + (n - e)*P through one GLV multi-scalar sum,
/// compared with R in Jacobian coordinates. For a key checked repeatedly,
/// PreparedKey gives the same verdicts faster.
bool verify(BytesView public_key_bytes, BytesView message, BytesView signature);
bool verify(const Point& public_key, BytesView message, BytesView signature);

/// A public key prepared for repeated checks: its point, its 65-byte
/// encoding and its comb (secp256k1.h, about 68 KiB), which the first check
/// builds, thread-safely, and every later one reuses. A check then walks
/// s*G and (n - e)*P through the two combs with no doublings and compares the
/// sum with R in Jacobian coordinates, so it needs no inversion either.
/// Every verdict equals verify()'s for the same key. Share one instance
/// through PreparedKeyPtr between the clients that check the same signer.
class PreparedKey {
 public:
  /// Throws std::invalid_argument for the identity or an off-curve point,
  /// under which verify() accepts nothing.
  explicit PreparedKey(const Point& public_key);

  const Point& point() const noexcept { return point_; }
  /// point_encode(point()).
  const Bytes& encoded() const noexcept { return encoded_; }
  /// The key's comb, built on the first call.
  const Comb& comb() const;

  /// Same verdict as verify(point(), message, signature).
  bool verify(BytesView message, BytesView signature) const;

 private:
  Point point_;
  Bytes encoded_;
  mutable std::once_flag built_;
  mutable std::unique_ptr<const Comb> comb_;
};

using PreparedKeyPtr = std::shared_ptr<const PreparedKey>;

}  // namespace rockfs::crypto
