#include "crypto/hmac.h"

#include <stdexcept>

#include "crypto/sha256.h"

namespace rockfs::crypto {

Bytes hmac_sha256(BytesView key, BytesView data) {
  Bytes k(key.begin(), key.end());
  if (k.size() > Sha256::kBlockSize) k = Sha256::hash(k);
  k.resize(Sha256::kBlockSize, 0);

  Bytes ipad(Sha256::kBlockSize), opad(Sha256::kBlockSize);
  for (std::size_t i = 0; i < Sha256::kBlockSize; ++i) {
    ipad[i] = static_cast<Byte>(k[i] ^ 0x36);
    opad[i] = static_cast<Byte>(k[i] ^ 0x5c);
  }

  Sha256 inner;
  inner.update(ipad);
  inner.update(data);
  const Bytes inner_digest = inner.finish();

  Sha256 outer;
  outer.update(opad);
  outer.update(inner_digest);
  return outer.finish();
}

Bytes hkdf_sha256(BytesView ikm, BytesView salt, BytesView info, std::size_t out_len) {
  if (out_len > 255 * Sha256::kDigestSize) throw std::invalid_argument("hkdf: out_len too large");
  Bytes effective_salt(salt.begin(), salt.end());
  if (effective_salt.empty()) effective_salt.assign(Sha256::kDigestSize, 0);
  const Bytes prk = hmac_sha256(effective_salt, ikm);

  Bytes okm;
  okm.reserve(out_len);
  Bytes t;
  Byte counter = 1;
  while (okm.size() < out_len) {
    Bytes block = t;
    append(block, info);
    block.push_back(counter++);
    t = hmac_sha256(prk, block);
    const std::size_t take = std::min(t.size(), out_len - okm.size());
    okm.insert(okm.end(), t.begin(), t.begin() + static_cast<std::ptrdiff_t>(take));
  }
  return okm;
}

}  // namespace rockfs::crypto
