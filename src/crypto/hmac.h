// HMAC (RFC 2104) over SHA-256, and HKDF (RFC 5869).
#pragma once

#include "common/bytes.h"

namespace rockfs::crypto {

/// HMAC-SHA-256(key, data) -> 32 bytes.
Bytes hmac_sha256(BytesView key, BytesView data);

/// HKDF-SHA-256 extract-and-expand. `out_len` <= 255*32.
Bytes hkdf_sha256(BytesView ikm, BytesView salt, BytesView info, std::size_t out_len);

}  // namespace rockfs::crypto
