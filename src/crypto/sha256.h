// SHA-256 (FIPS 180-4), streaming and one-shot. Blocks compress through
// SHA-NI when the CPU has it, else through the portable scalar rounds.
#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace rockfs::crypto {

class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  static constexpr std::size_t kBlockSize = 64;

  Sha256();
  void update(BytesView data);
  /// Finalizes and returns the digest; the object must not be reused afterwards.
  Bytes finish();

  static Bytes hash(BytesView data);

 private:
  std::array<std::uint32_t, 8> h_;
  std::array<Byte, kBlockSize> buf_{};
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience: SHA-256(data).
Bytes sha256(BytesView data);

}  // namespace rockfs::crypto
