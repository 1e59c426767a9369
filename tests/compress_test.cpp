#include <gtest/gtest.h>

#include "common/compress.h"
#include "common/rng.h"

namespace rockfs {
namespace {

TEST(Lz, EmptyInput) {
  const Bytes c = lz_compress({});
  auto d = lz_decompress(c);
  ASSERT_TRUE(d.ok());
  EXPECT_TRUE(d->empty());
}

TEST(Lz, RoundTripText) {
  const Bytes data = to_bytes(
      "the quick brown fox jumps over the lazy dog; "
      "the quick brown fox jumps over the lazy dog again and again and again");
  const Bytes c = lz_compress(data);
  EXPECT_LT(c.size(), data.size());  // repeated text compresses
  auto d = lz_decompress(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, data);
}

TEST(Lz, HighlyRedundantDataCompressesWell) {
  Bytes data(100'000, 'A');
  const Bytes c = lz_compress(data);
  EXPECT_LT(c.size(), data.size() / 50);
  auto d = lz_decompress(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, data);
}

TEST(Lz, RandomDataRoundTripsWithBoundedExpansion) {
  Rng rng(1);
  const Bytes data = rng.next_bytes(50'000);
  const Bytes c = lz_compress(data);
  EXPECT_LT(c.size(), data.size() + data.size() / 10 + 64);
  auto d = lz_decompress(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, data);
}

TEST(Lz, OverlappingMatchRle) {
  // "abcabcabc...": matches overlap their own output (dist < len).
  Bytes data;
  for (int i = 0; i < 1000; ++i) {
    data.push_back('a');
    data.push_back('b');
    data.push_back('c');
  }
  const Bytes c = lz_compress(data);
  EXPECT_LT(c.size(), 100u);
  auto d = lz_decompress(c);
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, data);
}

TEST(Lz, StructuredFuzzRoundTrips) {
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    Bytes data;
    // Mix of runs, repeats of earlier chunks, and noise.
    while (data.size() < 20'000 && rng.next_below(12) != 0) {
      const auto kind = rng.next_below(3);
      if (kind == 0) {
        data.insert(data.end(), rng.next_below(400) + 1,
                    static_cast<Byte>(rng.next_below(256)));
      } else if (kind == 1 && !data.empty()) {
        const std::size_t start = rng.next_below(data.size());
        const std::size_t len =
            std::min<std::size_t>(rng.next_below(500) + 1, data.size() - start);
        const Bytes chunk(data.begin() + static_cast<std::ptrdiff_t>(start),
                          data.begin() + static_cast<std::ptrdiff_t>(start + len));
        append(data, chunk);
      } else {
        append(data, rng.next_bytes(rng.next_below(300)));
      }
    }
    auto d = lz_decompress(lz_compress(data));
    ASSERT_TRUE(d.ok()) << "trial " << trial;
    EXPECT_EQ(*d, data) << "trial " << trial;
  }
}

TEST(Lz, RejectsCorruptStreams) {
  const Bytes data = to_bytes("hello hello hello hello hello");
  Bytes c = lz_compress(data);
  // Unknown opcode.
  Bytes bad = c;
  bad[8] = 0x7F;
  EXPECT_EQ(lz_decompress(bad).code(), ErrorCode::kCorrupted);
  // Truncation.
  const Bytes trunc(c.begin(), c.end() - 2);
  EXPECT_EQ(lz_decompress(trunc).code(), ErrorCode::kCorrupted);
  // Declared-size lies are caught.
  Bytes lying = c;
  lying[7] = static_cast<Byte>(lying[7] + 1);
  EXPECT_EQ(lz_decompress(lying).code(), ErrorCode::kCorrupted);
}

TEST(Lz, DecompressionBombGuard) {
  Bytes data(10'000, 'x');
  const Bytes c = lz_compress(data);
  EXPECT_EQ(lz_decompress(c, /*max_size=*/100).code(), ErrorCode::kCorrupted);
  EXPECT_TRUE(lz_decompress(c, 10'000).ok());
}

TEST(Lz, MatchDistanceValidation) {
  // Hand-craft a stream whose match reaches before the beginning.
  Bytes bad;
  append_u64(bad, 10);
  bad.push_back(0x01);  // match
  append_u32(bad, 5);   // distance 5 into an empty output
  append_u32(bad, 5);
  EXPECT_EQ(lz_decompress(bad).code(), ErrorCode::kCorrupted);
}

}  // namespace
}  // namespace rockfs
