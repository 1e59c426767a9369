#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/executor.h"
#include "common/rng.h"
#include "erasure/reed_solomon.h"
#include "gf/gf256.h"
#include "gf/kernels.h"

namespace rockfs {
namespace {

// ------------------------------------------------------------------ GF(256)

TEST(Gf256, MulBasics) {
  EXPECT_EQ(gf::mul(0, 17), 0);
  EXPECT_EQ(gf::mul(17, 0), 0);
  EXPECT_EQ(gf::mul(1, 17), 17);
  EXPECT_EQ(gf::mul(17, 1), 17);
}

TEST(Gf256, MulCommutativeAssociativeDistributive) {
  Rng rng(1);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<std::uint8_t>(rng.next_below(256));
    const auto b = static_cast<std::uint8_t>(rng.next_below(256));
    const auto c = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_EQ(gf::mul(a, b), gf::mul(b, a));
    EXPECT_EQ(gf::mul(a, gf::mul(b, c)), gf::mul(gf::mul(a, b), c));
    EXPECT_EQ(gf::mul(a, static_cast<std::uint8_t>(b ^ c)),
              gf::mul(a, b) ^ gf::mul(a, c));
  }
}

TEST(Gf256, EveryNonzeroElementHasInverse) {
  for (int a = 1; a < 256; ++a) {
    const auto ua = static_cast<std::uint8_t>(a);
    EXPECT_EQ(gf::mul(ua, gf::inv(ua)), 1) << "a=" << a;
    EXPECT_EQ(gf::div(ua, ua), 1);
  }
}

TEST(Gf256, ZeroEdgeCases) {
  EXPECT_THROW(gf::inv(0), std::domain_error);
  EXPECT_THROW(gf::div(1, 0), std::domain_error);
  EXPECT_EQ(gf::div(0, 7), 0);
}

TEST(Gf256, PowMatchesRepeatedMul) {
  for (int a = 1; a < 256; a += 13) {
    std::uint8_t acc = 1;
    for (unsigned e = 0; e < 20; ++e) {
      EXPECT_EQ(gf::pow(static_cast<std::uint8_t>(a), e), acc);
      acc = gf::mul(acc, static_cast<std::uint8_t>(a));
    }
  }
  EXPECT_EQ(gf::pow(0, 0), 1);
  EXPECT_EQ(gf::pow(0, 5), 0);
}

TEST(Gf256, PolyEvalHorner) {
  // f(x) = 5 + 3x + x^2 at x=2 (all GF ops): 5 ^ mul(3,2) ^ mul(1, mul(2,2)).
  const Bytes coeffs{5, 3, 1};
  const std::uint8_t expected =
      static_cast<std::uint8_t>(5 ^ gf::mul(3, 2) ^ gf::mul(2, 2));
  EXPECT_EQ(gf::poly_eval(coeffs, 2), expected);
  EXPECT_EQ(gf::poly_eval(coeffs, 0), 5);
}

// ------------------------------------------------------------ region op

// A region kernel against per-byte gf::mul: every coefficient, lengths 0..96
// and buffer offsets 0..15 (input and output misaligned differently). The
// buffers end exactly at the region, so ASan flags any access past a tail.
void expect_region_kernel_matches_mul(gf::detail::RegionKernel kernel) {
  Rng rng(30);
  for (unsigned c = 0; c < 256; ++c) {
    const auto coeff = static_cast<std::uint8_t>(c);
    for (std::size_t len = 0; len <= 96; ++len) {
      for (std::size_t in_off = 0; in_off < 16; ++in_off) {
        const std::size_t out_off = (in_off * 5) % 16;
        const Bytes in = rng.next_bytes(in_off + len);
        Bytes out = rng.next_bytes(out_off + len);
        Bytes want = out;
        for (std::size_t i = 0; i < len; ++i) {
          want[out_off + i] ^= gf::mul(coeff, in[in_off + i]);
        }
        kernel(coeff, in.data() + in_off, out.data() + out_off, len);
        ASSERT_EQ(out, want) << "c=" << c << " len=" << len << " offset=" << in_off;
      }
    }
  }
}

TEST(GfRegion, PortableMatchesPerByteMul) {
  expect_region_kernel_matches_mul(&gf::detail::mul_add_region_portable);
}

TEST(GfRegion, Ssse3MatchesPerByteMul) {
  const gf::detail::RegionKernel ssse3 = gf::detail::ssse3_region_kernel();
  if (ssse3 == nullptr) GTEST_SKIP() << "CPU lacks SSSE3";
  expect_region_kernel_matches_mul(ssse3);
}

TEST(GfRegion, PublicOpAccumulatesAndChecksSizes) {
  const Bytes in = {1, 2, 3, 0x80};
  Bytes out = {9, 9, 9, 9};
  gf::mul_add_region(0, in, out);
  EXPECT_EQ(out, (Bytes{9, 9, 9, 9}));
  gf::mul_add_region(7, in, out);
  for (std::size_t i = 0; i < in.size(); ++i) EXPECT_EQ(out[i], 9 ^ gf::mul(7, in[i]));
  Bytes short_out(3);
  EXPECT_THROW(gf::mul_add_region(7, in, short_out), std::invalid_argument);
}

TEST(GfMatrix, IdentityMultiply) {
  const auto id = gf::Matrix::identity(4);
  auto m = gf::Matrix::vandermonde(4, 4);
  EXPECT_EQ(id.multiply(m), m);
  EXPECT_EQ(m.multiply(id), m);
}

TEST(GfMatrix, InverseRoundTrip) {
  Rng rng(2);
  for (int trial = 0; trial < 10; ++trial) {
    gf::Matrix m(5, 5);
    // Random invertible matrix: retry until inversion succeeds.
    for (;;) {
      for (std::size_t r = 0; r < 5; ++r)
        for (std::size_t c = 0; c < 5; ++c)
          m.at(r, c) = static_cast<std::uint8_t>(rng.next_below(256));
      try {
        const gf::Matrix inv = m.inverse();
        EXPECT_EQ(m.multiply(inv), gf::Matrix::identity(5));
        break;
      } catch (const std::domain_error&) {
        continue;  // singular, redraw
      }
    }
  }
}

TEST(GfMatrix, SingularThrows) {
  gf::Matrix m(2, 2);  // all zeros
  EXPECT_THROW(m.inverse(), std::domain_error);
}

TEST(GfMatrix, ApplyVector) {
  auto id = gf::Matrix::identity(3);
  const Bytes v{9, 8, 7};
  EXPECT_EQ(id.apply(v), v);
  EXPECT_THROW(id.apply(Bytes{1, 2}), std::invalid_argument);
}

TEST(GfMatrix, VandermondeSubmatricesInvertible) {
  // Any k rows of the n x k Vandermonde matrix must be invertible — this is
  // what makes Reed-Solomon work for arbitrary erasure patterns.
  const auto vm = gf::Matrix::vandermonde(6, 3);
  for (std::size_t a = 0; a < 6; ++a)
    for (std::size_t b = a + 1; b < 6; ++b)
      for (std::size_t c = b + 1; c < 6; ++c)
        EXPECT_NO_THROW(vm.select_rows({a, b, c}).inverse());
}

// ------------------------------------------------------------ Reed-Solomon

TEST(ReedSolomon, RejectsBadParameters) {
  EXPECT_THROW(erasure::ReedSolomon(0, 4), std::invalid_argument);
  EXPECT_THROW(erasure::ReedSolomon(5, 4), std::invalid_argument);
}

TEST(ReedSolomon, SystematicPrefix) {
  const erasure::ReedSolomon rs(2, 4);
  Bytes data = to_bytes("hello world, this is rockfs!");
  const auto shards = rs.encode(data);
  ASSERT_EQ(shards.size(), 4u);
  // First k shards concatenated must reproduce the (padded) data.
  Bytes joined = concat({shards[0].data, shards[1].data});
  joined.resize(data.size());
  EXPECT_EQ(joined, data);
}

TEST(ReedSolomon, DecodeFromAnyKShards) {
  const erasure::ReedSolomon rs(2, 4);
  Rng rng(3);
  const Bytes data = rng.next_bytes(10'000);
  const auto shards = rs.encode(data);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      const auto out = rs.decode({shards[a], shards[b]}, data.size());
      ASSERT_TRUE(out.ok()) << "shards " << a << "," << b;
      EXPECT_EQ(*out, data);
    }
  }
}

TEST(ReedSolomon, FailsWithFewerThanK) {
  const erasure::ReedSolomon rs(3, 5);
  const Bytes data = to_bytes("some data");
  const auto shards = rs.encode(data);
  const auto out = rs.decode({shards[0], shards[1]}, data.size());
  EXPECT_EQ(out.code(), ErrorCode::kInvalidArgument);
}

TEST(ReedSolomon, DuplicateShardsDoNotCount) {
  const erasure::ReedSolomon rs(2, 4);
  const Bytes data = to_bytes("abcdefgh");
  const auto shards = rs.encode(data);
  const auto out = rs.decode({shards[1], shards[1]}, data.size());
  EXPECT_EQ(out.code(), ErrorCode::kInvalidArgument);
}

TEST(ReedSolomon, ShardSizeMismatchRejected) {
  const erasure::ReedSolomon rs(2, 4);
  const Bytes data = to_bytes("abcdefgh0123");
  auto shards = rs.encode(data);
  shards[0].data.pop_back();
  EXPECT_EQ(rs.decode({shards[0], shards[1]}, data.size()).code(),
            ErrorCode::kInvalidArgument);
}

TEST(ReedSolomon, StorageBlowupIsNOverK) {
  const erasure::ReedSolomon rs(2, 4);
  const Bytes data(1'000'000, 0x5A);
  const auto shards = rs.encode(data);
  std::size_t total = 0;
  for (const auto& s : shards) total += s.data.size();
  // n/k = 2x total storage, the figure the paper quotes for DepSky-CA.
  EXPECT_EQ(total, 2 * data.size());
}

TEST(ReedSolomon, RepairShard) {
  const erasure::ReedSolomon rs(2, 4);
  Rng rng(4);
  const Bytes data = rng.next_bytes(5'000);
  const auto shards = rs.encode(data);
  const auto repaired = rs.repair_shard({shards[2], shards[3]}, 0, data.size());
  ASSERT_TRUE(repaired.ok());
  EXPECT_EQ(repaired->index, 0u);
  EXPECT_EQ(repaired->data, shards[0].data);
}

TEST(ReedSolomon, VariousGeometriesRoundTrip) {
  Rng rng(5);
  const struct {
    std::size_t k, n;
  } geometries[] = {{1, 1}, {1, 3}, {2, 3}, {3, 4}, {2, 4}, {5, 8}, {10, 14}};
  for (const auto& g : geometries) {
    const erasure::ReedSolomon rs(g.k, g.n);
    for (const std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{17}, std::size_t{1000}}) {
      const Bytes data = rng.next_bytes(size);
      auto shards = rs.encode(data);
      // Drop n-k shards (the last ones), decode from the rest.
      shards.resize(g.k);
      const auto out = rs.decode(shards, data.size());
      ASSERT_TRUE(out.ok()) << "k=" << g.k << " n=" << g.n << " size=" << size;
      EXPECT_EQ(*out, data);
    }
  }
}

TEST(ReedSolomon, DecodeFromParityOnly) {
  const erasure::ReedSolomon rs(2, 4);
  Rng rng(6);
  const Bytes data = rng.next_bytes(3'333);
  const auto shards = rs.encode(data);
  const auto out = rs.decode({shards[2], shards[3]}, data.size());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, data);
}

TEST(ReedSolomon, MatchesPerByteFormula) {
  // Encode against shard[r][pos] = sum_c coding(r, c) * data[c * stride + pos]
  // (zero past the end of data), computed with per-byte gf::mul from the
  // documented systematic matrix; decode from every cyclic window of k shards.
  Rng rng(7);
  common::ThreadPool pool(3);
  const struct {
    std::size_t k, n;
  } geometries[] = {{1, 1}, {2, 4}, {3, 7}, {10, 14}};
  for (const auto& g : geometries) {
    const erasure::ReedSolomon rs(g.k, g.n);
    std::vector<std::size_t> top(g.k);
    for (std::size_t i = 0; i < g.k; ++i) top[i] = i;
    const gf::Matrix vm = gf::Matrix::vandermonde(g.n, g.k);
    const gf::Matrix coding = vm.multiply(vm.select_rows(top).inverse());
    const std::size_t k = g.k;
    for (const std::size_t size : {std::size_t{0}, k - 1, k + 1, 5 * k + 3, 97 * k + 1}) {
      const Bytes data = rng.next_bytes(size);
      const std::size_t stride = std::max<std::size_t>(rs.shard_size(size), 1);
      const auto shards = rs.encode(data);
      ASSERT_EQ(shards.size(), g.n);
      for (std::size_t r = 0; r < g.n; ++r) {
        Bytes want(stride, 0);
        for (std::size_t pos = 0; pos < stride; ++pos) {
          for (std::size_t c = 0; c < g.k; ++c) {
            const std::size_t idx = c * stride + pos;
            if (idx < size) want[pos] ^= gf::mul(coding.at(r, c), data[idx]);
          }
        }
        ASSERT_EQ(shards[r].data, want) << "k=" << g.k << " n=" << g.n << " size=" << size
                                        << " row=" << r;
      }
      const auto pooled = rs.encode(data, &pool);
      for (std::size_t r = 0; r < g.n; ++r) EXPECT_EQ(pooled[r].data, shards[r].data);
      for (std::size_t start = 0; start < g.n; ++start) {
        std::vector<erasure::Shard> window;
        for (std::size_t i = 0; i < g.k; ++i) window.push_back(shards[(start + i) % g.n]);
        const auto out = rs.decode(window, size);
        ASSERT_TRUE(out.ok());
        ASSERT_EQ(*out, data) << "k=" << g.k << " n=" << g.n << " size=" << size
                              << " first shard=" << start;
      }
    }
  }
}

}  // namespace
}  // namespace rockfs
