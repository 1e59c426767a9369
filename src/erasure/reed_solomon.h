// Systematic Reed-Solomon erasure coding over GF(2^8): splits a buffer into
// n shards of which any k reconstruct the original. DepSky's CA protocol
// (paper §5.1) uses this to store each file as n cloud shares at a total
// footprint of n/k times the file size (2x for the paper's n=4, k=2).
#pragma once

#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "gf/gf256.h"

namespace rockfs::common {
class Executor;
}

namespace rockfs::erasure {

/// One coded shard: the shard index identifies its row of the coding matrix.
struct Shard {
  std::size_t index = 0;
  Bytes data;
};

class ReedSolomon {
 public:
  /// k data shards, n total shards; 1 <= k <= n <= 255.
  ReedSolomon(std::size_t k, std::size_t n);

  std::size_t k() const noexcept { return k_; }
  std::size_t n() const noexcept { return n_; }

  /// Shard size for a payload of `data_size` bytes.
  std::size_t shard_size(std::size_t data_size) const;

  /// Encodes into n shards (the first k are the systematic data shards).
  /// Same as encode(data, nullptr).
  std::vector<Shard> encode(BytesView data) const;

  /// Same result, with the n output rows computed concurrently on `exec`
  /// (barrier join; each row writes a disjoint shard). Runs inline when exec
  /// is null or serial.
  std::vector<Shard> encode(BytesView data, common::Executor* exec) const;

  /// Reconstructs the original `data_size` bytes from any >= k distinct shards.
  /// Fails with kInvalidArgument on too few shards or inconsistent sizes.
  Result<Bytes> decode(const std::vector<Shard>& shards, std::size_t data_size) const;

  /// Re-creates a single missing shard from any k available shards.
  Result<Shard> repair_shard(const std::vector<Shard>& available, std::size_t missing_index,
                             std::size_t data_size) const;

 private:
  std::size_t k_;
  std::size_t n_;
  gf::Matrix coding_;  // n x k systematic coding matrix
};

}  // namespace rockfs::erasure
