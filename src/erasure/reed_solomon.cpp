#include "erasure/reed_solomon.h"

#include <algorithm>
#include <stdexcept>

#include "common/executor.h"

namespace rockfs::erasure {

namespace {

// Systematic coding matrix: a Vandermonde matrix postmultiplied by the
// inverse of its own top k x k block, so rows 0..k-1 become the identity and
// every k x k submatrix stays invertible.
gf::Matrix build_coding_matrix(std::size_t k, std::size_t n) {
  if (k == 0 || k > n || n > 255) {
    throw std::invalid_argument("ReedSolomon: need 1 <= k <= n <= 255");
  }
  const gf::Matrix vm = gf::Matrix::vandermonde(n, k);
  std::vector<std::size_t> top(k);
  for (std::size_t i = 0; i < k; ++i) top[i] = i;
  const gf::Matrix top_inv = vm.select_rows(top).inverse();
  return vm.multiply(top_inv);
}

}  // namespace

ReedSolomon::ReedSolomon(std::size_t k, std::size_t n)
    : k_(k), n_(n), coding_(build_coding_matrix(k, n)) {}

std::size_t ReedSolomon::shard_size(std::size_t data_size) const {
  // ceil(data_size / k) without the overflow of data_size + k - 1: decode
  // takes data_size from metadata, and a size near 2^64 must not wrap to a
  // small stride that lets it allocate data_size bytes.
  return data_size / k_ + (data_size % k_ != 0 ? 1 : 0);
}

std::vector<Shard> ReedSolomon::encode(BytesView data) const { return encode(data, nullptr); }

std::vector<Shard> ReedSolomon::encode(BytesView data, common::Executor* exec) const {
  const std::size_t stride = std::max<std::size_t>(shard_size(data.size()), 1);
  std::vector<Shard> shards(n_);
  for (std::size_t i = 0; i < n_; ++i) {
    shards[i].index = i;
    shards[i].data.assign(stride, 0);
  }
  // Row-major: output shard `row` accumulates coding(row, c) x data shard c.
  // Data shard c is data[c*stride, (c+1)*stride); bytes past the end of
  // `data` are zero padding and contribute nothing. Each branch owns one
  // output shard, so concurrent rows write disjoint buffers.
  common::parallel_for_index(exec, n_, [&](std::size_t row) {
    Bytes& out = shards[row].data;
    for (std::size_t c = 0; c < k_; ++c) {
      const std::size_t begin = std::min(c * stride, data.size());
      const std::size_t len = std::min(stride, data.size() - begin);
      gf::mul_add_region(coding_.at(row, c), data.subspan(begin, len),
                         std::span<Byte>(out).first(len));
    }
  });
  return shards;
}

Result<Bytes> ReedSolomon::decode(const std::vector<Shard>& shards,
                                  std::size_t data_size) const {
  // Pick k distinct, size-consistent shards.
  std::vector<const Shard*> chosen;
  std::vector<bool> seen(n_, false);
  const std::size_t stride = std::max<std::size_t>(shard_size(data_size), 1);
  for (const Shard& s : shards) {
    if (s.index >= n_ || seen[s.index]) continue;
    if (s.data.size() != stride) {
      return Error{ErrorCode::kInvalidArgument, "decode: shard size mismatch"};
    }
    seen[s.index] = true;
    chosen.push_back(&s);
    if (chosen.size() == k_) break;
  }
  if (chosen.size() < k_) {
    return Error{ErrorCode::kInvalidArgument, "decode: fewer than k distinct shards"};
  }

  std::vector<std::size_t> rows(k_);
  for (std::size_t i = 0; i < k_; ++i) rows[i] = chosen[i]->index;
  const gf::Matrix dec = coding_.select_rows(rows).inverse();

  // Row-major, like encode: output row r (bytes r*stride onward, cut at
  // data_size) accumulates dec(r, c) x chosen shard c.
  Bytes out(data_size, 0);
  for (std::size_t row = 0; row < k_ && row * stride < data_size; ++row) {
    const std::size_t len = std::min(stride, data_size - row * stride);
    const std::span<Byte> dst = std::span<Byte>(out).subspan(row * stride, len);
    for (std::size_t c = 0; c < k_; ++c) {
      gf::mul_add_region(dec.at(row, c), BytesView(chosen[c]->data).first(len), dst);
    }
  }
  return out;
}

Result<Shard> ReedSolomon::repair_shard(const std::vector<Shard>& available,
                                        std::size_t missing_index,
                                        std::size_t data_size) const {
  if (missing_index >= n_) {
    return Error{ErrorCode::kInvalidArgument, "repair: bad shard index"};
  }
  auto decoded = decode(available, data_size);
  if (!decoded.ok()) return decoded.error();
  auto full = encode(*decoded);
  return full[missing_index];
}

}  // namespace rockfs::erasure
