#include "diff/binary_diff.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <vector>

namespace rockfs::diff {

namespace {

// Opcode stream format (all integers big-endian):
//   0x01 COPY   u64 old_offset, u64 length
//   0x02 INSERT lp bytes
constexpr Byte kOpCopy = 0x01;
constexpr Byte kOpInsert = 0x02;

constexpr std::size_t kNone = SIZE_MAX;

// Polynomial hash of a bs-byte window, H(w) = Σ w_j·B^(bs−1−j) mod 2^64, with
// an odd B. Equal windows hash equal and a byte comparison decides every
// match, so the hash is only a filter: it cannot change an output byte.
class WindowHash {
 public:
  static constexpr std::uint64_t kB = 0x100000001b3;  // the FNV-64 prime

  explicit WindowHash(std::size_t bs) : bs_(bs) {
    std::uint64_t b_bs = 1;  // B^bs by squaring
    for (std::uint64_t sq = kB, e = bs; e != 0; sq *= sq, e >>= 1) {
      if (e & 1) b_bs *= sq;
    }
    for (std::size_t x = 1; x < 256; ++x) leave_[x] = leave_[x - 1] + b_bs;
  }

  // Horner's rule, four bytes per step.
  std::uint64_t of(const Byte* w) const {
    constexpr std::uint64_t kB2 = kB * kB, kB3 = kB2 * kB, kB4 = kB3 * kB;
    std::uint64_t h = 0;
    std::size_t j = 0;
    for (; j + 4 <= bs_; j += 4) {
      h = h * kB4 + (w[j] * kB3 + w[j + 1] * kB2 + w[j + 2] * kB + w[j + 3]);
    }
    for (; j < bs_; ++j) h = h * kB + w[j];
    return h;
  }

  // Slides the window one byte: `out` leaves at the front, `in` enters at the
  // back. in − out·B^bs stays off the h·B dependency chain: the empty asm
  // stops the compiler from re-associating it into two adds on that chain.
  std::uint64_t roll(std::uint64_t h, Byte out, Byte in) const {
    std::uint64_t delta = in - leave_[out];
    asm("" : "+r"(delta));
    return h * kB + delta;
  }

 private:
  std::size_t bs_;
  std::array<std::uint64_t, 256> leave_{};  // x·B^bs
};

// The old file's blocks at multiples of bs, as one vector of (hash, offset)
// sorted by hash ascending, then offset descending. A lookup walks the run of
// equal hashes in that order and takes the first byte-equal block, which is
// the highest-offset one.
class BlockIndex {
 public:
  BlockIndex(BytesView old_data, std::size_t bs, const WindowHash& hash)
      : old_(old_data.data()), bs_(bs), unique_(old_data.size() / bs, false) {
    entries_.reserve(unique_.size());
    for (std::size_t off = 0; off + bs <= old_data.size(); off += bs) {
      const std::uint64_t h = hash.of(old_ + off);
      entries_.push_back({h, off});
      present_[h >> 54] |= std::uint64_t{1} << ((h >> 48) & 63);
    }
    std::sort(entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
      return a.hash != b.hash ? a.hash < b.hash : a.offset > b.offset;
    });
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const bool same_prev = i > 0 && entries_[i - 1].hash == entries_[i].hash;
      const bool same_next =
          i + 1 < entries_.size() && entries_[i + 1].hash == entries_[i].hash;
      unique_[entries_[i].offset / bs] = !same_prev && !same_next;
    }
  }

  // A 64 Kbit pre-test on the hash's top 16 bits (its low bits are weak).
  bool may_hold(std::uint64_t h) const {
    return (present_[h >> 54] >> ((h >> 48) & 63)) & 1;
  }

  // Offset of the highest old block byte-equal to `window`, or kNone.
  std::size_t find(std::uint64_t h, const Byte* window) const {
    if (!may_hold(h)) return kNone;
    auto it = std::lower_bound(entries_.begin(), entries_.end(), h,
                               [](const Entry& e, std::uint64_t v) { return e.hash < v; });
    for (; it != entries_.end() && it->hash == h; ++it) {
      if (std::memcmp(window, old_ + it->offset, bs_) == 0) return it->offset;
    }
    return kNone;
  }

  // The old block at `off` when `window` equals it and no other old block
  // shares its hash, so that no lookup could pick another; else kNone.
  std::size_t sole_match(std::size_t off, const Byte* window) const {
    const std::size_t block = off / bs_;
    if (block >= unique_.size() || !unique_[block]) return kNone;
    return std::memcmp(window, old_ + off, bs_) == 0 ? off : kNone;
  }

 private:
  struct Entry {
    std::uint64_t hash;
    std::size_t offset;
  };
  const Byte* old_;
  std::size_t bs_;
  std::vector<Entry> entries_;
  std::vector<bool> unique_;  // per block: no other block has its hash
  std::array<std::uint64_t, 1024> present_{};
};

std::size_t pick_block_size(std::size_t old_size) {
  if (old_size < 4096) return std::max<std::size_t>(old_size / 4, 16);
  if (old_size < (1u << 20)) return 1024;
  return 4096;
}

void emit_copy(Bytes& out, std::uint64_t offset, std::uint64_t length) {
  out.push_back(kOpCopy);
  append_u64(out, offset);
  append_u64(out, length);
}

void emit_insert(Bytes& out, BytesView literal) {
  if (literal.empty()) return;
  out.push_back(kOpInsert);
  append_lp(out, literal);
}

}  // namespace

Bytes encode(BytesView old_data, BytesView new_data, std::size_t block_size) {
  Bytes out;
  if (old_data.empty() || new_data.empty()) {
    emit_insert(out, new_data);
    return out;
  }
  const std::size_t bs = block_size != 0 ? block_size : pick_block_size(old_data.size());
  const WindowHash hash(bs);
  const BlockIndex index(old_data, bs, hash);

  const Byte* const nd = new_data.data();
  const std::size_t n = new_data.size();
  std::size_t pos = 0;
  std::size_t literal = 0;  // the pending literal is new_data[literal, pos)
  bool copy_open = false;
  std::uint64_t copy_off = 0, copy_len = 0;

  while (pos + bs <= n) {
    // Inside a matched run, the block after the open COPY is the usual match:
    // one memcmp, no hashing.
    std::size_t match = copy_open ? index.sole_match(copy_off + copy_len, nd + pos) : kNone;
    if (match == kNone) {
      std::uint64_t h = hash.of(nd + pos);
      match = index.find(h, nd + pos);
      if (match == kNone) {
        // Literal run: slide one byte at a time until a window matches or
        // fewer than bs bytes remain (the tail joins the literal).
        if (copy_open) {
          emit_copy(out, copy_off, copy_len);
          copy_open = false;
        }
        while (++pos + bs <= n) {
          h = hash.roll(h, nd[pos - 1], nd[pos + bs - 1]);
          if (index.may_hold(h) && (match = index.find(h, nd + pos)) != kNone) break;
        }
        if (match == kNone) break;
        emit_insert(out, new_data.subspan(literal, pos - literal));
      }
    }
    if (copy_open && copy_off + copy_len == match) {
      copy_len += bs;
    } else {
      if (copy_open) emit_copy(out, copy_off, copy_len);
      copy_open = true;
      copy_off = match;
      copy_len = bs;
    }
    pos += bs;
    literal = pos;
  }
  if (copy_open) emit_copy(out, copy_off, copy_len);
  emit_insert(out, new_data.subspan(literal));
  return out;
}

Result<Bytes> patch(BytesView old_data, BytesView delta) {
  Bytes out;
  std::size_t off = 0;
  try {
    while (off < delta.size()) {
      const Byte op = delta[off++];
      if (op == kOpCopy) {
        const std::uint64_t src = read_u64(delta, off);
        const std::uint64_t len = read_u64(delta, off + 8);
        off += 16;
        if (src + len > old_data.size() || src + len < src) {
          return Error{ErrorCode::kCorrupted, "patch: copy out of range"};
        }
        append(out, old_data.subspan(src, len));
      } else if (op == kOpInsert) {
        const Bytes literal = read_lp(delta, &off);
        append(out, literal);
      } else {
        return Error{ErrorCode::kCorrupted, "patch: unknown opcode"};
      }
    }
  } catch (const std::out_of_range&) {
    return Error{ErrorCode::kCorrupted, "patch: truncated delta"};
  }
  return out;
}

Bytes LogDelta::serialize() const {
  Bytes out;
  out.push_back(whole_file ? 1 : 0);
  append(out, payload);
  return out;
}

Result<LogDelta> LogDelta::deserialize(BytesView b) {
  if (b.empty()) return Error{ErrorCode::kCorrupted, "log delta: empty"};
  if (b[0] > 1) return Error{ErrorCode::kCorrupted, "log delta: bad flag"};
  LogDelta d;
  d.whole_file = b[0] == 1;
  d.payload.assign(b.begin() + 1, b.end());
  return d;
}

LogDelta make_log_delta(BytesView old_data, BytesView new_data) {
  LogDelta d;
  Bytes delta = encode(old_data, new_data);
  if (delta.size() < new_data.size()) {
    d.whole_file = false;
    d.payload = std::move(delta);
  } else {
    d.whole_file = true;
    d.payload.assign(new_data.begin(), new_data.end());
  }
  return d;
}

Result<Bytes> apply_log_delta(BytesView old_data, const LogDelta& delta) {
  if (delta.whole_file) return Bytes(delta.payload);
  return patch(old_data, delta.payload);
}

}  // namespace rockfs::diff
