#include "diff/binary_diff.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <vector>

namespace rockfs::diff {

namespace {

// Opcode stream format (all integers big-endian):
//   0x01 COPY   u64 old_offset, u64 length
//   0x02 INSERT lp bytes
constexpr Byte kOpCopy = 0x01;
constexpr Byte kOpInsert = 0x02;

// Adler-32-style weak rolling checksum over a fixed-length window. Sums stay
// reduced below kMod by conditional subtraction; the byte leaving the window
// takes (len·out) mod kMod from a table, so no step divides.
struct RollingHash {
  static constexpr std::uint32_t kMod = 65521;

  std::uint32_t a = 0;
  std::uint32_t b = 0;
  std::array<std::uint32_t, 256> leave{};  // (len·x) mod kMod

  explicit RollingHash(std::size_t len) {
    const auto len_mod = static_cast<std::uint32_t>(len % kMod);
    for (std::uint32_t x = 0; x < 256; ++x) leave[x] = len_mod * x % kMod;
  }

  static std::uint32_t reduce(std::uint32_t v) { return v >= kMod ? v - kMod : v; }

  void init(BytesView window) {
    a = b = 0;
    for (const Byte x : window) {
      a = reduce(a + x);
      b = reduce(b + a);
    }
  }
  void roll(Byte out, Byte in) {
    a = reduce(reduce(a + in) + kMod - out);
    b = reduce(reduce(b + kMod - leave[out]) + a);
  }
  std::uint32_t digest() const { return (b << 16) | a; }
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

  // Index old blocks by weak hash -> offset; a byte comparison decides each
  // candidate. The bitmap over the digests' low 16 bits skips the hash-table
  // lookup for most windows that match nothing.
  std::unordered_multimap<std::uint32_t, std::size_t> index;
  index.reserve(old_data.size() / bs + 1);
  std::vector<std::uint64_t> present(65536 / 64, 0);
  RollingHash rh(bs);
  for (std::size_t off = 0; off + bs <= old_data.size(); off += bs) {
    rh.init(old_data.subspan(off, bs));
    const std::uint32_t d = rh.digest();
    index.emplace(d, off);
    present[(d & 0xFFFF) >> 6] |= std::uint64_t{1} << (d & 63);
  }

  Bytes pending_literal;
  std::size_t pos = 0;
  // Coalesced COPY state.
  bool copy_open = false;
  std::uint64_t copy_off = 0, copy_len = 0;

  auto flush_copy = [&] {
    if (copy_open) {
      emit_copy(out, copy_off, copy_len);
      copy_open = false;
    }
  };
  auto flush_literal = [&] {
    flush_copy();
    emit_insert(out, pending_literal);
    pending_literal.clear();
  };

  bool rh_valid = false;
  while (pos < new_data.size()) {
    if (pos + bs > new_data.size()) {
      // Tail shorter than a block: emit as literal.
      flush_copy();
      append(pending_literal, new_data.subspan(pos));
      pos = new_data.size();
      break;
    }
    if (!rh_valid) {
      rh.init(new_data.subspan(pos, bs));
      rh_valid = true;
    }
    // Look up the window; the first candidate whose bytes match wins.
    std::size_t match_off = SIZE_MAX;
    const std::uint32_t d = rh.digest();
    if ((present[(d & 0xFFFF) >> 6] >> (d & 63)) & 1) {
      auto [it, end] = index.equal_range(d);
      for (; it != end; ++it) {
        if (std::equal(new_data.begin() + static_cast<std::ptrdiff_t>(pos),
                       new_data.begin() + static_cast<std::ptrdiff_t>(pos + bs),
                       old_data.begin() + static_cast<std::ptrdiff_t>(it->second))) {
          match_off = it->second;
          break;
        }
      }
    }
    if (match_off != SIZE_MAX) {
      if (!pending_literal.empty()) flush_literal();
      // Extend an open COPY when contiguous.
      if (copy_open && copy_off + copy_len == match_off) {
        copy_len += bs;
      } else {
        flush_copy();
        copy_open = true;
        copy_off = match_off;
        copy_len = bs;
      }
      pos += bs;
      rh_valid = false;
    } else {
      flush_copy();
      pending_literal.push_back(new_data[pos]);
      if (pos + bs < new_data.size()) {
        rh.roll(new_data[pos], new_data[pos + bs]);
      } else {
        rh_valid = false;
      }
      ++pos;
    }
  }
  flush_literal();
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
