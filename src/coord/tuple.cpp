#include "coord/tuple.h"

#include <algorithm>
#include <stdexcept>

namespace rockfs::coord {

Template Template::of(std::vector<std::string> fields) {
  Template t;
  t.fields_.reserve(fields.size());
  for (auto& f : fields) {
    if (f == "*") {
      t.fields_.emplace_back(std::nullopt);
    } else {
      t.fields_.emplace_back(std::move(f));
    }
  }
  return t;
}

Bytes serialize_tuple(const Tuple& t) {
  std::size_t size = 4;
  for (const auto& f : t) size += 4 + f.size();
  Bytes out;
  out.reserve(size);
  append_u32(out, static_cast<std::uint32_t>(t.size()));
  for (const auto& f : t) {
    append_u32(out, static_cast<std::uint32_t>(f.size()));
    out.insert(out.end(), f.begin(), f.end());
  }
  return out;
}

namespace {

// The length-prefixed buffer at `*off`, as a view into `b`; advances `*off`.
BytesView next_lp(BytesView b, std::size_t* off) {
  const std::uint32_t len = read_u32(b, *off);
  *off += 4;
  if (len > b.size() - *off) throw std::out_of_range("tuple: field past end");
  const BytesView v = b.subspan(*off, len);
  *off += len;
  return v;
}

}  // namespace

Tuple deserialize_tuple(BytesView b) {
  std::size_t off = 0;
  const std::uint32_t n = read_u32(b, off);
  off += 4;
  Tuple t;
  t.reserve(std::min<std::size_t>(n, b.size() / 4));  // every field takes >= 4 bytes
  for (std::uint32_t i = 0; i < n; ++i) {
    const BytesView f = next_lp(b, &off);
    t.emplace_back(reinterpret_cast<const char*>(f.data()), f.size());
  }
  if (off != b.size()) throw std::invalid_argument("tuple: trailing bytes");
  return t;
}

Bytes encode_opt_tuple(const std::optional<Tuple>& t) {
  Bytes out{static_cast<Byte>(t.has_value() ? 1 : 0)};
  if (t.has_value()) append(out, serialize_tuple(*t));
  return out;
}

std::optional<Tuple> decode_opt_tuple(BytesView b) {
  if (b.empty() || b[0] == 0) return std::nullopt;
  return deserialize_tuple(b.subspan(1));
}

Bytes encode_tuples(const std::vector<Tuple>& ts) {
  Bytes out;
  append_u32(out, static_cast<std::uint32_t>(ts.size()));
  for (const auto& t : ts) append_lp(out, serialize_tuple(t));
  return out;
}

std::vector<Tuple> decode_tuples(BytesView b) {
  std::size_t off = 0;
  const std::uint32_t n = read_u32(b, off);
  off += 4;
  std::vector<Tuple> out;
  out.reserve(std::min<std::size_t>(n, b.size() / 4));
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(deserialize_tuple(next_lp(b, &off)));
  return out;
}

}  // namespace rockfs::coord
