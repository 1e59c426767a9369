#include "coord/replica.h"

#include <algorithm>
#include <cstring>

namespace rockfs::coord {

namespace {

// How `pattern` is looked up: the encoding of its arity and exact leading
// fields, which every match's encoding starts with, and whether an exact
// field follows a wildcard (then each candidate is checked field by field).
struct Lookup {
  Bytes prefix;
  bool check_rest = false;

  explicit Lookup(const Template& pattern) {
    const auto& fields = pattern.fields();
    append_u32(prefix, static_cast<std::uint32_t>(fields.size()));
    std::size_t i = 0;
    for (; i < fields.size() && fields[i].has_value(); ++i) {
      append_u32(prefix, static_cast<std::uint32_t>(fields[i]->size()));
      prefix.insert(prefix.end(), fields[i]->begin(), fields[i]->end());
    }
    for (; i < fields.size(); ++i) check_rest |= fields[i].has_value();
  }

  bool in_range(BytesView encoding) const {
    return encoding.size() >= prefix.size() &&
           std::memcmp(encoding.data(), prefix.data(), prefix.size()) == 0;
  }
};

// Whether a stored encoding of the template's arity matches it.
bool matches_encoding(const Template& pattern, BytesView encoding) {
  std::size_t off = 4;
  for (const auto& field : pattern.fields()) {
    const std::uint32_t len = read_u32(encoding, off);
    off += 4;
    if (field.has_value() && (field->size() != len ||
                              std::memcmp(field->data(), encoding.data() + off, len) != 0)) {
      return false;
    }
    off += len;
  }
  return true;
}

}  // namespace

bool Replica::ByteOrder::operator()(BytesView a, BytesView b) const noexcept {
  // Encodings are never empty (they start with the arity), so data() is valid.
  const int c = std::memcmp(a.data(), b.data(), std::min(a.size(), b.size()));
  return c != 0 ? c < 0 : a.size() < b.size();
}

Replica::Replica(std::string name) : name_(std::move(name)) {}

std::vector<Replica::Store::const_iterator> Replica::find(const Template& pattern) const {
  const Lookup lookup(pattern);
  std::vector<Store::const_iterator> hits;
  for (auto it = store_.lower_bound(lookup.prefix);
       it != store_.end() && lookup.in_range(it->first); ++it) {
    if (!lookup.check_rest || matches_encoding(pattern, it->first)) hits.push_back(it);
  }
  // A chain's records sort by their padded seq, so a range is usually in
  // insertion order already.
  const auto older = [](Store::const_iterator a, Store::const_iterator b) {
    return a->second < b->second;
  };
  if (!std::is_sorted(hits.begin(), hits.end(), older)) {
    std::sort(hits.begin(), hits.end(), older);
  }
  return hits;
}

void Replica::out(const Tuple& tuple) { insert(serialize_tuple(tuple)); }

std::optional<Tuple> Replica::rdp(const Template& pattern) const {
  return decode_opt_tuple(rdp_answer(pattern));
}

std::optional<Tuple> Replica::inp(const Template& pattern) {
  const auto hits = find(pattern);
  if (hits.empty()) return std::nullopt;
  Tuple t = deserialize_tuple(hits.front()->first);
  store_.erase(hits.front());
  return t;
}

std::vector<Tuple> Replica::rdall(const Template& pattern) const {
  return decode_tuples(rdall_answer(pattern));
}

bool Replica::cas(const Template& pattern, const Tuple& tuple) {
  if (!find(pattern).empty()) return false;
  out(tuple);
  return true;
}

std::size_t Replica::replace(const Template& pattern, const Tuple& tuple) {
  const auto hits = find(pattern);
  for (const auto& it : hits) store_.erase(it);
  out(tuple);
  return hits.size();
}

std::size_t Replica::swap(const Template& pattern, const Tuple& tuple) {
  const auto hits = find(pattern);
  for (const auto& it : hits) store_.erase(it);
  if (!hits.empty()) out(tuple);
  return hits.size();
}

std::size_t Replica::count(const Template& pattern) const { return find(pattern).size(); }

Bytes Replica::rdp_answer(const Template& pattern) const {
  const auto hits = find(pattern);
  Bytes out{static_cast<Byte>(hits.empty() ? 0 : 1)};
  if (!hits.empty()) append(out, hits.front()->first);
  return out;
}

Bytes Replica::rdall_answer(const Template& pattern) const {
  const auto hits = find(pattern);
  std::size_t size = 4;
  for (const auto& it : hits) size += 4 + it->first.size();
  Bytes out;
  out.reserve(size);
  append_u32(out, static_cast<std::uint32_t>(hits.size()));
  for (const auto& it : hits) append_lp(out, it->first);
  return out;
}

Bytes Replica::checkpoint() const {
  std::vector<const Store::value_type*> all;
  all.reserve(store_.size());
  for (const auto& entry : store_) all.push_back(&entry);
  std::sort(all.begin(), all.end(),
            [](const auto* a, const auto* b) { return a->second < b->second; });
  Bytes out;
  append_u64(out, store_.size());
  for (const auto* entry : all) append_lp(out, entry->first);
  return out;
}

Result<Replica> Replica::restore(std::string name, BytesView checkpoint) {
  try {
    Replica r(std::move(name));
    const std::uint64_t n = read_u64(checkpoint, 0);
    std::size_t off = 8;
    for (std::uint64_t i = 0; i < n; ++i) {
      Bytes encoding = read_lp(checkpoint, &off);
      // Only an exact encoding is stored: its bytes are what the replica
      // answers and checkpoints from then on.
      (void)deserialize_tuple(encoding);
      r.insert(std::move(encoding));
    }
    if (off != checkpoint.size()) {
      return Error{ErrorCode::kCorrupted, "replica checkpoint: trailing bytes"};
    }
    return r;
  } catch (const std::exception& e) {
    return Error{ErrorCode::kCorrupted, std::string("replica checkpoint: ") + e.what()};
  }
}

Tuple Replica::maybe_lie(Tuple honest) const {
  if (!byzantine_) return honest;
  // A Byzantine replica returns a syntactically valid but wrong tuple.
  if (honest.empty()) return {"<byzantine>"};
  honest.back() += "<byzantine>";
  return honest;
}

}  // namespace rockfs::coord
