#include "coord/replica.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"

namespace rockfs::coord {

namespace {

// Whether `encoding` starts with `prefix`.
bool starts_with(BytesView encoding, BytesView prefix) {
  return encoding.size() >= prefix.size() &&
         std::memcmp(encoding.data(), prefix.data(), prefix.size()) == 0;
}

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

// How `pattern` is looked up: the encoding of its arity and exact leading
// fields, which every match's encoding starts with, and whether an exact
// field follows a wildcard (then each candidate is checked field by field).
struct Replica::Lookup {
  const Template& pattern;
  Bytes prefix;
  bool check_rest = false;

  explicit Lookup(const Template& p) : pattern(p) {
    const auto& fields = pattern.fields();
    append_u32(prefix, static_cast<std::uint32_t>(fields.size()));
    std::size_t i = 0;
    for (; i < fields.size() && fields[i].has_value(); ++i) {
      append_u32(prefix, static_cast<std::uint32_t>(fields[i]->size()));
      prefix.insert(prefix.end(), fields[i]->begin(), fields[i]->end());
    }
    for (; i < fields.size(); ++i) check_rest |= fields[i].has_value();
  }
};

bool Replica::ByteOrder::operator()(BytesView a, BytesView b) const noexcept {
  // Encodings and their prefixes are never empty (they start with the
  // arity), so data() is valid.
  const int c = std::memcmp(a.data(), b.data(), std::min(a.size(), b.size()));
  return c != 0 ? c < 0 : a.size() < b.size();
}

Replica::Replica(std::string name)
    : name_(std::move(name)),
      reused_(&obs::metrics().counter("coord.rdall.reused")),
      spliced_(&obs::metrics().counter("coord.rdall.spliced")) {}

std::vector<Replica::Store::const_iterator> Replica::find(const Lookup& lookup) const {
  std::vector<Store::const_iterator> hits;
  for (auto it = store_.lower_bound(lookup.prefix);
       it != store_.end() && starts_with(it->first, lookup.prefix); ++it) {
    if (!lookup.check_rest || matches_encoding(lookup.pattern, it->first)) hits.push_back(it);
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

void Replica::insert(Bytes encoding) {
  drop_answers(encoding);
  store_.emplace(std::move(encoding), next_++);
}

void Replica::erase(Store::const_iterator it) {
  drop_answers(it->first);
  store_.erase(it);
}

void Replica::drop_answers(BytesView encoding) {
  // A kept answer's key is the encoded arity and leading fields of the
  // tuples in its range, so the keys whose range holds this tuple are its
  // encoding's field-boundary prefixes. Once no key starts with a prefix,
  // none can equal a longer one.
  const std::uint32_t arity = read_u32(encoding, 0);
  std::size_t end = 4;
  for (std::uint32_t field = 0;; ++field) {
    const BytesView prefix = encoding.first(end);
    const auto it = answers_.lower_bound(prefix);
    if (it == answers_.end() || !starts_with(it->first, prefix)) return;
    if (it->first.size() == end) answers_.erase(it);
    if (field == arity) return;
    end += 4 + read_u32(encoding, end);
  }
}

void Replica::out(const Tuple& tuple) { insert(serialize_tuple(tuple)); }

std::optional<Tuple> Replica::rdp(const Template& pattern) const {
  return decode_opt_tuple(rdp_answer(pattern));
}

std::optional<Tuple> Replica::inp(const Template& pattern) {
  const auto hits = find(Lookup(pattern));
  if (hits.empty()) return std::nullopt;
  Tuple t = deserialize_tuple(hits.front()->first);
  erase(hits.front());
  return t;
}

std::vector<Tuple> Replica::rdall(const Template& pattern) {
  return decode_tuples(*rdall_shared(pattern));
}

bool Replica::cas(const Template& pattern, const Tuple& tuple) {
  if (!find(Lookup(pattern)).empty()) return false;
  out(tuple);
  return true;
}

std::size_t Replica::replace(const Template& pattern, const Tuple& tuple) {
  const auto hits = find(Lookup(pattern));
  for (const auto& it : hits) erase(it);
  out(tuple);
  return hits.size();
}

std::size_t Replica::swap(const Template& pattern, const Tuple& tuple) {
  const auto hits = find(Lookup(pattern));
  for (const auto& it : hits) erase(it);
  if (!hits.empty()) out(tuple);
  return hits.size();
}

std::size_t Replica::count(const Template& pattern) const {
  return find(Lookup(pattern)).size();
}

Bytes Replica::rdp_answer(const Template& pattern) const {
  const auto hits = find(Lookup(pattern));
  Bytes out{static_cast<Byte>(hits.empty() ? 0 : 1)};
  if (!hits.empty()) append(out, hits.front()->first);
  return out;
}

std::shared_ptr<const Bytes> Replica::rdall_shared(const Template& pattern) {
  Lookup lookup(pattern);
  // An exact field after a wildcard makes the answer a subset of the range,
  // which the range's key cannot name.
  auto kept = answers_.end();
  if (!lookup.check_rest) {
    kept = answers_.lower_bound(lookup.prefix);
    if (kept != answers_.end() && !answers_.key_comp()(lookup.prefix, kept->first)) {
      reused_->add();
      return kept->second;
    }
  }
  spliced_->add();
  const auto hits = find(lookup);
  std::size_t size = 4;
  for (const auto& it : hits) size += 4 + it->first.size();
  auto answer = std::make_shared<Bytes>();
  answer->reserve(size);
  append_u32(*answer, static_cast<std::uint32_t>(hits.size()));
  for (const auto& it : hits) append_lp(*answer, it->first);
  if (!lookup.check_rest) answers_.emplace_hint(kept, std::move(lookup.prefix), answer);
  return answer;
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
