#include "depsky/metadata.h"

namespace rockfs::depsky {

const char* protocol_name(Protocol p) {
  switch (p) {
    case Protocol::kA: return "A";
    case Protocol::kCA: return "CA";
  }
  return "?";
}

Bytes UnitMetadata::signing_payload() const {
  Bytes out;
  append_lp(out, to_bytes(unit));
  append_u64(out, version);
  out.push_back(static_cast<Byte>(protocol));
  append_u64(out, data_size);
  append_u64(out, membership_epoch);
  append_u32(out, static_cast<std::uint32_t>(share_digests.size()));
  for (const Bytes& d : share_digests) append_lp(out, d);
  append_lp(out, writer_pub);
  return out;
}

Bytes UnitMetadata::serialize() const {
  Bytes out = signing_payload();
  append_lp(out, signature);
  return out;
}

Result<UnitMetadata> UnitMetadata::deserialize(BytesView b) {
  try {
    UnitMetadata m;
    std::size_t off = 0;
    m.unit = to_string(read_lp(b, &off));
    m.version = read_u64(b, off);
    off += 8;
    if (off >= b.size()) return Error{ErrorCode::kCorrupted, "metadata: truncated"};
    const Byte proto = b[off++];
    if (proto > 1) return Error{ErrorCode::kCorrupted, "metadata: bad protocol"};
    m.protocol = static_cast<Protocol>(proto);
    m.data_size = read_u64(b, off);
    off += 8;
    m.membership_epoch = read_u64(b, off);
    off += 8;
    const std::uint32_t n = read_u32(b, off);
    off += 4;
    for (std::uint32_t i = 0; i < n; ++i) m.share_digests.push_back(read_lp(b, &off));
    m.writer_pub = read_lp(b, &off);
    m.signature = read_lp(b, &off);
    if (off != b.size()) return Error{ErrorCode::kCorrupted, "metadata: trailing bytes"};
    return m;
  } catch (const std::exception& e) {
    return Error{ErrorCode::kCorrupted, std::string("metadata: ") + e.what()};
  }
}

void UnitMetadata::sign(const crypto::KeyPair& writer) {
  writer_pub = writer.public_bytes();
  signature = crypto::sign(writer, signing_payload());
}

bool UnitMetadata::verify(const crypto::PreparedKey& expected_writer) const {
  if (!ct_equal(writer_pub, expected_writer.encoded())) return false;
  return expected_writer.verify(signing_payload(), signature);
}

void VersionWitness::record_meta(const std::string& unit, const std::string& cloud,
                                 std::uint64_t version, const std::string& session) {
  std::lock_guard<std::mutex> lk(mu_);
  Mark& m = meta_marks_[{unit, cloud}];
  if (version >= m.version) {
    m.version = version;
    m.session = session;
  }
}

void VersionWitness::record_share(const std::string& unit, const std::string& cloud,
                                  std::uint64_t version) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& v = share_marks_[{unit, cloud}];
  v = std::max(v, version);
}

void VersionWitness::record_unit(const std::string& unit, std::uint64_t version,
                                 const std::string& session) {
  std::lock_guard<std::mutex> lk(mu_);
  Mark& m = unit_marks_[unit];
  if (version >= m.version) {
    m.version = version;
    m.session = session;
  }
}

std::optional<VersionWitness::Mark> VersionWitness::meta_mark(
    const std::string& unit, const std::string& cloud) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = meta_marks_.find({unit, cloud});
  if (it == meta_marks_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::uint64_t> VersionWitness::share_mark(const std::string& unit,
                                                        const std::string& cloud) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = share_marks_.find({unit, cloud});
  if (it == share_marks_.end()) return std::nullopt;
  return it->second;
}

std::optional<VersionWitness::Mark> VersionWitness::unit_mark(
    const std::string& unit) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = unit_marks_.find(unit);
  if (it == unit_marks_.end()) return std::nullopt;
  return it->second;
}

void VersionWitness::forget_unit(const std::string& unit) {
  std::lock_guard<std::mutex> lk(mu_);
  unit_marks_.erase(unit);
  for (auto it = meta_marks_.begin(); it != meta_marks_.end();) {
    it = it->first.first == unit ? meta_marks_.erase(it) : std::next(it);
  }
  for (auto it = share_marks_.begin(); it != share_marks_.end();) {
    it = it->first.first == unit ? share_marks_.erase(it) : std::next(it);
  }
}

}  // namespace rockfs::depsky
