// Tuple-space vocabulary for the DepSpace-like coordination service
// (paper §5.3). Tuples are ordered lists of strings; templates match tuples
// field-by-field with "*" wildcards, exactly like DepSpace's rdp/inp
// interface. Binary payloads are base64-encoded by callers.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace rockfs::coord {

using Tuple = std::vector<std::string>;

/// A match pattern: each field is either an exact string or a wildcard.
class Template {
 public:
  Template() = default;
  /// Builds from fields where "*" is the wildcard.
  static Template of(std::vector<std::string> fields);

  std::size_t size() const noexcept { return fields_.size(); }

  const std::vector<std::optional<std::string>>& fields() const noexcept { return fields_; }

 private:
  std::vector<std::optional<std::string>> fields_;  // nullopt = wildcard
};

/// Canonical serializations used for replica voting and durability.
Bytes serialize_tuple(const Tuple& t);
/// Inverse of serialize_tuple. Throws unless `b` is exactly one encoding
/// (truncated fields and trailing bytes both fail), so every accepted
/// buffer re-serializes to itself.
Tuple deserialize_tuple(BytesView b);

/// Canonical encodings of rdp/inp answers (a presence byte, then the tuple)
/// and of rdall answers (a u32 count, then each tuple length-prefixed): the
/// bytes replicas vote on, whose size also prices the reply.
Bytes encode_opt_tuple(const std::optional<Tuple>& t);
std::optional<Tuple> decode_opt_tuple(BytesView b);
Bytes encode_tuples(const std::vector<Tuple>& ts);
std::vector<Tuple> decode_tuples(BytesView b);
/// The tuples that the rdall answer `answer` holds after those of the
/// earlier answer `known`: none when the two are equal, nullopt unless
/// `known`'s tuples are `answer`'s leading tuples. That is one memcmp of
/// `known`'s bytes past its count; only the added tuples are decoded.
std::optional<std::vector<Tuple>> decode_tuples_after(BytesView known, BytesView answer);

}  // namespace rockfs::coord
