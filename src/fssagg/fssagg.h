// Forward-secure stream integrity for the recovery log, after Ma & Tsudik's
// FssAgg MAC scheme (ACM TOS 2009), as used in paper §3.2:
//
//     U_i = H(U_{i-1} | mac_{A_i}(L_i)),   A_i = H(A_{i-1})
//
// Two independent chains (keys A and B, per the paper's setup that exchanges
// A_1 and B_1 with two different parties) evolve in lockstep. Because keys
// evolve through a one-way function and are erased after use, an attacker who
// compromises the device at time t cannot forge or re-MAC entries with index
// < t: insertions, modifications, deletions, reorderings and truncations are
// all detected by re-verification from A_1/B_1.
#pragma once

#include <cstddef>
#include <vector>

#include "common/bytes.h"
#include "crypto/drbg.h"

namespace rockfs::fssagg {

/// FssAgg.Kg: the two initial symmetric keys exchanged at setup.
struct FssAggKeys {
  Bytes a1;
  Bytes b1;

  bool operator==(const FssAggKeys&) const = default;
};

FssAggKeys fssagg_keygen(crypto::Drbg& drbg);

/// Per-entry authentication tags (sigma_i under each chain's current key).
struct FssAggTag {
  Bytes mac_a;
  Bytes mac_b;
};

/// A log entry together with the tags it was sealed with.
struct TaggedEntry {
  Bytes entry;
  FssAggTag tag;
};

/// Signer state held (in RAM only) by the RockFS agent. Old keys are
/// overwritten on every append (FssAgg.Upd), giving forward security.
class FssAggSigner {
 public:
  explicit FssAggSigner(FssAggKeys initial);

  /// Resumes a chain from persisted state: the CURRENT (already evolved)
  /// keys, the running aggregates, and the number of entries sealed so far.
  FssAggSigner(FssAggKeys current, Bytes aggregate_a, Bytes aggregate_b,
               std::size_t count);

  FssAggSigner(const FssAggSigner&) = default;
  FssAggSigner& operator=(const FssAggSigner&) = default;
  FssAggSigner(FssAggSigner&&) = default;
  FssAggSigner& operator=(FssAggSigner&&) = default;
  /// Zeroizes the current keys: a scraped RAM image of a dropped signer must
  /// not leak the chain's future key stream.
  ~FssAggSigner();

  /// FssAgg.Asig + FssAgg.Upd: MACs the entry with the current keys, folds the
  /// MACs into both aggregates, evolves the keys, and returns the entry tags.
  FssAggTag append(BytesView entry);

  /// Current aggregate of the A / B chain (valid over `count()` entries).
  const Bytes& aggregate_a() const noexcept { return agg_a_; }
  const Bytes& aggregate_b() const noexcept { return agg_b_; }
  std::size_t count() const noexcept { return count_; }

 private:
  Bytes key_a_;
  Bytes key_b_;
  Bytes agg_a_;
  Bytes agg_b_;
  std::size_t count_ = 0;
};

/// Result of FssAgg.Aver over a stored log.
struct FssAggVerifyReport {
  /// True iff every per-entry MAC and both aggregates check out and the entry
  /// count matches the expected count recorded in the coordination service.
  bool ok = false;
  /// Indices (0-based) of entries whose per-entry MACs failed — these are the
  /// entries the recovery procedure must discard.
  std::vector<std::size_t> corrupt_entries;
  /// True when the recomputed aggregate differs from the stored one, which is
  /// the signature of truncation / reordering / wholesale replacement.
  bool aggregate_mismatch = false;
  /// True when the log length differs from the expected count.
  bool count_mismatch = false;
};

/// FssAgg.Aver: verifies a whole log against the initial keys, the stored
/// aggregates, and the entry count recorded out-of-band.
FssAggVerifyReport fssagg_verify(const FssAggKeys& initial,
                                 const std::vector<TaggedEntry>& log, BytesView aggregate_a,
                                 BytesView aggregate_b, std::size_t expected_count);

/// A key rotation the verifier must honor: entries with index >= at_index are
/// MAC'd under the stream that starts from `keys` (evolving per entry as
/// usual); the aggregates fold straight across the boundary.
struct FssAggRotation {
  std::size_t at_index = 0;
  FssAggKeys keys;

  bool operator==(const FssAggRotation&) const = default;
};

/// FssAgg.Aver across key rotations: like fssagg_verify, but switches to each
/// rotation's fresh key stream at its index. Rotations must be sorted by
/// at_index; an empty list degenerates to fssagg_verify. A short loop over
/// FssAggVerifier.
FssAggVerifyReport fssagg_verify_rotated(const FssAggKeys& initial,
                                         const std::vector<FssAggRotation>& rotations,
                                         const std::vector<TaggedEntry>& log,
                                         BytesView aggregate_a, BytesView aggregate_b,
                                         std::size_t expected_count);

/// FssAgg.Aver one entry at a time. Its state after entry i depends only on
/// the keys and on entries 0..i, so a verifier kept after a verified prefix
/// takes the entries appended since without re-checking the prefix.
class FssAggVerifier {
 public:
  explicit FssAggVerifier(const FssAggKeys& initial);

  /// Switches to the fresh key stream `keys` from the next entry on: an
  /// FssAggRotation at index count().
  void rotate(const FssAggKeys& keys);
  /// Checks the next entry's tags under the current keys, folds the stored
  /// tags into both aggregates and evolves the keys.
  void add(BytesView entry, const FssAggTag& tag);
  /// The verdict over the entries added so far.
  FssAggVerifyReport report(BytesView aggregate_a, BytesView aggregate_b,
                            std::size_t expected_count) const;
  /// Entries added so far.
  std::size_t count() const noexcept { return count_; }

 private:
  Bytes key_a_;
  Bytes key_b_;
  Bytes agg_a_;
  Bytes agg_b_;
  std::size_t count_ = 0;
  std::vector<std::size_t> corrupt_;
};

/// The deterministic seed value of both aggregates before any entry.
Bytes fssagg_initial_aggregate();

/// One-way key evolution step (FssAgg.Upd), exposed so that a verifier or a
/// resuming signer can advance A_1 to A_i.
Bytes fssagg_evolve_key(BytesView key);

}  // namespace rockfs::fssagg
