#include "fssagg/fssagg.h"

#include <stdexcept>

#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace rockfs::fssagg {

Bytes fssagg_evolve_key(BytesView key) { return crypto::sha256(key); }

namespace {

Bytes evolve(BytesView key) { return fssagg_evolve_key(key); }

Bytes fold(BytesView aggregate, BytesView entry_mac) {
  return crypto::sha256(concat({aggregate, entry_mac}));
}

Bytes entry_mac(BytesView key, std::size_t index, BytesView entry) {
  // Bind the entry's position into the MAC so identical payloads at different
  // indices produce different tags.
  Bytes input;
  append_u64(input, index);
  append(input, entry);
  return crypto::hmac_sha256(key, input);
}

}  // namespace

Bytes fssagg_initial_aggregate() {
  return crypto::sha256(to_bytes("rockfs.fssagg.aggregate.v1"));
}

FssAggKeys fssagg_keygen(crypto::Drbg& drbg) {
  return {drbg.generate(32), drbg.generate(32)};
}

FssAggSigner::FssAggSigner(FssAggKeys initial)
    : key_a_(std::move(initial.a1)),
      key_b_(std::move(initial.b1)),
      agg_a_(fssagg_initial_aggregate()),
      agg_b_(fssagg_initial_aggregate()) {
  if (key_a_.size() != 32 || key_b_.size() != 32) {
    throw std::invalid_argument("FssAggSigner: keys must be 32 bytes");
  }
}

FssAggSigner::FssAggSigner(FssAggKeys current, Bytes aggregate_a, Bytes aggregate_b,
                           std::size_t count)
    : key_a_(std::move(current.a1)),
      key_b_(std::move(current.b1)),
      agg_a_(std::move(aggregate_a)),
      agg_b_(std::move(aggregate_b)),
      count_(count) {
  if (key_a_.size() != 32 || key_b_.size() != 32 || agg_a_.size() != 32 ||
      agg_b_.size() != 32) {
    throw std::invalid_argument("FssAggSigner: resume state must be 32-byte values");
  }
}

FssAggSigner::~FssAggSigner() {
  secure_zero(key_a_);
  secure_zero(key_b_);
}

FssAggTag FssAggSigner::append(BytesView entry) {
  FssAggTag tag;
  tag.mac_a = entry_mac(key_a_, count_, entry);
  tag.mac_b = entry_mac(key_b_, count_, entry);
  agg_a_ = fold(agg_a_, tag.mac_a);
  agg_b_ = fold(agg_b_, tag.mac_b);
  // FssAgg.Upd: one-way key evolution; the previous keys are overwritten and
  // thus unrecoverable from the new state.
  key_a_ = evolve(key_a_);
  key_b_ = evolve(key_b_);
  ++count_;
  return tag;
}

FssAggVerifyReport fssagg_verify(const FssAggKeys& initial,
                                 const std::vector<TaggedEntry>& log, BytesView aggregate_a,
                                 BytesView aggregate_b, std::size_t expected_count) {
  return fssagg_verify_rotated(initial, {}, log, aggregate_a, aggregate_b, expected_count);
}

FssAggVerifyReport fssagg_verify_rotated(const FssAggKeys& initial,
                                         const std::vector<FssAggRotation>& rotations,
                                         const std::vector<TaggedEntry>& log,
                                         BytesView aggregate_a, BytesView aggregate_b,
                                         std::size_t expected_count) {
  FssAggVerifier verifier(initial);
  std::size_t next_rotation = 0;
  for (const TaggedEntry& te : log) {
    if (next_rotation < rotations.size() &&
        rotations[next_rotation].at_index == verifier.count()) {
      verifier.rotate(rotations[next_rotation++].keys);
    }
    verifier.add(te.entry, te.tag);
  }
  return verifier.report(aggregate_a, aggregate_b, expected_count);
}

FssAggVerifier::FssAggVerifier(const FssAggKeys& initial)
    : key_a_(initial.a1),
      key_b_(initial.b1),
      agg_a_(fssagg_initial_aggregate()),
      agg_b_(fssagg_initial_aggregate()) {}

void FssAggVerifier::rotate(const FssAggKeys& keys) {
  key_a_ = keys.a1;
  key_b_ = keys.b1;
}

void FssAggVerifier::add(BytesView entry, const FssAggTag& tag) {
  const Bytes want_a = entry_mac(key_a_, count_, entry);
  const Bytes want_b = entry_mac(key_b_, count_, entry);
  if (!ct_equal(want_a, tag.mac_a) || !ct_equal(want_b, tag.mac_b)) {
    corrupt_.push_back(count_);
  }
  // The aggregates are folded over the *stored* tags: a tampered tag will
  // surface either as a per-entry mismatch above or as an aggregate
  // mismatch in report(), and a consistent forgery of both requires past keys.
  agg_a_ = fold(agg_a_, tag.mac_a);
  agg_b_ = fold(agg_b_, tag.mac_b);
  key_a_ = evolve(key_a_);
  key_b_ = evolve(key_b_);
  ++count_;
}

FssAggVerifyReport FssAggVerifier::report(BytesView aggregate_a, BytesView aggregate_b,
                                          std::size_t expected_count) const {
  FssAggVerifyReport report;
  report.corrupt_entries = corrupt_;
  report.count_mismatch = count_ != expected_count;
  report.aggregate_mismatch =
      !ct_equal(agg_a_, aggregate_a) || !ct_equal(agg_b_, aggregate_b);
  report.ok = !report.count_mismatch && !report.aggregate_mismatch &&
              report.corrupt_entries.empty();
  return report;
}

}  // namespace rockfs::fssagg
