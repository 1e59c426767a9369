// One DepSpace replica: a deterministic tuple-space state machine. The
// replicated service (service.h) runs 3f+1 of these behind a quorum client.
// Replicas support checkpoint/restore durability (the enhancement of [11]
// the paper relies on, §5.3) and a Byzantine mode for fault-injection tests.
//
// The store keeps each tuple as its canonical encoding (serialize_tuple),
// computed once at insertion, in one ordered container. Encodings sort by
// arity and then field by field, so the tuples whose leading fields equal a
// template's exact leading fields form one contiguous range: a lookup visits
// that range, not the whole store. Each tuple also carries its insertion
// number, which gives every answer and the checkpoint their oldest-first
// order.
//
// An honest rdall answer to a template whose exact fields all lead is kept,
// as a shared immutable buffer keyed by the template's encoded exact prefix,
// until a write inserts or removes a tuple in that range: a repeat read of an
// unchanged range costs one lookup. The kept answers are never part of a
// checkpoint; a restored replica starts with none.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/result.h"
#include "coord/tuple.h"

namespace rockfs::obs {
class Counter;
}  // namespace rockfs::obs

namespace rockfs::coord {

class Replica {
 public:
  explicit Replica(std::string name);

  const std::string& name() const noexcept { return name_; }

  // ---- deterministic state-machine operations ----

  /// Inserts a tuple.
  void out(const Tuple& tuple);
  /// Reads (non-destructively) the oldest matching tuple.
  std::optional<Tuple> rdp(const Template& pattern) const;
  /// Takes (removes and returns) the oldest matching tuple.
  std::optional<Tuple> inp(const Template& pattern);
  /// All matching tuples, oldest first (the decoded rdall_shared answer).
  std::vector<Tuple> rdall(const Template& pattern);
  /// Atomically: insert `tuple` iff no tuple matches `pattern`. True if inserted.
  bool cas(const Template& pattern, const Tuple& tuple);
  /// Atomically: remove all tuples matching `pattern`, insert `tuple`.
  /// Returns the number of removed tuples.
  std::size_t replace(const Template& pattern, const Tuple& tuple);
  /// Conditional replace: remove all tuples matching `pattern` and insert
  /// `tuple` ONLY if at least one matched. Returns the number removed (0 =
  /// nothing matched, nothing inserted). The CAS arm for moving a tuple from
  /// one exact state to another without ever destroying or duplicating it.
  std::size_t swap(const Template& pattern, const Tuple& tuple);
  std::size_t count(const Template& pattern) const;
  std::size_t size() const noexcept { return store_.size(); }

  /// rdp's and rdall's answers in their voting encodings (encode_opt_tuple,
  /// encode_tuples), spliced from the stored encodings. Byte-identical to
  /// encoding the Tuple answers: the size of these bytes prices the reply.
  Bytes rdp_answer(const Template& pattern) const;
  Bytes rdall_answer(const Template& pattern) { return *rdall_shared(pattern); }
  /// rdall's answer as a shared buffer. An answer to a template with no
  /// exact field after a wildcard is kept once spliced and handed out again
  /// (coord.rdall.reused) until a write lands in its range; every other read
  /// splices its answer (coord.rdall.spliced).
  std::shared_ptr<const Bytes> rdall_shared(const Template& pattern);

  // ---- durability ----

  Bytes checkpoint() const;
  static Result<Replica> restore(std::string name, BytesView checkpoint);

  // ---- fault injection ----

  void set_byzantine(bool b) noexcept { byzantine_ = b; }
  bool byzantine() const noexcept { return byzantine_; }
  /// Corrupts a read result when Byzantine (used by the service layer).
  Tuple maybe_lie(Tuple honest) const;

 private:
  /// Unsigned lexicographic order on encodings, by memcmp: std::less<Bytes>
  /// goes through vector<unsigned char>'s operator<=>, where GCC 12 at -O3
  /// reports a false -Wstringop-overread. Transparent, so a lookup can take
  /// a view of a key.
  struct ByteOrder {
    using is_transparent = void;
    bool operator()(BytesView a, BytesView b) const noexcept;
  };
  /// Encoding -> insertion number (a multimap: a tuple space may hold equal
  /// tuples).
  using Store = std::multimap<Bytes, std::uint64_t, ByteOrder>;
  /// A template's encoded exact prefix -> the rdall answer kept for it.
  using Answers = std::map<Bytes, std::shared_ptr<const Bytes>, ByteOrder>;
  /// How a template is looked up (replica.cpp).
  struct Lookup;

  /// The tuples matching the looked-up template, oldest first.
  std::vector<Store::const_iterator> find(const Lookup& lookup) const;
  /// Every write goes through these two; each drops the kept answers whose
  /// range holds the tuple.
  void insert(Bytes encoding);
  void erase(Store::const_iterator it);
  void drop_answers(BytesView encoding);

  std::string name_;
  Store store_;
  std::uint64_t next_ = 0;  // insertion number of the next tuple
  Answers answers_;
  obs::Counter* reused_ = nullptr;   // coord.rdall.reused
  obs::Counter* spliced_ = nullptr;  // coord.rdall.spliced
  bool byzantine_ = false;
};

}  // namespace rockfs::coord
