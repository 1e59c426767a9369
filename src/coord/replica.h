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
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "common/result.h"
#include "coord/tuple.h"

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
  /// All matching tuples, oldest first.
  std::vector<Tuple> rdall(const Template& pattern) const;
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
  Bytes rdall_answer(const Template& pattern) const;

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
  /// reports a false -Wstringop-overread.
  struct ByteOrder {
    bool operator()(BytesView a, BytesView b) const noexcept;
  };
  /// Encoding -> insertion number (a multimap: a tuple space may hold equal
  /// tuples).
  using Store = std::multimap<Bytes, std::uint64_t, ByteOrder>;

  /// The tuples matching `pattern`, oldest first.
  std::vector<Store::const_iterator> find(const Template& pattern) const;
  void insert(Bytes encoding) { store_.emplace(std::move(encoding), next_++); }

  std::string name_;
  Store store_;
  std::uint64_t next_ = 0;  // insertion number of the next tuple
  bool byzantine_ = false;
};

}  // namespace rockfs::coord
