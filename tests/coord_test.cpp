#include <gtest/gtest.h>

#include <deque>
#include <memory>

#include "common/hex.h"
#include "common/rng.h"
#include "coord/service.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "scfs/lease.h"

namespace rockfs::coord {
namespace {

// ------------------------------------------------------------------- Tuple

TEST(TupleMatch, ExactAndWildcard) {
  Replica r("r0");
  r.out({"inode", "/docs/a.txt", "42"});
  EXPECT_EQ(r.count(Template::of({"inode", "/docs/a.txt", "42"})), 1u);
  EXPECT_EQ(r.count(Template::of({"inode", "*", "*"})), 1u);
  EXPECT_EQ(r.count(Template::of({"*", "*", "42"})), 1u);
  EXPECT_EQ(r.count(Template::of({"inode", "/docs/b.txt", "*"})), 0u);
  EXPECT_EQ(r.count(Template::of({"inode", "*", "43"})), 0u);
  EXPECT_EQ(r.count(Template::of({"inode", "*"})), 0u);  // arity mismatch
}

TEST(TupleSerialize, RoundTrip) {
  const Tuple t{"a", "", "multi word field", "42"};
  EXPECT_EQ(deserialize_tuple(serialize_tuple(t)), t);
  EXPECT_EQ(deserialize_tuple(serialize_tuple(Tuple{})), Tuple{});
}

TEST(TupleTail, DecodesOnlyWhatALongerAnswerAdds) {
  const std::vector<Tuple> known = {{"rocklog", "alice", "000000000001", "ab"},
                                    {"rocklog", "alice", "000000000002", "cd"}};
  const Bytes known_bytes = encode_tuples(known);
  std::vector<Tuple> longer = known;
  longer.push_back({"rocklog", "alice", "000000000003", "ef"});
  longer.push_back({"rocklog", "alice", "000000000004", ""});

  const auto same = decode_tuples_after(known_bytes, known_bytes);
  ASSERT_TRUE(same.has_value());
  EXPECT_TRUE(same->empty());
  const auto added = decode_tuples_after(known_bytes, encode_tuples(longer));
  ASSERT_TRUE(added.has_value());
  EXPECT_EQ(*added, std::vector<Tuple>(longer.begin() + 2, longer.end()));

  // The known answer's last byte differs.
  std::vector<Tuple> last_byte = longer;
  last_byte[1][3] = "ce";
  EXPECT_FALSE(decode_tuples_after(known_bytes, encode_tuples(last_byte)).has_value());
  // The known answer's last tuple grew a field: its length prefix differs,
  // and its old bytes still lead the answer's.
  std::vector<Tuple> length = longer;
  length[1].push_back("");
  EXPECT_FALSE(decode_tuples_after(known_bytes, encode_tuples(length)).has_value());
  // The answer lost a known tuple.
  EXPECT_FALSE(
      decode_tuples_after(known_bytes, encode_tuples({known.front()})).has_value());
  EXPECT_FALSE(decode_tuples_after(known_bytes, encode_tuples({})).has_value());
}

// ----------------------------------------------------------------- Replica

TEST(Replica, OutRdpInp) {
  Replica r("r0");
  r.out({"k", "v1"});
  r.out({"k", "v2"});
  EXPECT_EQ(r.size(), 2u);
  // rdp returns the oldest match without removing it.
  auto read = r.rdp(Template::of({"k", "*"}));
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ((*read)[1], "v1");
  EXPECT_EQ(r.size(), 2u);
  // inp removes it.
  auto taken = r.inp(Template::of({"k", "*"}));
  ASSERT_TRUE(taken.has_value());
  EXPECT_EQ((*taken)[1], "v1");
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ((*r.rdp(Template::of({"k", "*"})))[1], "v2");
}

TEST(Replica, RdallAndCount) {
  Replica r("r0");
  r.out({"log", "f1", "0"});
  r.out({"log", "f1", "1"});
  r.out({"log", "f2", "0"});
  EXPECT_EQ(r.rdall(Template::of({"log", "f1", "*"})).size(), 2u);
  EXPECT_EQ(r.count(Template::of({"log", "*", "*"})), 3u);
  EXPECT_TRUE(r.rdall(Template::of({"none", "*", "*"})).empty());
}

TEST(Replica, CasSemantics) {
  Replica r("r0");
  EXPECT_TRUE(r.cas(Template::of({"lock", "f1", "*"}), {"lock", "f1", "alice"}));
  // Second cas on the same lock fails (lock already held).
  EXPECT_FALSE(r.cas(Template::of({"lock", "f1", "*"}), {"lock", "f1", "mallory"}));
  EXPECT_EQ((*r.rdp(Template::of({"lock", "f1", "*"})))[2], "alice");
}

TEST(Replica, ReplaceSemantics) {
  Replica r("r0");
  r.out({"session", "alice", "key1"});
  r.out({"session", "alice", "key2"});
  EXPECT_EQ(r.replace(Template::of({"session", "alice", "*"}), {"session", "alice", "key3"}),
            2u);
  const auto all = r.rdall(Template::of({"session", "alice", "*"}));
  ASSERT_EQ(all.size(), 1u);
  EXPECT_EQ(all[0][2], "key3");
  // Replace with no match just inserts.
  EXPECT_EQ(r.replace(Template::of({"session", "bob", "*"}), {"session", "bob", "k"}), 0u);
}

TEST(Replica, CheckpointRestore) {
  Replica r("r0");
  r.out({"a", "1"});
  r.out({"b", "2"});
  const Bytes cp = r.checkpoint();
  auto restored = Replica::restore("r1", cp);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->size(), 2u);
  EXPECT_TRUE(restored->rdp(Template::of({"a", "*"})).has_value());

  Bytes bad = cp;
  bad.resize(bad.size() - 1);
  EXPECT_EQ(Replica::restore("rx", bad).code(), ErrorCode::kCorrupted);
}

// ------------------------------------------------ differential vs a scan

// The reference tuple space: a deque searched front to back, with its own
// copy of the canonical tuple encoding. The indexed Replica must agree with
// it on every answer, every size and every checkpoint byte.
class ScanReplica {
 public:
  static Bytes encode(const Tuple& t) {
    Bytes out;
    append_u32(out, static_cast<std::uint32_t>(t.size()));
    for (const auto& f : t) append_lp(out, to_bytes(f));
    return out;
  }

  void out(const Tuple& t) { store_.push_back(t); }
  std::optional<Tuple> rdp(const Template& p) const {
    for (const auto& t : store_) {
      if (matches(p, t)) return t;
    }
    return std::nullopt;
  }
  std::optional<Tuple> inp(const Template& p) {
    for (auto it = store_.begin(); it != store_.end(); ++it) {
      if (matches(p, *it)) {
        Tuple t = *it;
        store_.erase(it);
        return t;
      }
    }
    return std::nullopt;
  }
  std::vector<Tuple> rdall(const Template& p) const {
    std::vector<Tuple> out;
    for (const auto& t : store_) {
      if (matches(p, t)) out.push_back(t);
    }
    return out;
  }
  bool cas(const Template& p, const Tuple& t) {
    if (rdp(p).has_value()) return false;
    out(t);
    return true;
  }
  std::size_t replace(const Template& p, const Tuple& t) {
    const std::size_t removed = remove_all(p);
    out(t);
    return removed;
  }
  std::size_t swap(const Template& p, const Tuple& t) {
    const std::size_t removed = remove_all(p);
    if (removed > 0) out(t);
    return removed;
  }
  std::size_t count(const Template& p) const {
    std::size_t n = 0;
    for (const auto& t : store_) n += matches(p, t) ? 1 : 0;
    return n;
  }
  std::size_t size() const { return store_.size(); }
  Bytes checkpoint() const {
    Bytes out;
    append_u64(out, store_.size());
    for (const auto& t : store_) append_lp(out, encode(t));
    return out;
  }

 private:
  static bool matches(const Template& p, const Tuple& t) {
    if (p.size() != t.size()) return false;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (p.fields()[i].has_value() && *p.fields()[i] != t[i]) return false;
    }
    return true;
  }
  std::size_t remove_all(const Template& p) {
    const std::size_t before = store_.size();
    std::erase_if(store_, [&](const Tuple& t) { return matches(p, t); });
    return before - store_.size();
  }

  std::deque<Tuple> store_;
};

// Random tuples and templates over a small vocabulary, so that patterns hit:
// arity 1-13, the empty field, a literal "*", fields past the small-string
// size, a NUL and a high byte (the index orders raw bytes).
class TupleScript {
 public:
  explicit TupleScript(std::uint64_t seed) : rng_(seed) {}

  std::string field() {
    static const std::vector<std::string> kVocab = {
        "", "a", "b", "rocklog", "inode", "*", "000000000001", "000000000002",
        "a-field-longer-than-sso-buffers", std::string("a\0b", 3), "\xff", "\x7f\x80"};
    return kVocab[rng_.next_below(kVocab.size())];
  }
  Tuple tuple() {
    // Re-insert a tuple seen before a quarter of the time (duplicates).
    if (!seen_.empty() && rng_.next_below(4) == 0) return seen_[rng_.next_below(seen_.size())];
    Tuple t(1 + rng_.next_below(13));
    for (auto& f : t) f = field();
    seen_.push_back(t);
    return t;
  }
  // Mostly a seen tuple with wildcards anywhere, field 0 included.
  Template pattern() {
    std::vector<std::string> fields;
    if (seen_.empty() || rng_.next_below(8) == 0) {
      fields.resize(1 + rng_.next_below(13));
      for (auto& f : fields) f = field();
    } else {
      fields = seen_[rng_.next_below(seen_.size())];
    }
    const std::uint64_t wild = rng_.next_below(3);  // 0: exact, 1: some, 2: most
    for (auto& f : fields) {
      if (wild > 0 && rng_.next_below(4) < wild + 1) f = "*";
    }
    return Template::of(std::move(fields));
  }
  std::uint64_t op() { return rng_.next_below(100); }

 private:
  Rng rng_;
  std::vector<Tuple> seen_;
};

TEST(ReplicaDifferential, AgreesWithTheLinearScanOnRandomScripts) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    TupleScript script(seed);
    Replica rep("r0");
    ScanReplica ref;
    constexpr int kSteps = 400;
    for (int step = 0; step < kSteps; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      if (step == kSteps / 2) {
        // Continue on a replica restored from its own checkpoint.
        auto restored = Replica::restore("r1", rep.checkpoint());
        ASSERT_TRUE(restored.ok());
        rep = std::move(*restored);
      }
      const std::uint64_t op = script.op();
      if (op < 30) {
        const Tuple t = script.tuple();
        rep.out(t);
        ref.out(t);
      } else if (op < 44) {
        const Template p = script.pattern();
        ASSERT_EQ(rep.rdp(p), ref.rdp(p));
        // The spliced answer is the encoding of the Tuple answer, byte for byte.
        ASSERT_EQ(rep.rdp_answer(p), encode_opt_tuple(ref.rdp(p)));
      } else if (op < 52) {
        const Template p = script.pattern();
        ASSERT_EQ(rep.inp(p), ref.inp(p));
      } else if (op < 64) {
        const Template p = script.pattern();
        ASSERT_EQ(rep.rdall(p), ref.rdall(p));
        ASSERT_EQ(rep.rdall_answer(p), encode_tuples(ref.rdall(p)));
      } else if (op < 72) {
        const Template p = script.pattern();
        const Tuple t = script.tuple();
        ASSERT_EQ(rep.cas(p, t), ref.cas(p, t));
      } else if (op < 82) {
        const Template p = script.pattern();
        const Tuple t = script.tuple();
        ASSERT_EQ(rep.replace(p, t), ref.replace(p, t));
      } else if (op < 90) {
        const Template p = script.pattern();
        const Tuple t = script.tuple();
        ASSERT_EQ(rep.swap(p, t), ref.swap(p, t));
      } else {
        const Template p = script.pattern();
        ASSERT_EQ(rep.count(p), ref.count(p));
      }
      ASSERT_EQ(rep.size(), ref.size());
      ASSERT_EQ(rep.checkpoint(), ref.checkpoint());
    }
  }
}

// ----------------------------------------------------------------- Service

struct ServiceFixture : ::testing::Test {
  sim::SimClockPtr clock = std::make_shared<sim::SimClock>();
  CoordinationService svc{clock, /*f=*/1, /*seed=*/123};
};

TEST_F(ServiceFixture, HasThreeFPlusOneReplicas) {
  EXPECT_EQ(svc.replica_count(), 4u);
  EXPECT_EQ(svc.quorum(), 3u);
}

TEST_F(ServiceFixture, OutThenRdp) {
  auto w = svc.out({"meta", "/f", "v1"});
  ASSERT_TRUE(w.value.ok());
  EXPECT_GT(w.delay, 0);
  auto r = svc.rdp(Template::of({"meta", "/f", "*"}));
  ASSERT_TRUE(r.value.ok());
  ASSERT_TRUE(r.value->has_value());
  EXPECT_EQ((**r.value)[2], "v1");
}

TEST_F(ServiceFixture, ToleratesOneByzantineReplica) {
  svc.out({"meta", "/f", "v1"}).value.expect("out");
  svc.replica(0).set_byzantine(true);
  auto r = svc.rdp(Template::of({"meta", "/f", "*"}));
  ASSERT_TRUE(r.value.ok());
  ASSERT_TRUE(r.value->has_value());
  EXPECT_EQ((**r.value)[2], "v1");  // the lie was outvoted
  auto c = svc.count(Template::of({"meta", "*", "*"}));
  ASSERT_TRUE(c.value.ok());
  EXPECT_EQ(*c.value, 1u);
}

TEST_F(ServiceFixture, ToleratesOneCrashedReplica) {
  svc.out({"meta", "/f", "v1"}).value.expect("out");
  svc.set_replica_down(3, true);
  auto r = svc.rdp(Template::of({"meta", "/f", "*"}));
  ASSERT_TRUE(r.value.ok());
  EXPECT_TRUE(r.value->has_value());
  EXPECT_TRUE(svc.out({"meta", "/g", "v1"}).value.ok());
}

TEST_F(ServiceFixture, TwoFaultsBreakTheQuorum) {
  svc.out({"meta", "/f", "v1"}).value.expect("out");
  svc.set_replica_down(2, true);
  svc.set_replica_down(3, true);
  auto r = svc.rdp(Template::of({"meta", "/f", "*"}));
  EXPECT_EQ(r.value.code(), ErrorCode::kUnavailable);
}

TEST_F(ServiceFixture, ByzantinePlusCrashBreaksSafetyBound) {
  // f=1 tolerates one fault of any kind; one crash + one liar exceeds it.
  svc.out({"meta", "/f", "v1"}).value.expect("out");
  svc.set_replica_down(3, true);
  svc.replica(0).set_byzantine(true);
  auto r = svc.rdp(Template::of({"meta", "/f", "*"}));
  EXPECT_EQ(r.value.code(), ErrorCode::kUnavailable);  // detected, not wrong
}

TEST_F(ServiceFixture, CasIsAtomicAcrossReplicas) {
  auto first = svc.cas(Template::of({"lock", "/f", "*"}), {"lock", "/f", "alice"});
  ASSERT_TRUE(first.value.ok());
  EXPECT_TRUE(*first.value);
  auto second = svc.cas(Template::of({"lock", "/f", "*"}), {"lock", "/f", "bob"});
  ASSERT_TRUE(second.value.ok());
  EXPECT_FALSE(*second.value);
}

TEST_F(ServiceFixture, InpRemovesEverywhere) {
  svc.out({"q", "job1"}).value.expect("out");
  auto taken = svc.inp(Template::of({"q", "*"}));
  ASSERT_TRUE(taken.value.ok());
  ASSERT_TRUE(taken.value->has_value());
  auto again = svc.inp(Template::of({"q", "*"}));
  ASSERT_TRUE(again.value.ok());
  EXPECT_FALSE(again.value->has_value());
}

TEST_F(ServiceFixture, RdallVotesOnWholeSets) {
  svc.out({"log", "f", "0"}).value.expect("out");
  svc.out({"log", "f", "1"}).value.expect("out");
  svc.replica(1).set_byzantine(true);
  auto all = svc.rdall(Template::of({"log", "f", "*"}));
  ASSERT_TRUE(all.value.ok());
  EXPECT_EQ(all.value->size(), 2u);
  EXPECT_EQ((*all.value)[1][2], "1");
}

// Each replica keeps its rdall answer to a template with no exact field
// after a wildcard until a write lands in the template's range.
// coord.rdall.reused and coord.rdall.spliced count every replica answer.
TEST_F(ServiceFixture, RdallReusesAnAnswerUntilItsRangeChanges) {
  struct Counts {
    std::uint64_t reused = 0;
    std::uint64_t spliced = 0;
    bool operator==(const Counts&) const = default;
  };
  const auto read = [&](const Template& pattern, std::size_t expect_tuples) {
    const auto counter = [](const char* name) { return obs::metrics().counter(name).value(); };
    const Counts before{counter("coord.rdall.reused"), counter("coord.rdall.spliced")};
    auto r = svc.rdall(pattern);
    EXPECT_TRUE(r.value.ok());
    EXPECT_EQ(r.value.ok() ? r.value->size() : 0, expect_tuples);
    return Counts{counter("coord.rdall.reused") - before.reused,
                  counter("coord.rdall.spliced") - before.spliced};
  };
  const Template alice = Template::of({"log", "alice", "*"});
  const Template all = Template::of({"log", "*", "*"});
  const Template after_wildcard = Template::of({"log", "*", "0"});
  svc.out({"log", "alice", "0"}).value.expect("out");
  svc.out({"log", "bob", "0"}).value.expect("out");

  EXPECT_EQ(read(alice, 1), (Counts{0, 4}));
  EXPECT_EQ(read(alice, 1), (Counts{4, 0}));
  EXPECT_EQ(read(all, 2), (Counts{0, 4}));
  // Never kept: an exact field follows a wildcard.
  EXPECT_EQ(read(after_wildcard, 2), (Counts{0, 4}));
  EXPECT_EQ(read(after_wildcard, 2), (Counts{0, 4}));

  // Writes into the range: an insertion, a removal, a replace and a swap.
  svc.out({"log", "alice", "1"}).value.expect("out");
  EXPECT_EQ(read(alice, 2), (Counts{0, 4}));
  ASSERT_TRUE(svc.inp(Template::of({"log", "alice", "0"})).value.ok());
  EXPECT_EQ(read(alice, 1), (Counts{0, 4}));
  ASSERT_TRUE(svc.replace(Template::of({"log", "alice", "1"}), {"log", "alice", "2"}).value.ok());
  EXPECT_EQ(read(alice, 1), (Counts{0, 4}));
  ASSERT_TRUE(svc.swap(Template::of({"log", "alice", "2"}), {"log", "alice", "3"}).value.ok());
  EXPECT_EQ(read(alice, 1), (Counts{0, 4}));

  // Writes outside it: another user's record lands only in the wider range,
  // a tuple of another arity or tag in neither; a failed cas writes nothing.
  EXPECT_EQ(read(all, 2), (Counts{0, 4}));
  svc.out({"log", "bob", "1"}).value.expect("out");
  svc.out({"log", "alice"}).value.expect("out");
  svc.out({"lease", "alice", "0"}).value.expect("out");
  ASSERT_FALSE(*svc.cas(alice, {"log", "alice", "4"}).value);
  EXPECT_EQ(read(alice, 1), (Counts{4, 0}));
  EXPECT_EQ(read(all, 3), (Counts{0, 4}));

  // A restored replica starts with no kept answers.
  ASSERT_TRUE(svc.restore_replica(2, svc.checkpoint_replica(0)).ok());
  EXPECT_EQ(read(alice, 1), (Counts{3, 1}));

  // A replica turned Byzantine after it kept an answer still lies: with a
  // second replica down, its lie leaves no 2f+1 quorum.
  svc.replica(1).set_byzantine(true);
  svc.set_replica_down(3, true);
  EXPECT_EQ(svc.rdall(alice).value.code(), ErrorCode::kUnavailable);
  svc.set_replica_down(3, false);
  auto outvoted = svc.rdall(alice);
  ASSERT_TRUE(outvoted.value.ok());
  EXPECT_EQ(*outvoted.value, (std::vector<Tuple>{{"log", "alice", "3"}}));
}

TEST_F(ServiceFixture, ReplaceQuorum) {
  svc.out({"agg", "user", "old"}).value.expect("out");
  auto rep = svc.replace(Template::of({"agg", "user", "*"}), {"agg", "user", "new"});
  ASSERT_TRUE(rep.value.ok());
  EXPECT_EQ(*rep.value, 1u);
  EXPECT_EQ((**svc.rdp(Template::of({"agg", "user", "*"})).value)[2], "new");
}

TEST_F(ServiceFixture, CrashedReplicaRecoversFromCheckpoint) {
  svc.out({"meta", "/f", "v1"}).value.expect("out");
  // Replica 2 "crashes": wipe it by restoring an empty peer checkpoint later.
  const Bytes good_cp = svc.checkpoint_replica(0);
  // Simulate state loss + recovery from a healthy replica's checkpoint.
  ASSERT_TRUE(svc.restore_replica(2, good_cp).ok());
  auto r = svc.rdp(Template::of({"meta", "/f", "*"}));
  ASSERT_TRUE(r.value.ok());
  EXPECT_TRUE(r.value->has_value());
}

TEST_F(ServiceFixture, DelayReflectsQuorumNotSlowest) {
  // The reply delay must be positive and deterministic for a fixed seed.
  auto a = svc.out({"x", "1"});
  EXPECT_GT(a.delay, 0);
  EXPECT_LT(a.delay, 1'000'000);  // well under a second for metadata ops
}

// ------------------------------------------- lease tuples under faults

TEST_F(ServiceFixture, LeaseMintUnderByzantineReplicaStaysSingleHolder) {
  // Alice mints the path's first lease (epoch 1) via CAS; a Byzantine
  // replica then lies about every lease read. The quorum outvotes the lie,
  // so a contender still sees alice's live lease and its own mint CAS — the
  // only path to a fresh epoch — fails: never two concurrent holders.
  scfs::Lease alice{"/f", "alice", "a-s1", clock->now_us() + 30'000'000, 1, true};
  auto minted = svc.cas(scfs::lease_pattern("/f"), scfs::lease_tuple(alice));
  ASSERT_TRUE(minted.value.ok());
  EXPECT_TRUE(*minted.value);

  svc.replica(2).set_byzantine(true);
  auto read = scfs::read_lease(svc, "/f");
  ASSERT_TRUE(read.value.ok());
  ASSERT_TRUE(read.value->has_value());
  EXPECT_EQ((*read.value)->holder, "alice");  // the corrupted read was outvoted
  EXPECT_EQ((*read.value)->epoch, 1u);
  EXPECT_TRUE((*read.value)->held);

  scfs::Lease bob{"/f", "bob", "b-s1", clock->now_us() + 30'000'000, 1, true};
  auto stolen = svc.cas(scfs::lease_pattern("/f"), scfs::lease_tuple(bob));
  ASSERT_TRUE(stolen.value.ok());
  EXPECT_FALSE(*stolen.value);  // the tuple exists — no second mint
}

TEST_F(ServiceFixture, LeaseTakeoverUnderReplicaOutageIsStillExclusive) {
  // With f replicas down, the lease CAS and the eviction arm (a SINGLE
  // conditional swap, not an inp-then-out pair whose second half could die
  // and destroy the epoch) keep working on the remaining quorum — and the
  // swap can match at most once, so two contenders racing for an expired
  // lease cannot both win, and the loser leaves the store untouched.
  svc.set_replica_down(3, true);

  scfs::Lease dead{"/f", "alice", "a-s1", clock->now_us() - 1, 1, true};
  auto minted = svc.cas(scfs::lease_pattern("/f"), scfs::lease_tuple(dead));
  ASSERT_TRUE(minted.value.ok());
  ASSERT_TRUE(*minted.value);

  // Two contenders observe the same expired lease; both race the takeover.
  scfs::Lease bob{"/f", "bob", "b-s1", clock->now_us() + 30'000'000, 2, true};
  auto first = svc.swap(scfs::lease_exact(dead), scfs::lease_tuple(bob));
  ASSERT_TRUE(first.value.ok());
  EXPECT_EQ(*first.value, 1u);
  scfs::Lease carol{"/f", "carol", "c-s1", clock->now_us() + 30'000'000, 2, true};
  auto second = svc.swap(scfs::lease_exact(dead), scfs::lease_tuple(carol));
  ASSERT_TRUE(second.value.ok());
  EXPECT_EQ(*second.value, 0u);  // the loser observes the take, inserts nothing

  auto read = scfs::read_lease(svc, "/f");
  ASSERT_TRUE(read.value.ok());
  ASSERT_TRUE(read.value->has_value());
  EXPECT_EQ((*read.value)->holder, "bob");
  EXPECT_EQ((*read.value)->epoch, 2u);  // monotone across the eviction

  // Exactly one lease tuple for the path survives the race.
  auto n = svc.count(scfs::lease_pattern("/f"));
  ASSERT_TRUE(n.value.ok());
  EXPECT_EQ(*n.value, 1u);
}

TEST_F(ServiceFixture, EvictingOneHolderSparesOtherHoldersLeases) {
  // The eviction pattern has an exact holder after a wildcard path, so it
  // must match that holder's held leases and nobody else's.
  const std::int64_t expiry = clock->now_us() + 30'000'000;
  for (const scfs::Lease& l : {scfs::Lease{"/a", "mallory", "m-s1", expiry, 1, true},
                               scfs::Lease{"/b", "bob", "b-s1", expiry, 3, true},
                               scfs::Lease{"/c", "mallory", "m-s1", expiry, 2, false}}) {
    ASSERT_TRUE(*svc.cas(scfs::lease_pattern(l.path), scfs::lease_tuple(l)).value);
  }
  auto evicted = scfs::evict_holder_leases(svc, "mallory");
  ASSERT_TRUE(evicted.value.ok());
  EXPECT_EQ(*evicted.value, 1u);  // /a only: /c was already released

  auto a = scfs::read_lease(svc, "/a");
  ASSERT_TRUE(a.value.ok() && a.value->has_value());
  EXPECT_FALSE((*a.value)->held);
  EXPECT_EQ((*a.value)->epoch, 2u);
  auto b = scfs::read_lease(svc, "/b");
  ASSERT_TRUE(b.value.ok() && b.value->has_value());
  EXPECT_TRUE((*b.value)->held);
  EXPECT_EQ((*b.value)->holder, "bob");
  EXPECT_EQ((*b.value)->epoch, 3u);
}

TEST(ServiceF2, FiveFaultsConfigurationWorks) {
  auto clock = std::make_shared<sim::SimClock>();
  CoordinationService svc(clock, /*f=*/2, /*seed=*/5);
  EXPECT_EQ(svc.replica_count(), 7u);
  svc.out({"k", "v"}).value.expect("out");
  svc.replica(0).set_byzantine(true);
  svc.replica(1).set_byzantine(true);
  auto r = svc.rdp(Template::of({"k", "*"}));
  ASSERT_TRUE(r.value.ok());
  EXPECT_EQ((**r.value)[1], "v");
}

// Every (status, answer, delay) of a seeded service script at f = 1 and 2 —
// a Byzantine replica, a down one, one restored from a peer, a slow one and
// one with transient errors, so rounds win, lose and fail their quorum —
// folded into one digest. The digest was taken with deque-scanning replicas
// and votes keyed in a std::map, so it guards both the index and the vote.
TEST(ServicePinned, VotesAndDelaysArePinned) {
  Bytes transcript;
  const auto record = [&](ErrorCode code, const Bytes& answer, sim::SimClock::Micros delay) {
    append_u32(transcript, static_cast<std::uint32_t>(code));
    append_lp(transcript, answer);
    append_u64(transcript, static_cast<std::uint64_t>(delay));
  };
  const auto opt_bytes = [](const std::optional<Tuple>& t) {
    Bytes b{static_cast<Byte>(t.has_value() ? 1 : 0)};
    if (t.has_value()) append(b, ScanReplica::encode(*t));
    return b;
  };
  const auto size_bytes = [](std::size_t n) {
    Bytes b;
    append_u64(b, n);
    return b;
  };
  for (const std::size_t f : {std::size_t{1}, std::size_t{2}}) {
    auto clock = std::make_shared<sim::SimClock>();
    CoordinationService svc(clock, f, 70 + f);
    const std::size_t n = svc.replica_count();
    svc.replica_faults(1).set_tail_latency(0.3, 3.0);
    svc.replica_faults(n - 1).set_transient_error_prob(0.05);
    TupleScript script(500 + f);
    for (int step = 0; step < 300; ++step) {
      if (step == 60) svc.replica(0).set_byzantine(true);
      if (step == 120) svc.set_replica_down(2, true);
      if (step == 160) svc.replica(0).set_byzantine(false);
      if (step == 220) {
        svc.set_replica_down(2, false);
        ASSERT_TRUE(svc.restore_replica(2, svc.checkpoint_replica(0)).ok());
      }
      const std::uint64_t op = script.op();
      sim::SimClock::Micros delay = 0;
      if (op < 30) {
        auto r = svc.out(script.tuple());
        record(r.value.code(), {}, delay = r.delay);
      } else if (op < 52) {
        const bool take = op >= 44;
        auto r = take ? svc.inp(script.pattern()) : svc.rdp(script.pattern());
        record(r.value.code(), r.value.ok() ? opt_bytes(*r.value) : Bytes{}, delay = r.delay);
      } else if (op < 64) {
        auto r = svc.rdall(script.pattern());
        Bytes all;
        if (r.value.ok()) {
          for (const auto& t : *r.value) append_lp(all, ScanReplica::encode(t));
        }
        record(r.value.code(), all, delay = r.delay);
      } else if (op < 72) {
        const Template p = script.pattern();
        auto r = svc.cas(p, script.tuple());
        record(r.value.code(), r.value.ok() ? Bytes{static_cast<Byte>(*r.value)} : Bytes{},
               delay = r.delay);
      } else if (op < 90) {
        const Template p = script.pattern();
        auto r = op < 82 ? svc.replace(p, script.tuple()) : svc.swap(p, script.tuple());
        record(r.value.code(), r.value.ok() ? size_bytes(*r.value) : Bytes{}, delay = r.delay);
      } else {
        auto r = svc.count(script.pattern());
        record(r.value.code(), r.value.ok() ? size_bytes(*r.value) : Bytes{}, delay = r.delay);
      }
      clock->advance_us(delay);
    }
  }
  EXPECT_EQ(hex_encode(crypto::sha256(transcript)),
            "6f21d42a4229f0018212125c9c024a68590664115f0b41c7228ef6e464617a82");
}

}  // namespace
}  // namespace rockfs::coord
