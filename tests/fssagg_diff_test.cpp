#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "diff/binary_diff.h"
#include "fssagg/fssagg.h"

namespace rockfs {
namespace {

// ------------------------------------------------------------------ FssAgg

struct FssAggFixture {
  crypto::Drbg drbg{to_bytes("fssagg-test")};
  fssagg::FssAggKeys keys = fssagg::fssagg_keygen(drbg);

  // Builds a signed log of the given entries, returning entries+tags and the
  // final aggregates.
  struct Built {
    std::vector<fssagg::TaggedEntry> log;
    Bytes agg_a;
    Bytes agg_b;
  };
  Built build(const std::vector<std::string>& entries) {
    fssagg::FssAggSigner signer(keys);
    Built out;
    for (const auto& e : entries) {
      fssagg::TaggedEntry te;
      te.entry = to_bytes(e);
      te.tag = signer.append(te.entry);
      out.log.push_back(std::move(te));
    }
    out.agg_a = signer.aggregate_a();
    out.agg_b = signer.aggregate_b();
    return out;
  }
};

TEST(FssAgg, CleanLogVerifies) {
  FssAggFixture fx;
  const auto built = fx.build({"op1: create f", "op2: update f", "op3: delete g"});
  const auto report =
      fssagg::fssagg_verify(fx.keys, built.log, built.agg_a, built.agg_b, 3);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.corrupt_entries.empty());
  EXPECT_FALSE(report.aggregate_mismatch);
  EXPECT_FALSE(report.count_mismatch);
}

TEST(FssAgg, EmptyLogVerifies) {
  FssAggFixture fx;
  const auto built = fx.build({});
  EXPECT_TRUE(fssagg::fssagg_verify(fx.keys, built.log, built.agg_a, built.agg_b, 0).ok);
}

TEST(FssAgg, DetectsModifiedEntry) {
  FssAggFixture fx;
  auto built = fx.build({"a", "b", "c", "d"});
  built.log[2].entry = to_bytes("C-tampered");
  const auto report =
      fssagg::fssagg_verify(fx.keys, built.log, built.agg_a, built.agg_b, 4);
  EXPECT_FALSE(report.ok);
  ASSERT_EQ(report.corrupt_entries.size(), 1u);
  EXPECT_EQ(report.corrupt_entries[0], 2u);
}

TEST(FssAgg, DetectsDeletionInMiddle) {
  FssAggFixture fx;
  auto built = fx.build({"a", "b", "c"});
  built.log.erase(built.log.begin() + 1);
  const auto report =
      fssagg::fssagg_verify(fx.keys, built.log, built.agg_a, built.agg_b, 3);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.count_mismatch);
  // Entry "c" now sits at index 1 and was MACed with key A_3, so it fails too.
  EXPECT_FALSE(report.corrupt_entries.empty());
}

TEST(FssAgg, DetectsTruncation) {
  FssAggFixture fx;
  auto built = fx.build({"a", "b", "c", "d"});
  built.log.resize(2);  // attacker chops the tail
  const auto report =
      fssagg::fssagg_verify(fx.keys, built.log, built.agg_a, built.agg_b, 4);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.count_mismatch);
  EXPECT_TRUE(report.aggregate_mismatch);  // aggregates cover all 4 entries
}

TEST(FssAgg, DetectsReordering) {
  FssAggFixture fx;
  auto built = fx.build({"a", "b", "c"});
  std::swap(built.log[0], built.log[1]);
  const auto report =
      fssagg::fssagg_verify(fx.keys, built.log, built.agg_a, built.agg_b, 3);
  EXPECT_FALSE(report.ok);
  EXPECT_EQ(report.corrupt_entries.size(), 2u);
}

TEST(FssAgg, DetectsInsertion) {
  FssAggFixture fx;
  auto built = fx.build({"a", "b"});
  fssagg::TaggedEntry bogus;
  bogus.entry = to_bytes("evil");
  bogus.tag.mac_a = Bytes(32, 0);
  bogus.tag.mac_b = Bytes(32, 0);
  built.log.insert(built.log.begin() + 1, bogus);
  const auto report =
      fssagg::fssagg_verify(fx.keys, built.log, built.agg_a, built.agg_b, 2);
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(report.count_mismatch);
  EXPECT_FALSE(report.corrupt_entries.empty());
}

TEST(FssAgg, ForwardSecurity) {
  // An attacker who steals the signer state after i entries cannot produce
  // tags valid for earlier indices: re-MACing entry 0 with the stolen
  // (evolved) key fails verification.
  FssAggFixture fx;
  fssagg::FssAggSigner signer(fx.keys);
  fssagg::TaggedEntry e0;
  e0.entry = to_bytes("original");
  e0.tag = signer.append(e0.entry);

  // "Steal" the state by continuing to use the signer: any tag it can produce
  // now is for index >= 1. Try to pass one off as entry 0.
  fssagg::FssAggSigner stolen = signer;  // state after 1 append
  fssagg::TaggedEntry forged;
  forged.entry = to_bytes("rewritten history");
  forged.tag = stolen.append(forged.entry);

  std::vector<fssagg::TaggedEntry> log{forged};
  const auto report = fssagg::fssagg_verify(fx.keys, log, stolen.aggregate_a(),
                                            stolen.aggregate_b(), 1);
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(report.corrupt_entries.empty());
}

TEST(FssAgg, SameEntryDifferentPositionsHasDifferentTags) {
  FssAggFixture fx;
  fssagg::FssAggSigner signer(fx.keys);
  const auto t1 = signer.append(to_bytes("same"));
  const auto t2 = signer.append(to_bytes("same"));
  EXPECT_NE(t1.mac_a, t2.mac_a);
  EXPECT_NE(t1.mac_b, t2.mac_b);
}

TEST(FssAgg, KeygenProducesDistinctKeys) {
  crypto::Drbg drbg(to_bytes("kg"));
  const auto k1 = fssagg::fssagg_keygen(drbg);
  const auto k2 = fssagg::fssagg_keygen(drbg);
  EXPECT_NE(k1.a1, k1.b1);
  EXPECT_NE(k1.a1, k2.a1);
  EXPECT_THROW(fssagg::FssAggSigner({Bytes(16, 0), Bytes(32, 0)}), std::invalid_argument);
}

// A 12-entry log whose key stream switches at entries 4 and 9, plus a
// switch at index 12 that no entry reaches.
struct RotatedLog {
  std::vector<fssagg::TaggedEntry> log;
  std::vector<fssagg::FssAggRotation> rotations;
  Bytes agg_a;
  Bytes agg_b;
};

RotatedLog rotated_log(FssAggFixture& fx) {
  RotatedLog out;
  fssagg::FssAggSigner signer(fx.keys);
  for (std::size_t i = 0; i <= 12; ++i) {
    if (i == 4 || i == 9 || i == 12) {
      fssagg::FssAggKeys fresh = fssagg::fssagg_keygen(fx.drbg);
      out.rotations.push_back({i, fresh});
      signer = fssagg::FssAggSigner(std::move(fresh), signer.aggregate_a(),
                                    signer.aggregate_b(), signer.count());
    }
    if (i == 12) break;
    fssagg::TaggedEntry te;
    te.entry = to_bytes("entry " + std::to_string(i));
    te.tag = signer.append(te.entry);
    out.log.push_back(std::move(te));
  }
  out.agg_a = signer.aggregate_a();
  out.agg_b = signer.aggregate_b();
  return out;
}

// Entries [from, to) of `built`, switching key streams where
// fssagg_verify_rotated does.
void feed(fssagg::FssAggVerifier& verifier, const RotatedLog& built, std::size_t from,
          std::size_t to) {
  for (std::size_t i = from; i < to; ++i) {
    for (const auto& r : built.rotations) {
      if (r.at_index == i) verifier.rotate(r.keys);
    }
    verifier.add(built.log[i].entry, built.log[i].tag);
  }
}

void expect_same_report(const fssagg::FssAggVerifyReport& got,
                        const fssagg::FssAggVerifyReport& want) {
  EXPECT_EQ(got.ok, want.ok);
  EXPECT_EQ(got.corrupt_entries, want.corrupt_entries);
  EXPECT_EQ(got.aggregate_mismatch, want.aggregate_mismatch);
  EXPECT_EQ(got.count_mismatch, want.count_mismatch);
}

TEST(FssAgg, ChunkedVerificationMatchesTheWholeLog) {
  FssAggFixture fx;
  RotatedLog built = rotated_log(fx);
  const std::size_t n = built.log.size();
  EXPECT_TRUE(fssagg::fssagg_verify_rotated(fx.keys, built.rotations, built.log, built.agg_a,
                                            built.agg_b, n)
                  .ok);
  // Corrupt entries before the first switch, at the second and after it (a
  // tag, which also breaks the aggregates).
  built.log[2].entry = to_bytes("tampered");
  built.log[9].entry = to_bytes("tampered");
  built.log[11].tag.mac_b[0] ^= 1;
  const auto whole = fssagg::fssagg_verify_rotated(fx.keys, built.rotations, built.log,
                                                   built.agg_a, built.agg_b, n);
  EXPECT_EQ(whole.corrupt_entries, (std::vector<std::size_t>{2, 9, 11}));
  EXPECT_TRUE(whole.aggregate_mismatch);
  EXPECT_FALSE(whole.count_mismatch);

  // Every pair of split points: three chunks, the verifier copied between
  // them, and a report after the first that must not disturb it.
  for (std::size_t s1 = 0; s1 <= n; ++s1) {
    for (std::size_t s2 = s1; s2 <= n; ++s2) {
      SCOPED_TRACE("split at " + std::to_string(s1) + " and " + std::to_string(s2));
      fssagg::FssAggVerifier first(fx.keys);
      feed(first, built, 0, s1);
      const std::vector<fssagg::TaggedEntry> prefix(built.log.begin(),
                                                    built.log.begin() + s1);
      expect_same_report(first.report(built.agg_a, built.agg_b, n),
                         fssagg::fssagg_verify_rotated(fx.keys, built.rotations, prefix,
                                                       built.agg_a, built.agg_b, n));
      fssagg::FssAggVerifier kept = first;
      feed(kept, built, s1, s2);
      feed(kept, built, s2, n);
      EXPECT_EQ(kept.count(), n);
      expect_same_report(kept.report(built.agg_a, built.agg_b, n), whole);
    }
  }
}

// -------------------------------------------------------------------- Diff

// Test inputs: uniform random bytes, 2-bit "ACGT" text (few distinct short
// windows) or all zeros.
enum class Kind { kRandom, kTwoBit, kZero };

Bytes make_input(Kind kind, Rng& rng, std::size_t n) {
  if (kind == Kind::kRandom) return rng.next_bytes(n);
  Bytes out(n, 0);
  if (kind == Kind::kTwoBit) {
    for (Byte& b : out) b = static_cast<Byte>("ACGT"[rng.next_below(4)]);
  }
  return out;
}

TEST(Diff, IdenticalFilesProduceTinyDelta) {
  Rng rng(10);
  const Bytes data = rng.next_bytes(100'000);
  const Bytes delta = diff::encode(data, data);
  // One coalesced COPY plus at most one sub-block literal tail.
  EXPECT_LT(delta.size(), 1'100u);
  const auto patched = diff::patch(data, delta);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(*patched, data);
}

TEST(Diff, AppendOnlyDeltaProportionalToAppend) {
  Rng rng(11);
  const Bytes base = rng.next_bytes(1'000'000);
  Bytes appended = base;
  const Bytes extra = rng.next_bytes(300'000);  // the paper's +30% workload
  append(appended, extra);
  const Bytes delta = diff::encode(base, appended);
  // Delta carries the appended bytes plus opcode overhead, far below the file.
  EXPECT_LT(delta.size(), 330'000u);
  EXPECT_GT(delta.size(), 300'000u);
  const auto patched = diff::patch(base, delta);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(*patched, appended);
}

TEST(Diff, InsertionInMiddle) {
  Rng rng(12);
  const Bytes base = rng.next_bytes(50'000);
  Bytes modified(base.begin(), base.begin() + 20'000);
  const Bytes inserted = rng.next_bytes(777);
  append(modified, inserted);
  modified.insert(modified.end(), base.begin() + 20'000, base.end());
  const Bytes delta = diff::encode(base, modified);
  EXPECT_LT(delta.size(), 10'000u);  // much smaller than the 50KB file
  const auto patched = diff::patch(base, delta);
  ASSERT_TRUE(patched.ok());
  EXPECT_EQ(*patched, modified);
}

TEST(Diff, RandomEditScriptRoundTrips) {
  Rng rng(13);
  for (const Kind kind : {Kind::kRandom, Kind::kTwoBit}) {
    for (const std::size_t block : {0, 1, 3, 16, 37, 4096}) {
      // Blocks of 1 and 3 bytes get inputs of at most 3 KB, so that a matcher
      // whose lookup walks every old block with an equal hash stays fast.
      const std::size_t max_size = block == 1 || block == 3 ? 3'000 : 30'000;
      for (int trial = 0; trial < 20; ++trial) {
        const Bytes base = make_input(kind, rng, rng.next_below(max_size));
        Bytes modified = base;
        // Random point mutations, deletions and insertions.
        for (int e = 0; e < 10 && !modified.empty(); ++e) {
          const auto op = rng.next_below(3);
          const std::size_t at = rng.next_below(modified.size());
          if (op == 0) {
            modified[at] ^= 0xFF;
          } else if (op == 1) {
            modified.erase(modified.begin() + static_cast<std::ptrdiff_t>(at));
          } else {
            const Bytes ins = make_input(kind, rng, rng.next_below(500));
            modified.insert(modified.begin() + static_cast<std::ptrdiff_t>(at), ins.begin(),
                            ins.end());
          }
        }
        const Bytes delta = diff::encode(base, modified, block);
        const auto patched = diff::patch(base, delta);
        const std::string name = std::string(kind == Kind::kRandom ? "random" : "2bit") +
                                 " block " + std::to_string(block) + " trial " +
                                 std::to_string(trial);
        ASSERT_TRUE(patched.ok()) << name;
        EXPECT_EQ(*patched, modified) << name;
      }
    }
  }
}

// encode() output for a grid of inputs, edits and block sizes, pinned by
// digest. Stored log deltas must not change with the matcher's internals:
// which byte-equal old block a window takes (the highest offset) and when a
// COPY extends decide the bytes.
TEST(Diff, EncodeOutputIsPinned) {
  const std::map<std::string, std::string> pinned = {
      {"random/overwrite/0", "807727314abf0744"},
      {"random/overwrite/16", "dd3dee3409cffa7c"},
      {"random/overwrite/37", "6332b9299d0162c2"},
      {"random/insert/0", "944d037987c843a1"},
      {"random/insert/16", "5739c13683c69030"},
      {"random/insert/37", "fe66089fbbb66122"},
      {"random/delete/0", "34f9bd1a3adfbff6"},
      {"random/delete/16", "6812053a892fce3f"},
      {"random/delete/37", "da45e9a8036dfdca"},
      {"2bit/overwrite/0", "b9756ea16253ab97"},
      {"2bit/overwrite/16", "2bd976324cc7f614"},
      {"2bit/overwrite/37", "f88aacd14422305d"},
      {"2bit/insert/0", "6b0a579265a543ed"},
      {"2bit/insert/16", "8485fabe7b11698e"},
      {"2bit/insert/37", "7add8bcbbfa0a649"},
      {"2bit/delete/0", "5d58e1bb200fa9b0"},
      {"2bit/delete/16", "d0283de912c06ff1"},
      {"2bit/delete/37", "dc8b16860a6f6f0a"},
      {"zero/overwrite/0", "955ba0853dfd1b36"},
      {"zero/overwrite/16", "75344a3e27fd6325"},
      {"zero/overwrite/37", "6b3e11345e4507bb"},
      {"zero/insert/0", "435017f9f9bf0b02"},
      {"zero/insert/16", "c143d3745f9a2d0c"},
      {"zero/insert/37", "bd6d1f6ee14ce923"},
      {"zero/delete/0", "f233b61718678000"},
      {"zero/delete/16", "ccda0968f7347ec7"},
      {"zero/delete/37", "77c6dffa30e6306f"},
      {"random/overwrite/1/3000", "0f5c17a485cc98f3"},
      {"random/overwrite/3/3000", "c30a02efc1e30859"},
      {"random/insert/1/3000", "882153a61a2ec5ca"},
      {"random/insert/3/3000", "a212b9260448834c"},
      {"random/delete/1/3000", "d24b207e4bc0dd85"},
      {"random/delete/3/3000", "b2ce3772b5349be6"},
      {"2bit/overwrite/1/3000", "3a79021a8c2d5984"},
      {"2bit/overwrite/3/3000", "741cf3fd73826a8e"},
      {"2bit/insert/1/3000", "44d2cace039cc0d0"},
      {"2bit/insert/3/3000", "4994d5490c8b0fc1"},
      {"2bit/delete/1/3000", "cb279b486654c4a9"},
      {"2bit/delete/3/3000", "71b1009108adb252"},
      {"zero/overwrite/1/3000", "59b2e824b879afc4"},
      {"zero/overwrite/3/3000", "381a046f93c8e9a5"},
      {"zero/insert/1/3000", "84f80b7c3c2a1d22"},
      {"zero/insert/3/3000", "63835d58ba0700b6"},
      {"zero/delete/1/3000", "cf2c3ffdb8d0a182"},
      {"zero/delete/3/3000", "5117299db539ba1b"},
      {"random/overwrite/0/524288", "56254695a6a04cee"},
      {"random/overwrite/0/1572864", "f9315688e5c51c5b"},
      {"2bit/overwrite/0/1572864", "cd59b681b316f1e0"},
      {"random/overwrite/4096/1000", "a4ec35900513c82a"},
      {"random/prefix-700/0", "73a7836a24c8889b"},
      {"dup/edit6/0", "60abedce69e91c9e"},
      {"dup/edit6/16", "c5978aa8867f192e"},
      {"dup/edit6/37", "077d250e401229da"},
  };
  std::size_t checked = 0;
  auto check = [&](const std::string& name, const Bytes& base, const Bytes& modified,
                   std::size_t block) {
    ++checked;
    const Bytes delta = diff::encode(base, modified, block);
    const auto patched = diff::patch(base, delta);
    ASSERT_TRUE(patched.ok()) << name;
    EXPECT_EQ(*patched, modified) << name;
    const auto want = pinned.find(name);
    ASSERT_NE(want, pinned.end()) << name;
    EXPECT_EQ(hex_encode(crypto::sha256(delta)).substr(0, 16), want->second) << name;
  };
  // Overwrites 30% of the file at a third, inserts 30% at the middle, or
  // deletes 30% from a quarter. Edited bytes come from the input's own
  // distribution; the all-zero file takes 2-bit bytes so that its edits
  // change something.
  auto edited = [](Kind kind, const std::string& edit, const Bytes& base, Rng& rng) {
    const Kind fill = kind == Kind::kZero ? Kind::kTwoBit : kind;
    const std::size_t size = base.size();
    const std::size_t span = size * 3 / 10;
    Bytes modified = base;
    if (edit == "overwrite") {
      const Bytes fresh = make_input(fill, rng, span);
      std::copy(fresh.begin(), fresh.end(),
                modified.begin() + static_cast<std::ptrdiff_t>(size / 3));
    } else if (edit == "insert") {
      const Bytes fresh = make_input(fill, rng, span);
      modified.insert(modified.begin() + static_cast<std::ptrdiff_t>(size / 2), fresh.begin(),
                      fresh.end());
    } else {
      const auto at = modified.begin() + static_cast<std::ptrdiff_t>(size / 4);
      modified.erase(at, at + static_cast<std::ptrdiff_t>(span));
    }
    return modified;
  };
  const std::pair<Kind, const char*> kinds[] = {
      {Kind::kRandom, "random"}, {Kind::kTwoBit, "2bit"}, {Kind::kZero, "zero"}};
  std::uint64_t seed = 100;
  for (const auto& [kind, kind_name] : kinds) {
    for (const char* edit : {"overwrite", "insert", "delete"}) {
      for (const std::size_t block : {std::size_t{0}, std::size_t{16}, std::size_t{37}}) {
        Rng rng(seed++);
        const Bytes base = make_input(kind, rng, 20'000);
        check(std::string(kind_name) + "/" + edit + "/" + std::to_string(block), base,
              edited(kind, edit, base, rng), block);
      }
    }
  }
  // Block sizes 1 and 3, kept to 3 KB inputs.
  for (const auto& [kind, kind_name] : kinds) {
    for (const char* edit : {"overwrite", "insert", "delete"}) {
      for (const std::size_t block : {std::size_t{1}, std::size_t{3}}) {
        Rng rng(seed++);
        const Bytes base = make_input(kind, rng, 3'000);
        check(std::string(kind_name) + "/" + edit + "/" + std::to_string(block) + "/3000",
              base, edited(kind, edit, base, rng), block);
      }
    }
  }
  // The update-large close (512 KiB, block 1024), the default 4096-byte block
  // of a 1.5 MiB file, and a block larger than the whole old file.
  const std::tuple<Kind, std::size_t, std::size_t> shapes[] = {
      {Kind::kRandom, 512 << 10, 0},
      {Kind::kRandom, 1536 << 10, 0},
      {Kind::kTwoBit, 1536 << 10, 0},
      {Kind::kRandom, 1'000, 4096},
  };
  for (const auto& [kind, size, block] : shapes) {
    Rng rng(seed++);
    const Bytes base = make_input(kind, rng, size);
    check(std::string(kind == Kind::kRandom ? "random" : "2bit") + "/overwrite/" +
              std::to_string(block) + "/" + std::to_string(size),
          base, edited(kind, "overwrite", base, rng), block);
  }
  // A new file shorter than one block: all of it is a literal tail.
  {
    Rng rng(seed++);
    const Bytes base = rng.next_bytes(20'000);
    check("random/prefix-700/0", base, Bytes(base.begin(), base.begin() + 700), 0);
  }
  // A later duplicate: eight distinct blocks, then a copy of block 3; the new
  // file edits one byte inside block 6. The window at block 3 of the new file
  // equals old blocks 3 and 8 and must take block 8, the highest offset, even
  // though block 3 would extend the open COPY.
  for (const std::size_t block : {std::size_t{0}, std::size_t{16}, std::size_t{37}}) {
    const std::size_t unit = block != 0 ? block : 1024;  // 9 KiB picks 1024
    Rng rng(seed++);
    Bytes base = rng.next_bytes(8 * unit);
    base.insert(base.end(), base.begin() + static_cast<std::ptrdiff_t>(3 * unit),
                base.begin() + static_cast<std::ptrdiff_t>(4 * unit));
    Bytes modified = base;
    modified[6 * unit + unit / 2] ^= 0x5A;
    check("dup/edit6/" + std::to_string(block), base, modified, block);
  }
  EXPECT_EQ(checked, pinned.size());  // every pin was exercised
}

TEST(Diff, EmptyEdgeCases) {
  const Bytes some = to_bytes("data");
  auto p1 = diff::patch({}, diff::encode({}, some));
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p1, some);
  auto p2 = diff::patch(some, diff::encode(some, {}));
  ASSERT_TRUE(p2.ok());
  EXPECT_TRUE(p2->empty());
  auto p3 = diff::patch({}, diff::encode({}, {}));
  ASSERT_TRUE(p3.ok());
  EXPECT_TRUE(p3->empty());
}

TEST(Diff, PatchRejectsCorruptDelta) {
  const Bytes base = to_bytes("0123456789");
  Bytes delta = diff::encode(base, to_bytes("0123456789abc"));
  delta[0] = 0x7F;  // unknown opcode
  EXPECT_EQ(diff::patch(base, delta).code(), ErrorCode::kCorrupted);

  Bytes truncated = diff::encode(base, to_bytes("0123456789abc"));
  truncated.resize(truncated.size() - 1);
  EXPECT_EQ(diff::patch(base, truncated).code(), ErrorCode::kCorrupted);
}

TEST(Diff, PatchRejectsOutOfRangeCopy) {
  // Hand-craft a COPY beyond the source.
  Bytes delta;
  delta.push_back(0x01);
  append_u64(delta, 0);
  append_u64(delta, 100);
  EXPECT_EQ(diff::patch(to_bytes("short"), delta).code(), ErrorCode::kCorrupted);
}

TEST(LogDelta, PolicyPicksSmaller) {
  Rng rng(14);
  const Bytes base = rng.next_bytes(100'000);
  // Small change -> delta mode.
  Bytes small_change = base;
  small_change[500] ^= 1;
  const auto d1 = diff::make_log_delta(base, small_change);
  EXPECT_FALSE(d1.whole_file);
  EXPECT_LT(d1.payload.size(), small_change.size());

  // Complete rewrite -> whole-file mode.
  const Bytes rewrite = rng.next_bytes(100'000);
  const auto d2 = diff::make_log_delta(base, rewrite);
  EXPECT_TRUE(d2.whole_file);
  EXPECT_EQ(d2.payload, rewrite);
}

TEST(LogDelta, ApplyBothModes) {
  Rng rng(15);
  const Bytes base = rng.next_bytes(10'000);
  Bytes changed = base;
  changed[1] ^= 0x10;
  for (const auto& delta : {diff::make_log_delta(base, changed),
                            diff::LogDelta{true, changed}}) {
    const auto out = diff::apply_log_delta(base, delta);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(*out, changed);
  }
}

TEST(LogDelta, SerializeRoundTrip) {
  const diff::LogDelta d{false, to_bytes("opcode-stream")};
  const auto restored = diff::LogDelta::deserialize(d.serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->whole_file, false);
  EXPECT_EQ(restored->payload, d.payload);
  EXPECT_EQ(diff::LogDelta::deserialize(Bytes{}).code(), ErrorCode::kCorrupted);
  EXPECT_EQ(diff::LogDelta::deserialize(Bytes{9}).code(), ErrorCode::kCorrupted);
}

TEST(Diff, FirstVersionIsWholeFile) {
  // Creating a file (empty old version): the "delta" degenerates to an
  // insert of the whole content, and make_log_delta flags it whole-file
  // (insert overhead makes the encoded stream slightly larger).
  const Bytes content = to_bytes("brand new file");
  const auto d = diff::make_log_delta({}, content);
  EXPECT_TRUE(d.whole_file);
  EXPECT_EQ(d.payload, content);
}

}  // namespace
}  // namespace rockfs
