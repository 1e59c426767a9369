// Unit tests for the log-service primitives that the bigger suites exercise
// only indirectly: record/tuple codecs, payload envelopes, signer resume,
// and the append pipeline's observable effects.
#include <gtest/gtest.h>

#include "common/compress.h"
#include "crypto/sha256.h"
#include "rockfs/deployment.h"
#include "rockfs/logservice.h"

namespace rockfs::core {
namespace {

LogRecord sample_record() {
  LogRecord r;
  r.seq = 42;
  r.user = "alice";
  r.path = "/docs/a.txt";
  r.version = 7;
  r.op = "update";
  r.whole_file = false;
  r.payload_size = 1234;
  r.payload_hash = crypto::sha256(to_bytes("payload"));
  r.timestamp_us = 99'000'001;
  r.tag.mac_a = Bytes(32, 0xA1);
  r.tag.mac_b = Bytes(32, 0xB2);
  return r;
}

TEST(LogRecordCodec, TupleRoundTrip) {
  const LogRecord r = sample_record();
  auto restored = LogRecord::from_tuple(r.to_tuple());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->seq, r.seq);
  EXPECT_EQ(restored->user, r.user);
  EXPECT_EQ(restored->path, r.path);
  EXPECT_EQ(restored->version, r.version);
  EXPECT_EQ(restored->op, r.op);
  EXPECT_EQ(restored->whole_file, r.whole_file);
  EXPECT_EQ(restored->payload_size, r.payload_size);
  EXPECT_EQ(restored->payload_hash, r.payload_hash);
  EXPECT_EQ(restored->timestamp_us, r.timestamp_us);
  EXPECT_EQ(restored->tag.mac_a, r.tag.mac_a);
  EXPECT_EQ(restored->mac_payload(), r.mac_payload());
}

TEST(LogRecordCodec, RejectsMalformedTuples) {
  EXPECT_FALSE(LogRecord::from_tuple({"wrong-tag"}).ok());
  auto t = sample_record().to_tuple();
  t[2] = "not-a-number";
  EXPECT_FALSE(LogRecord::from_tuple(t).ok());
  t = sample_record().to_tuple();
  t.pop_back();
  EXPECT_FALSE(LogRecord::from_tuple(t).ok());
}

TEST(LogRecordCodec, MacPayloadCoversEveryField) {
  // Changing any metadata field must change the MACed bytes.
  const LogRecord base = sample_record();
  const Bytes baseline = base.mac_payload();
  auto differs = [&](auto mutate) {
    LogRecord m = base;
    mutate(m);
    return m.mac_payload() != baseline;
  };
  EXPECT_TRUE(differs([](LogRecord& r) { r.seq++; }));
  EXPECT_TRUE(differs([](LogRecord& r) { r.user = "bob"; }));
  EXPECT_TRUE(differs([](LogRecord& r) { r.path = "/other"; }));
  EXPECT_TRUE(differs([](LogRecord& r) { r.version++; }));
  EXPECT_TRUE(differs([](LogRecord& r) { r.op = "delete"; }));
  EXPECT_TRUE(differs([](LogRecord& r) { r.whole_file = true; }));
  EXPECT_TRUE(differs([](LogRecord& r) { r.payload_size++; }));
  EXPECT_TRUE(differs([](LogRecord& r) { r.payload_hash[0] ^= 1; }));
  EXPECT_TRUE(differs([](LogRecord& r) { r.timestamp_us++; }));
}

TEST(LogRecordCodec, DataUnitNamesAreOrderedAndScoped) {
  LogRecord a = sample_record();
  a.seq = 9;
  LogRecord b = sample_record();
  b.seq = 10;
  EXPECT_TRUE(a.data_unit().starts_with("logs/alice/"));
  EXPECT_LT(a.data_unit(), b.data_unit());  // zero-padded seq keeps order
}

TEST(PayloadEnvelope, RawAndCompressedRoundTrip) {
  const Bytes data = to_bytes("abcabcabcabcabcabcabcabcabcabc");
  const Bytes raw = wrap_log_payload(data, false);
  EXPECT_EQ(raw[0], 0);
  auto out1 = unwrap_log_payload(raw);
  ASSERT_TRUE(out1.ok());
  EXPECT_EQ(*out1, data);

  const Bytes packed = wrap_log_payload(data, true);
  EXPECT_EQ(packed[0], 1);
  EXPECT_LT(packed.size(), raw.size());
  auto out2 = unwrap_log_payload(packed);
  ASSERT_TRUE(out2.ok());
  EXPECT_EQ(*out2, data);
}

TEST(PayloadEnvelope, CompressionSkippedWhenUseless) {
  crypto::Drbg drbg(to_bytes("env"));
  const Bytes noise = drbg.generate(1000);  // incompressible
  const Bytes wrapped = wrap_log_payload(noise, true);
  EXPECT_EQ(wrapped[0], 0);  // falls back to raw
}

TEST(PayloadEnvelope, RejectsBadCodec) {
  EXPECT_FALSE(unwrap_log_payload(Bytes{}).ok());
  EXPECT_FALSE(unwrap_log_payload(Bytes{9, 1, 2}).ok());
  Bytes bad{1};  // claims LZ, body truncated
  EXPECT_FALSE(unwrap_log_payload(bad).ok());
}

TEST(SignerResume, FreshWhenNoAggregatesExist) {
  Deployment dep;
  crypto::Drbg drbg(to_bytes("resume-test"));
  const auto keys = fssagg::fssagg_keygen(drbg);
  auto svc = make_resumed_log_service("ghost", nullptr, {}, dep.coordination(),
                                      dep.clock(), keys);
  EXPECT_EQ(svc->next_seq(), 0u);
}

TEST(SignerResume, ContinuesFromStoredAggregates) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/f", to_bytes("one")).ok());
  ASSERT_TRUE(alice.write_file("/f", to_bytes("one two")).ok());
  // A resumed service for the same user picks up at seq 2.
  const auto& ks = alice.keystore();
  auto svc = make_resumed_log_service(
      "alice", nullptr, {}, dep.coordination(), dep.clock(),
      fssagg::FssAggKeys{ks.fssagg_key_a, ks.fssagg_key_b});
  EXPECT_EQ(svc->next_seq(), 2u);
}

TEST(AppendPipeline, ObservableEffects) {
  Deployment dep;
  auto& alice = dep.add_user("alice");
  ASSERT_TRUE(alice.write_file("/f", to_bytes("hello world")).ok());

  // One record tuple, one aggregates tuple, one data unit across the clouds.
  auto records = read_log_records(*dep.coordination(), "alice");
  ASSERT_TRUE(records.value.ok());
  ASSERT_EQ(records.value->size(), 1u);
  const LogRecord& r = (*records.value)[0];
  EXPECT_EQ(r.op, "create");
  EXPECT_TRUE(r.whole_file);

  auto aggregates = read_aggregates(*dep.coordination(), "alice");
  ASSERT_TRUE(aggregates.value.ok());
  EXPECT_EQ(aggregates.value->count, 1u);

  // The data half exists at every cloud under the expected keys.
  for (std::size_t i = 0; i < dep.clouds().size(); ++i) {
    EXPECT_TRUE(dep.clouds()[i]->exists(r.data_unit() + ".v1.s" + std::to_string(i)))
        << i;
  }
}

TEST(AppendPipeline, PartialCommitRetryDoesNotForkChain) {
  Deployment dep;
  crypto::Drbg drbg(to_bytes("partial-commit"));

  depsky::DepSkyConfig cfg;
  cfg.clouds = dep.clouds();
  cfg.f = 1;
  cfg.writer = crypto::generate_keypair(drbg);
  cfg.trusted_writers.push_back(
      std::make_shared<const crypto::PreparedKey>(cfg.writer.public_key));
  auto storage =
      std::make_shared<depsky::DepSkyClient>(std::move(cfg), drbg.generate(32));
  std::vector<cloud::AccessToken> tokens;
  for (auto& c : dep.clouds()) {
    tokens.push_back(c->issue_token("carol", "rockfs", cloud::TokenScope::kLogAppend));
  }
  const auto keys = fssagg::fssagg_keygen(drbg);
  LogService svc("carol", storage, tokens, dep.coordination(), dep.clock(),
                 fssagg::FssAggSigner(keys));

  const Bytes v1 = to_bytes("partial commit test content, version one ........");
  const Bytes v2 = to_bytes("partial commit test content, version two ......!!");
  auto first = svc.append("/f", {}, v1, 1, "create");
  ASSERT_TRUE(first.value.ok()) << first.value.error().message;
  EXPECT_EQ(svc.next_seq(), 1u);

  // The payload put succeeds (the clouds are healthy) but the metadata
  // append cannot go through: the client is partitioned from the whole
  // coordination service. The append must NOT evolve the signer — that
  // would fork the chain from what the coordination service records.
  const auto now = dep.clock()->now_us();
  for (std::size_t i = 0; i < dep.coordination()->replica_count(); ++i) {
    dep.coordination()->replica_faults(i).add_outage(now, now + 600'000'000);
  }
  auto wedged = svc.append("/f", v1, v2, 2, "update");
  EXPECT_EQ(wedged.value.code(), ErrorCode::kPartialCommit);
  EXPECT_TRUE(is_retryable(wedged.value.code()));
  EXPECT_EQ(svc.next_seq(), 1u);  // signer state unchanged

  // The payload slot IS durable: the retry adopts it (the log namespace is
  // append-only, re-uploading into the slot would be denied) and commits the
  // metadata, completing the very same entry.
  for (std::size_t i = 0; i < dep.coordination()->replica_count(); ++i) {
    dep.coordination()->replica_faults(i).clear();
  }
  auto retry = svc.append("/f", v1, v2, 2, "update");
  ASSERT_TRUE(retry.value.ok()) << retry.value.error().message;
  EXPECT_EQ(svc.next_seq(), 2u);

  // Exactly two records (no duplicate seqs), aggregates agree, and the whole
  // chain verifies from the initial keys.
  auto records = read_log_records(*dep.coordination(), "carol");
  ASSERT_TRUE(records.value.ok());
  ASSERT_EQ(records.value->size(), 2u);
  EXPECT_EQ((*records.value)[0].seq, 0u);
  EXPECT_EQ((*records.value)[1].seq, 1u);
  auto aggregates = read_aggregates(*dep.coordination(), "carol");
  ASSERT_TRUE(aggregates.value.ok());
  EXPECT_EQ(aggregates.value->count, 2u);

  std::vector<fssagg::TaggedEntry> tagged;
  for (const auto& r : *records.value) tagged.push_back({r.mac_payload(), r.tag});
  const auto report = fssagg::fssagg_verify(keys, tagged, aggregates.value->agg_a,
                                            aggregates.value->agg_b,
                                            aggregates.value->count);
  EXPECT_TRUE(report.ok);
  EXPECT_TRUE(report.corrupt_entries.empty());
  EXPECT_FALSE(report.aggregate_mismatch);
}

}  // namespace
}  // namespace rockfs::core
