// Substrate micro-benchmarks (google-benchmark, REAL time): throughput of
// the cryptographic and coding primitives every RockFS operation is built
// from, plus the host cost of one DepSky metadata round, of coordination
// rounds on a store of log records and of recovery's repeated chain audit.
// Not a paper figure — these bound where the client-side CPU time goes and
// back the DESIGN.md §5 calibration.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "cloud/provider.h"
#include "common/rng.h"
#include "coord/service.h"
#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "depsky/client.h"
#include "diff/binary_diff.h"
#include "erasure/reed_solomon.h"
#include "fssagg/fssagg.h"
#include "rockfs/deployment.h"
#include "secretshare/pvss.h"
#include "secretshare/shamir.h"

namespace rockfs {
namespace {

Bytes make_data(std::size_t n) {
  Rng rng(42);
  return rng.next_bytes(n);
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sha256(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(4 << 10)->Arg(1 << 20);

void BM_HmacSha256(benchmark::State& state) {
  const Bytes key(32, 0x11);
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::hmac_sha256(key, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_HmacSha256)->Arg(1 << 20);

void BM_Aes256Ctr(benchmark::State& state) {
  const Bytes key(32, 0x22);
  const Bytes iv(16, 0x01);
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(crypto::aes256_ctr(key, iv, data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Aes256Ctr)->Arg(64 << 10)->Arg(1 << 20);

void BM_SealOpen(benchmark::State& state) {
  const Bytes key(32, 0x33);
  const Bytes iv(16, 0x02);
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const Bytes box = crypto::seal(key, data, {}, iv);
    benchmark::DoNotOptimize(crypto::open_sealed(key, box, {}));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0) *
                          2);
}
BENCHMARK(BM_SealOpen)->Arg(1 << 20);

void BM_RsEncode_2of4(benchmark::State& state) {
  const erasure::ReedSolomon rs(2, 4);
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(rs.encode(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_RsEncode_2of4)->Arg(1 << 20);

void BM_RsDecodeFromParity_2of4(benchmark::State& state) {
  const erasure::ReedSolomon rs(2, 4);
  const Bytes data = make_data(static_cast<std::size_t>(state.range(0)));
  auto shards = rs.encode(data);
  const std::vector<erasure::Shard> parity{shards[2], shards[3]};
  for (auto _ : state) benchmark::DoNotOptimize(rs.decode(parity, data.size()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_RsDecodeFromParity_2of4)->Arg(1 << 20);

void BM_DiffAppend30(benchmark::State& state) {
  const Bytes base = make_data(static_cast<std::size_t>(state.range(0)));
  Bytes updated = base;
  append(updated, make_data(static_cast<std::size_t>(state.range(0)) * 3 / 10));
  for (auto _ : state) benchmark::DoNotOptimize(diff::encode(base, updated));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_DiffAppend30)->Arg(1 << 20);

// update-large's close: 30% of the file overwritten in place, from a third
// on, with bytes drawn from the file's own bytes.
void diff_overwrite30(benchmark::State& state, const Bytes& base) {
  Rng rng(43);
  Bytes updated = base;
  const std::size_t span = base.size() * 3 / 10;
  for (std::size_t i = 0; i < span; ++i) {
    updated[base.size() / 3 + i] = base[rng.next_below(base.size())];
  }
  for (auto _ : state) benchmark::DoNotOptimize(diff::encode(base, updated));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(base.size()));
}

void BM_DiffOverwrite30(benchmark::State& state) {
  diff_overwrite30(state, make_data(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_DiffOverwrite30)->Arg(512 << 10);

// The same shape on 2-bit "ACGT" text: few distinct short windows.
void BM_DiffOverwrite30LowEntropy(benchmark::State& state) {
  Rng rng(44);
  Bytes base(static_cast<std::size_t>(state.range(0)));
  for (Byte& b : base) b = static_cast<Byte>("ACGT"[rng.next_below(4)]);
  diff_overwrite30(state, base);
}
BENCHMARK(BM_DiffOverwrite30LowEntropy)->Arg(512 << 10);

void BM_Patch(benchmark::State& state) {
  const Bytes base = make_data(static_cast<std::size_t>(state.range(0)));
  Bytes updated = base;
  append(updated, make_data(static_cast<std::size_t>(state.range(0)) * 3 / 10));
  const Bytes delta = diff::encode(base, updated);
  for (auto _ : state) benchmark::DoNotOptimize(diff::patch(base, delta));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Patch)->Arg(1 << 20);

void BM_FssAggAppend(benchmark::State& state) {
  crypto::Drbg drbg(to_bytes("bench"));
  fssagg::FssAggSigner signer(fssagg::fssagg_keygen(drbg));
  const Bytes entry = make_data(256);
  for (auto _ : state) benchmark::DoNotOptimize(signer.append(entry));
}
BENCHMARK(BM_FssAggAppend);

void BM_SchnorrSign(benchmark::State& state) {
  crypto::Drbg drbg(to_bytes("bench"));
  const crypto::KeyPair kp = crypto::generate_keypair(drbg);
  const Bytes msg = make_data(256);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::sign(kp, msg));
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  crypto::Drbg drbg(to_bytes("bench"));
  const crypto::KeyPair kp = crypto::generate_keypair(drbg);
  const Bytes msg = make_data(256);
  const Bytes sig = crypto::sign(kp, msg);
  for (auto _ : state) benchmark::DoNotOptimize(crypto::verify(kp.public_key, msg, sig));
}
BENCHMARK(BM_SchnorrVerify);

// The same check under a prepared key whose comb the first check built (a
// DepSky roster key after its first metadata check).
void BM_SchnorrVerifyPrepared(benchmark::State& state) {
  crypto::Drbg drbg(to_bytes("bench"));
  const crypto::KeyPair kp = crypto::generate_keypair(drbg);
  const Bytes msg = make_data(256);
  const Bytes sig = crypto::sign(kp, msg);
  const crypto::PreparedKey key(kp.public_key);
  if (!key.verify(msg, sig)) state.SkipWithError("prepared check rejects a valid signature");
  for (auto _ : state) benchmark::DoNotOptimize(key.verify(msg, sig));
}
BENCHMARK(BM_SchnorrVerifyPrepared);

// Preparing one key and building its comb: what a roster key's first check
// pays on top of the check.
void BM_SchnorrPrepareKey(benchmark::State& state) {
  crypto::Drbg drbg(to_bytes("bench"));
  const crypto::Point p = crypto::generate_keypair(drbg).public_key;
  for (auto _ : state) {
    const crypto::PreparedKey key(p);
    benchmark::DoNotOptimize(&key.comb());
  }
}
BENCHMARK(BM_SchnorrPrepareKey);

// k*G through the comb (sign's multiply) and k*P through the one-term GLV
// sum. Each iteration draws a fresh DRBG scalar, which costs about 2 us, a
// few percent of a k*G.
void BM_ScalarMulBase(benchmark::State& state) {
  crypto::Drbg drbg(to_bytes("bench"));
  for (auto _ : state) {
    const crypto::Uint256 k = crypto::scalar_from_bytes(drbg.generate(32));
    benchmark::DoNotOptimize(crypto::scalar_mul_base(k));
  }
}
BENCHMARK(BM_ScalarMulBase);

void BM_ScalarMul(benchmark::State& state) {
  crypto::Drbg drbg(to_bytes("bench"));
  const crypto::Point p = crypto::generate_keypair(drbg).public_key;
  for (auto _ : state) {
    const crypto::Uint256 k = crypto::scalar_from_bytes(drbg.generate(32));
    benchmark::DoNotOptimize(crypto::scalar_mul(k, p));
  }
}
BENCHMARK(BM_ScalarMul);

// One verifyD-style proof check with g1 = G, as every protocol caller has:
// a1 = r*G + c*h1 and a2 = r*g2 + c*h2, one sum each.
void BM_DleqVerify(benchmark::State& state) {
  crypto::Drbg drbg(to_bytes("bench"));
  const crypto::Uint256 x = crypto::scalar_from_bytes(drbg.generate(32));
  const crypto::Point g1 = crypto::generator();
  const crypto::Point g2 = crypto::generate_keypair(drbg).public_key;
  const crypto::Point h1 = crypto::scalar_mul(x, g1);
  const crypto::Point h2 = crypto::scalar_mul(x, g2);
  const secretshare::DleqProof proof = secretshare::dleq_prove(g1, h1, g2, h2, x, drbg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(secretshare::dleq_verify(g1, h1, g2, h2, proof));
  }
}
BENCHMARK(BM_DleqVerify);

// The PVSS half of a 2-of-3 keystore unseal (login): verifyD over the deal,
// then decrypt + verifyS by two holders, then combine in the exponent.
void BM_PvssUnseal(benchmark::State& state) {
  crypto::Drbg drbg(to_bytes("bench"));
  std::vector<crypto::KeyPair> holders;
  std::vector<crypto::Point> keys;
  for (int i = 0; i < 3; ++i) {
    holders.push_back(crypto::generate_keypair(drbg));
    keys.push_back(holders.back().public_key);
  }
  const secretshare::PvssDeal deal = secretshare::pvss_share(
      crypto::scalar_from_bytes(drbg.generate(32)), keys, 2, drbg);
  for (auto _ : state) {
    bool ok = secretshare::pvss_verify_deal(deal, keys);
    std::vector<secretshare::PvssDecryptedShare> shares;
    for (std::size_t i = 1; i <= 2; ++i) {
      auto share = secretshare::pvss_decrypt_share(deal, i, holders[i - 1], drbg);
      ok = ok && secretshare::pvss_verify_decrypted(deal, *share, keys[i - 1]);
      shares.push_back(*share);
    }
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(secretshare::pvss_combine(shares, 2));
  }
}
BENCHMARK(BM_PvssUnseal);

void BM_ShamirShareCombine(benchmark::State& state) {
  crypto::Drbg drbg(to_bytes("bench"));
  const Bytes secret = drbg.generate(32);
  for (auto _ : state) {
    auto shares = secretshare::shamir_share(secret, 2, 4, drbg);
    shares.resize(2);
    benchmark::DoNotOptimize(secretshare::shamir_combine(shares, 2));
  }
}
BENCHMARK(BM_ShamirShareCombine);

// One metadata quorum round, DepSkyClient::head_version, on an in-memory
// 4-cloud fleet holding one honestly written unit: four gets, four
// deserializations and the trust decision for the copies. The round's
// virtual latency is simulated, so this is host time only.
void BM_HeadVersion(benchmark::State& state) {
  auto clock = std::make_shared<sim::SimClock>();
  const auto clouds = cloud::make_provider_fleet(clock, 4, 1);
  std::vector<cloud::AccessToken> tokens;
  for (const auto& c : clouds) {
    tokens.push_back(c->issue_token("bench", "fs", cloud::TokenScope::kFiles));
  }
  crypto::Drbg drbg(to_bytes("bench"));
  depsky::DepSkyConfig cfg;
  cfg.clouds = clouds;
  cfg.writer = crypto::generate_keypair(drbg);
  depsky::DepSkyClient client(std::move(cfg), to_bytes("bench"));
  client.write(tokens, "files/bench", make_data(4 << 10)).value.expect("write");
  for (auto _ : state) benchmark::DoNotOptimize(client.head_version(tokens, "files/bench"));
}
BENCHMARK(BM_HeadVersion);

// Coordination rounds (f = 1: four replicas, the vote and the decode) on a
// store of `n` tuples shaped like `rocklog` records, 13 fields, spread round
// robin over 8 users. Host time only; the rounds' latency is simulated.
coord::Tuple log_record_tuple(std::size_t user, std::size_t seq) {
  char padded[24];
  std::snprintf(padded, sizeof(padded), "%012zu", seq);
  return {"rocklog", "user-" + std::to_string(user), padded,
          "/docs/file-" + std::to_string(seq % 64), std::to_string(seq), "write", "0", "32768",
          std::string(64, 'a'), "1700000000000000", "1", std::string(64, 'b'),
          std::string(64, 'c')};
}

coord::Template log_chain_pattern(const std::string& user, const std::string& seq) {
  std::vector<std::string> fields(13, "*");
  fields[0] = "rocklog";
  fields[1] = user;
  fields[2] = seq;
  return coord::Template::of(std::move(fields));
}

std::unique_ptr<coord::CoordinationService> log_record_store(std::size_t n) {
  auto svc = std::make_unique<coord::CoordinationService>(std::make_shared<sim::SimClock>(),
                                                          /*f=*/1, /*seed=*/1);
  for (std::size_t i = 0; i < n; ++i) {
    svc->out(log_record_tuple(i % 8, i / 8)).value.expect("out");
  }
  return svc;
}

// LogService's commit: replace one user's record by seq (one match removed,
// one inserted, so the store keeps its size).
void BM_CoordReplace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto svc = log_record_store(n);
  std::vector<std::pair<coord::Template, coord::Tuple>> ops;
  for (std::size_t seq = 0; seq < n / 8; ++seq) {
    coord::Tuple t = log_record_tuple(0, seq);
    ops.emplace_back(log_chain_pattern(t[1], t[2]), std::move(t));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc->replace(ops[i].first, ops[i].second));
    i = (i + 1) % ops.size();
  }
}
BENCHMARK(BM_CoordReplace)->Arg(256)->Arg(4096);

// Recovery's read of one user's unchanged chain (n / 8 records): each
// replica hands out the answer it kept, and the vote and the decode remain.
void BM_CoordRdall(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto svc = log_record_store(n);
  const coord::Template chain = log_chain_pattern("user-0", "*");
  for (auto _ : state) benchmark::DoNotOptimize(svc->rdall(chain));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0) / 8);
}
BENCHMARK(BM_CoordRdall)->Arg(256)->Arg(4096);

// The same read after a replace of one of the chain's records, as a commit
// does: the replace drops each replica's kept answer, so every replica
// splices the chain afresh.
void BM_CoordRdallAfterReplace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto svc = log_record_store(n);
  const coord::Template chain = log_chain_pattern("user-0", "*");
  const coord::Tuple record = log_record_tuple(0, 0);
  const coord::Template slot = log_chain_pattern(record[1], record[2]);
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc->replace(slot, record));
    benchmark::DoNotOptimize(svc->rdall(chain));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0) / 8);
}
BENCHMARK(BM_CoordRdallAfterReplace)->Arg(256)->Arg(4096);

// A deployment whose user closed `n` files, and one long-lived recovery
// service that has audited the chain once. Built on first use per `n`, so
// google-benchmark's repeated calls share it.
core::RecoveryService& audited_service(std::size_t n) {
  struct Chain {
    core::Deployment dep;
    std::optional<core::RecoveryService> recovery;
  };
  static std::map<std::size_t, Chain> chains;
  auto [it, fresh] = chains.try_emplace(n);
  Chain& chain = it->second;
  if (fresh) {
    auto& agent = chain.dep.add_user("bench");
    for (std::size_t i = 0; i < n; ++i) {
      Rng rng(i);
      agent.write_file("/docs/file-" + std::to_string(i % 16), rng.next_bytes(1 << 10))
          .expect("write");
    }
    chain.recovery.emplace(chain.dep.make_recovery_service("bench"));
    chain.recovery->audit_log().expect("first audit");
  }
  return *chain.recovery;
}

// Recovery's audit of one user's chain of `n` records, repeated on one
// service as per-file recovery repeats it: the coordination reads of the
// unchanged chain (each replica hands out its kept answer; the vote still
// compares every byte), the memcmp with the remembered answer and the copy
// that audit_log returns. Host time only; the rounds' latency is simulated.
void BM_AuditLog(benchmark::State& state) {
  core::RecoveryService& recovery = audited_service(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(recovery.audit_log());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_AuditLog)->Arg(64)->Arg(512);

}  // namespace
}  // namespace rockfs

BENCHMARK_MAIN();
