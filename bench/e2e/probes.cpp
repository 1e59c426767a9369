// Host-CPU probes (--trace runs only): direct calls into the substrate's
// public functions on buffers of the workload's file size, timed with the
// steady clock. These are the host-currency counterpart of the virtual
// per-layer rows; the simulator charges calibrated costs, so no virtual
// metric may move when one of these does.
#include <algorithm>
#include <chrono>

#include "bench.h"
#include "cache/cache.h"
#include "common/rng.h"
#include "crypto/aes.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "diff/binary_diff.h"
#include "erasure/reed_solomon.h"
#include "fssagg/fssagg.h"
#include "secretshare/pvss.h"

namespace rockfs::e2e {

namespace {

/// Seconds per call of `fn`: the median of three batches, each repeating
/// the call until it has run for at least 20 ms.
template <typename Fn>
double seconds_per_call(Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  std::vector<double> batches;
  for (int b = 0; b < 3; ++b) {
    std::size_t calls = 0;
    const auto start = Clock::now();
    std::chrono::duration<double> elapsed{};
    do {
      fn();
      ++calls;
      elapsed = Clock::now() - start;
    } while (elapsed.count() < 0.02);
    batches.push_back(elapsed.count() / static_cast<double>(calls));
  }
  std::sort(batches.begin(), batches.end());
  return batches[1];
}

double mbps(std::size_t bytes, double seconds) {
  return static_cast<double>(bytes) / 1e6 / seconds;
}

/// Keeps a probed result alive so the call cannot be optimised away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "r"(&value) : "memory");
}

}  // namespace

double speed_reference_seconds() {
  static const std::vector<std::uint8_t> table = [] {
    std::vector<std::uint8_t> t(4u << 20);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = static_cast<std::uint8_t>(i * 131);
    return t;
  }();
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ULL, sum = 0;
  for (int i = 0; i < 200'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += table[x & (table.size() - 1)];
  }
  keep(sum);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::map<std::string, double> run_host_probes(std::size_t file_size) {
  std::map<std::string, double> out;
  Rng rng(0x5eed);
  const Bytes data = rng.next_bytes(file_size);
  const Bytes key = rng.next_bytes(32);
  const Bytes iv = rng.next_bytes(16);
  const Bytes msg = rng.next_bytes(256);
  crypto::Drbg drbg(to_bytes("rockfs_bench probes"));

  // crypto
  out["host.crypto.aes_ctr_MBps"] =
      mbps(file_size, seconds_per_call([&] { keep(crypto::aes256_ctr(key, iv, data)); }));
  out["host.crypto.sha256_MBps"] =
      mbps(file_size, seconds_per_call([&] { keep(crypto::sha256(data)); }));
  out["host.crypto.seal_open_MBps"] = mbps(file_size, seconds_per_call([&] {
    const Bytes box = crypto::seal(key, data, {}, iv);
    keep(crypto::open_sealed(key, box, {}));
  }));
  const crypto::KeyPair kp = crypto::generate_keypair(drbg);
  const Bytes sig = crypto::sign(kp, msg);
  out["host.crypto.sign_us"] = 1e6 * seconds_per_call([&] { keep(crypto::sign(kp, msg)); });
  out["host.crypto.verify_us"] =
      1e6 * seconds_per_call([&] { keep(crypto::verify(kp.public_key, msg, sig)); });

  // erasure: DepSky's (k, n) = (f + 1, 3f + 1) at f = 1; decode from parity.
  const erasure::ReedSolomon rs(2, 4);
  const auto shards = rs.encode(data);
  const std::vector<erasure::Shard> parity{shards[2], shards[3]};
  out["host.erasure.rs_encode_MBps"] =
      mbps(file_size, seconds_per_call([&] { keep(rs.encode(data)); }));
  out["host.erasure.rs_decode_MBps"] =
      mbps(file_size, seconds_per_call([&] { keep(rs.decode(parity, file_size)); }));

  // diff: a 30% region overwrite, as update-large writes.
  Bytes updated = data;
  const Bytes region = rng.next_bytes(file_size * 3 / 10);
  std::copy(region.begin(), region.end(),
            updated.begin() + static_cast<std::ptrdiff_t>(file_size / 3));
  const Bytes delta = diff::encode(data, updated);
  out["host.diff.encode_MBps"] =
      mbps(file_size, seconds_per_call([&] { keep(diff::encode(data, updated)); }));
  out["host.diff.patch_MBps"] =
      mbps(file_size, seconds_per_call([&] { keep(diff::patch(data, delta)); }));

  // fssagg: per-entry append, and a whole-chain audit per entry.
  const auto chain_keys = fssagg::fssagg_keygen(drbg);
  fssagg::FssAggSigner signer(chain_keys);
  out["host.fssagg.append_us"] = 1e6 * seconds_per_call([&] { keep(signer.append(msg)); });
  constexpr std::size_t kChain = 256;
  fssagg::FssAggSigner chain(chain_keys);
  std::vector<fssagg::TaggedEntry> log;
  for (std::size_t i = 0; i < kChain; ++i) log.push_back({msg, chain.append(msg)});
  out["host.fssagg.verify_us_per_entry"] =
      1e6 / kChain * seconds_per_call([&] {
        keep(fssagg::fssagg_verify(chain_keys, log, chain.aggregate_a(), chain.aggregate_b(),
                                   kChain));
      });

  // secretshare: the login-time combine of a 2-of-3 PVSS deal.
  std::vector<crypto::KeyPair> holders;
  std::vector<crypto::Point> holder_pubs;
  for (int i = 0; i < 3; ++i) {
    holders.push_back(crypto::generate_keypair(drbg));
    holder_pubs.push_back(holders.back().public_key);
  }
  const auto deal = secretshare::pvss_share(crypto::Uint256(12345), holder_pubs, 2, drbg);
  std::vector<secretshare::PvssDecryptedShare> decrypted;
  for (std::size_t i = 1; i <= 2; ++i) {
    decrypted.push_back(
        secretshare::pvss_decrypt_share(deal, i, holders[i - 1], drbg).expect("decrypt"));
  }
  out["host.secretshare.pvss_combine_ms"] =
      1e3 * seconds_per_call([&] { keep(secretshare::pvss_combine(decrypted, 2)); });

  // cache: one sealed-entry put and get.
  cache::ClientCache cache(cache::CacheOptions{});
  std::uint64_t version = 0;
  out["host.cache.get_put_us"] = 1e6 * seconds_per_call([&] {
    cache.put_data("/probe", data, ++version);
    keep(cache.get_data("/probe"));
  });
  return out;
}

}  // namespace rockfs::e2e
