// §6 (intro) — cost of the T2/T3 protections.
//
// The paper reports that the credential (T2) and cache (T3) protections cost
// "below tens of milliseconds" and therefore focuses its evaluation on T1.
// This bench substantiates that claim for our implementation: REAL wall-clock
// time of the client-side cryptography (PVSS share/verify/combine for the
// keystore; the cache transform's seal/open for the cache), which is exactly
// what the user pays on top of the I/O.
#include <chrono>
#include <cstdio>

#include "bench/bench_util.h"
#include "rockfs/cache_security.h"
#include "rockfs/keystore.h"
#include "secretshare/pvss.h"

namespace rockfs::bench {
namespace {

using Clock = std::chrono::steady_clock;

double time_ms(const std::function<void()>& fn, int reps) {
  const auto start = Clock::now();
  for (int i = 0; i < reps; ++i) fn();
  const auto end = Clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count() /
         static_cast<double>(reps);
}

void run(const BenchArgs& args) {
  const int reps = args.quick ? 3 : 10;
  std::printf("T2/T3 protection costs (REAL milliseconds per operation)\n");
  std::printf("paper: 'below tens of milliseconds', hence excluded from §6's focus\n");
  print_header("T2 — keystore (PVSS, 2-of-3)", {"operation", "ms/op"});

  crypto::Drbg drbg(to_bytes("t2t3"));
  std::vector<core::ShareHolder> holders{{"device", crypto::generate_keypair(drbg)},
                                         {"coordination", crypto::generate_keypair(drbg)},
                                         {"external", crypto::generate_keypair(drbg)}};
  std::vector<crypto::Point> pubs{holders[0].keys.public_key, holders[1].keys.public_key,
                                  holders[2].keys.public_key};
  core::Keystore ks;
  ks.user_id = "alice";
  ks.user_private_key = drbg.generate(32);
  ks.session_key = drbg.generate(32);
  ks.fssagg_key_a = drbg.generate(32);
  ks.fssagg_key_b = drbg.generate(32);

  core::SealedKeystore sealed;
  std::printf("%14s%14.2f\n", "seal (share)",
              time_ms([&] { sealed = core::seal_keystore(ks, holders, 2, drbg); }, reps));
  std::printf("%14s%14.2f\n", "verifyD",
              time_ms([&] { (void)secretshare::pvss_verify_deal(sealed.deal, pubs); },
                      reps));
  std::printf("%14s%14.2f\n", "login", time_ms([&] {
                core::unseal_keystore(sealed, {holders[0], holders[1]}, pubs, 2, drbg)
                    .expect("unseal");
              }, reps));

  print_header("T3 — cache crypto (per open/close)", {"file size", "seal ms", "open ms"});
  auto clock = std::make_shared<sim::SimClock>();
  auto coordination = std::make_shared<coord::CoordinationService>(clock, /*f=*/1, /*seed=*/1);
  auto keys = std::make_shared<core::SessionKeyManager>("alice", coordination, clock,
                                                        /*validity_us=*/3'600'000'000);
  core::SecureCacheTransform transform(keys, std::make_shared<crypto::Drbg>(to_bytes("t3")));
  (void)transform.protect("/docs/file", 0, {});  // the first seal mints and registers S_U
  for (const std::size_t kb : {64uL, 1024uL, 10240uL}) {
    Bytes plain = drbg.generate(kb << 10);
    Bytes box;
    const double seal_ms =
        time_ms([&] { box = transform.protect("/docs/file", 1, plain); }, reps);
    const double open_ms =
        time_ms([&] { transform.unprotect("/docs/file", 1, box).expect("open"); }, reps);
    std::printf("%12zuKB%14.2f%14.2f\n", kb, seal_ms, open_ms);
  }
  std::printf("(seal = the cache transform's AES-256-GCM seal on close; open = tag check +\n"
              " decrypt on open; both under a key derived from the session key S_U)\n");
}

}  // namespace
}  // namespace rockfs::bench

int main(int argc, char** argv) {
  const auto args = rockfs::bench::BenchArgs::parse(argc, argv);
  rockfs::bench::run(args);
  rockfs::bench::dump_metrics_json(args);
  return 0;
}
