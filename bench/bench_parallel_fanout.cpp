// Parallel fan-out speedup bench: wall-clock put-path latency of the DepSky
// client with the fan-out executor against the sequential baseline, under an
// emulated WAN where one cloud serves every request with a heavy tail
// (n = 4, f = 1, protocol CA).
//
// Virtual delays are scaled down into real sleeps inside each per-cloud
// branch (DepSkyConfig::emulate_latency), so the measurement captures the
// two effects the executor exists for:
//   * the four per-cloud puts overlap instead of accumulating, and
//   * the first-quorum join returns at the (n-f)-th ack and cancels the
//     tail-latency straggler mid-sleep instead of waiting it out.
// The sequential baseline (no executor: a barrier join) sleeps through every
// branch back-to-back — the pre-PR behaviour. Expected speedup at n = 4 with
// the tail armed is well above the 2x acceptance floor.
//
// Emits a paper-style table plus one JSON object per payload size on stdout
// ("rockfs.bench.parallel_fanout" rows), and --metrics-json dumps the
// registry + trace like every other bench.
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/executor.h"
#include "depsky/client.h"

namespace rockfs::bench {
namespace {

constexpr std::uint64_t kSeed = 2018;
constexpr std::size_t kClouds = 4;
// 1 virtual second of WAN latency ~= 50 ms of bench wall time. The scale is
// chosen so the emulated network dominates the local compute (AES + RS
// encode), like the real system: a 1 MiB write moves ~0.5 MiB per cloud at
// the s3-like 2.5 MB/s uplink, ~10 ms of wall sleep per branch — the 20x
// straggler sleeps ~200 ms unless the first-quorum join cancels it.
constexpr sim::SimClock::Micros kScale = 20;

struct Cell {
  std::size_t payload_mib = 0;
  double seq_ms = 0;      // mean wall-clock per write, sequential baseline
  double par_ms = 0;      // mean wall-clock per write, pool + first-quorum
  double speedup = 0;
};

struct Harness {
  sim::SimClockPtr clock;
  std::vector<cloud::CloudProviderPtr> clouds;
  std::unique_ptr<depsky::DepSkyClient> client;
  std::vector<cloud::AccessToken> tokens;
};

// Fresh fleet + client per mode so breaker state and fault draws can never
// leak across the comparison. The straggler cloud serves everything with a
// 20x latency tail (the "slow cloud" the paper's quorum reads race past).
Harness make_harness(bool parallel, std::uint64_t seed) {
  Harness h;
  h.clock = std::make_shared<sim::SimClock>();
  h.clouds = cloud::make_provider_fleet(h.clock, kClouds, seed);
  h.clouds[kClouds - 1]->faults().set_tail_latency(1.0, 20.0);

  crypto::Drbg drbg{to_bytes("bench-fanout-" + std::to_string(seed))};
  depsky::DepSkyConfig cfg;
  cfg.clouds = h.clouds;
  cfg.f = 1;
  cfg.protocol = depsky::Protocol::kCA;
  cfg.writer = crypto::generate_keypair(drbg);
  // A pool plus latency emulation makes the quorum joins first-quorum; the
  // sequential baseline (no pool) joins as a barrier.
  if (parallel) cfg.executor = std::make_shared<common::ThreadPool>(kClouds);
  cfg.emulate_latency = [](sim::SimClock::Micros virtual_us,
                           const common::CancelToken& cancel) {
    cancel.sleep_for(std::chrono::microseconds(virtual_us / kScale + 1));
  };
  h.client = std::make_unique<depsky::DepSkyClient>(std::move(cfg),
                                                    to_bytes("bench-fanout"));
  for (auto& c : h.clouds) {
    h.tokens.push_back(c->issue_token("alice", "fs", cloud::TokenScope::kFiles));
  }
  return h;
}

// Mean wall-clock milliseconds per write of `size` bytes over `reps` writes
// (one warm-up write excluded — it pays the provider's cold-object cost).
double measure_put_ms(Harness& h, std::size_t size, int reps) {
  Rng rng(kSeed ^ size);
  auto put = [&](int i) {
    auto timed = h.client->write(h.tokens, "bench/fanout/u" + std::to_string(i),
                                 rng.next_bytes(size));
    h.clock->advance_us(timed.delay);
    timed.value.expect("bench put");
  };
  put(0);  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 1; i <= reps; ++i) put(i);
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double, std::milli>(dt).count() / reps;
}

}  // namespace
}  // namespace rockfs::bench

int main(int argc, char** argv) {
  using namespace rockfs;
  using namespace rockfs::bench;

  const BenchArgs args = BenchArgs::parse(argc, argv);
  std::vector<std::size_t> payload_mib = {1, 4, 16};
  if (args.quick) payload_mib = {1, 4};
  const int reps = std::max(args.reps, 2);

  print_header("Parallel fan-out put path (n=4, f=1, CA, 20x tail on cloud-3)",
               {"MiB", "seq ms", "par ms", "speedup"});

  std::vector<Cell> cells;
  bool all_above_floor = true;
  for (const std::size_t mib : payload_mib) {
    Cell cell;
    cell.payload_mib = mib;
    {
      Harness seq = make_harness(/*parallel=*/false, kSeed + mib);
      cell.seq_ms = measure_put_ms(seq, mib << 20, reps);
    }
    {
      Harness par = make_harness(/*parallel=*/true, kSeed + mib);
      cell.par_ms = measure_put_ms(par, mib << 20, reps);
    }
    cell.speedup = cell.par_ms > 0 ? cell.seq_ms / cell.par_ms : 0;
    all_above_floor = all_above_floor && cell.speedup >= 2.0;
    std::printf("%14zu%14.2f%14.2f%13.2fx\n", cell.payload_mib, cell.seq_ms,
                cell.par_ms, cell.speedup);
    cells.push_back(cell);
  }

  // Machine-readable rows (the CI artifact greps these).
  for (const Cell& c : cells) {
    std::printf(
        "{\"bench\":\"rockfs.bench.parallel_fanout\",\"payload_mib\":%zu,"
        "\"seq_ms\":%.3f,\"par_ms\":%.3f,\"speedup\":%.3f}\n",
        c.payload_mib, c.seq_ms, c.par_ms, c.speedup);
  }
  std::printf("parallel fan-out speedup floor (>=2.0x): %s\n",
              all_above_floor ? "PASS" : "FAIL");

  dump_metrics_json(args);
  return all_above_floor ? 0 : 1;
}
