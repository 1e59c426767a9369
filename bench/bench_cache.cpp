// Client cache bench (ISSUE 10): what the §13 cache subsystem buys and two
// CI tripwires that keep it honest.
//
//   1. Warm vs cold read latency (virtual time): cold = cache dropped before
//      every read (DepSky fetch each time), warm = validated cache hit (one
//      coordination round + local SSD). Reports the speedup; the paper's
//      motivation for the client cache is exactly this gap.
//   2. Hit ratio under a skewed re-read workload (hot subset re-read often,
//      cold tail once) straight from the cache.* counters.
//   3. Write-back coalescing under a small-write burst: the same workload
//      write-through vs write-back, comparing commit pipelines (= DepSky
//      uploads) and log appends. Reports the coalescing factor.
//   4. Soak content digest, cache on vs off (3 seeds): the converged bytes
//      must be identical — the cache may never change WHAT converges.
//
// Exit status (CI gates): nonzero when the warm-read speedup is < 3x, when
// the small-write burst does not commit >= 2x fewer uploads under
// write-back, or when any soak digest differs cache-on vs cache-off.
//
// All latencies are VIRTUAL time; a fixed seed reproduces the run exactly.
// Output: tables, then one JSON document on stdout (line starting '{').
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "rockfs/multiclient.h"

namespace rockfs::bench {
namespace {

std::uint64_t ctr(const std::string& name) {
  return obs::metrics().counter_value(name);
}

struct ReadLatency {
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  double speedup = 0.0;
  double hit_ratio = 0.0;
};

/// Phase 1+2: cold/warm split plus the hit ratio of a skewed re-read mix.
ReadLatency read_latencies(const BenchArgs& args, std::uint64_t seed) {
  auto dep = make_deployment(true, scfs::SyncMode::kBlocking, seed);
  auto& agent = dep.add_user("alice");
  Rng rng(seed ^ 0xCAC4E);

  const std::size_t files = args.quick ? 4 : 8;
  const std::size_t file_bytes = 256 * 1024;
  for (std::size_t i = 0; i < files; ++i) {
    create_file(agent, "/data/f" + std::to_string(i), file_bytes, rng);
  }
  agent.drain_background();

  std::vector<double> cold_ms, warm_ms;
  for (int rep = 0; rep < args.reps; ++rep) {
    for (std::size_t i = 0; i < files; ++i) {
      const std::string path = "/data/f" + std::to_string(i);
      agent.fs().clear_cache();
      auto t0 = dep.clock()->now_us();
      agent.read_file(path).expect("bench cold read");
      cold_ms.push_back(static_cast<double>(dep.clock()->now_us() - t0) / 1000.0);
      t0 = dep.clock()->now_us();
      agent.read_file(path).expect("bench warm read");
      warm_ms.push_back(static_cast<double>(dep.clock()->now_us() - t0) / 1000.0);
    }
  }

  // Skewed re-read mix for the headline hit ratio: 2 hot files re-read 8x
  // each, the rest touched once.
  const auto hits0 = ctr("cache.data.hits");
  const auto misses0 = ctr("cache.data.misses");
  agent.fs().clear_cache();
  for (int round = 0; round < 8; ++round) {
    for (std::size_t hot = 0; hot < 2 && hot < files; ++hot) {
      agent.read_file("/data/f" + std::to_string(hot)).expect("bench hot read");
    }
  }
  for (std::size_t i = 2; i < files; ++i) {
    agent.read_file("/data/f" + std::to_string(i)).expect("bench tail read");
  }
  const double hits = static_cast<double>(ctr("cache.data.hits") - hits0);
  const double misses = static_cast<double>(ctr("cache.data.misses") - misses0);

  ReadLatency out;
  out.cold_ms = mean(cold_ms);
  out.warm_ms = mean(warm_ms);
  out.speedup = out.warm_ms > 0 ? out.cold_ms / out.warm_ms : 0.0;
  out.hit_ratio = (hits + misses) > 0 ? hits / (hits + misses) : 0.0;
  return out;
}

struct Coalescing {
  std::size_t closes = 0;
  std::size_t uploads_through = 0;  // commit pipelines, write-through
  std::size_t uploads_back = 0;     // commit pipelines, write-back
  double factor = 0.0;              // closes per write-back upload
  double virtual_ms_through = 0.0;
  double virtual_ms_back = 0.0;
};

/// Phase 3: a small-write burst (append-heavy, few paths), write-through vs
/// write-back. Uploads are counted as commit pipelines entered: log appends
/// for the write-through run, wb flushes for the write-back run.
Coalescing coalescing_burst(const BenchArgs& args, std::uint64_t seed) {
  const std::size_t paths = 2;
  const std::size_t writes = args.quick ? 16 : 32;

  Coalescing out;
  out.closes = writes;

  for (const bool write_back : {false, true}) {
    auto dep = make_deployment(true, scfs::SyncMode::kBlocking, seed);
    core::AgentOptions opts;
    opts.sync_mode = scfs::SyncMode::kBlocking;
    opts.write_back = write_back;
    auto& agent = dep.add_user("alice", opts);
    Rng rng(seed ^ 0xB065);

    const auto appends0 = ctr("log.append.count");
    const auto flushes0 = ctr("cache.wb.flushes");
    const auto t0 = dep.clock()->now_us();
    for (std::size_t i = 0; i < writes; ++i) {
      const std::string path = "/burst/p" + std::to_string(i % paths);
      auto fd = agent.open(path);
      if (!fd.ok()) fd = agent.create(path);
      fd.expect("bench burst open");
      agent.append(*fd, rng.next_bytes(64)).expect("bench burst append");
      agent.close(*fd).expect("bench burst close");
    }
    agent.flush_all().expect("bench burst flush");
    agent.drain_background();
    const double ms = static_cast<double>(dep.clock()->now_us() - t0) / 1000.0;

    if (write_back) {
      out.uploads_back = static_cast<std::size_t>(ctr("cache.wb.flushes") - flushes0);
      out.virtual_ms_back = ms;
    } else {
      out.uploads_through = static_cast<std::size_t>(ctr("log.append.count") - appends0);
      out.virtual_ms_through = ms;
    }
  }
  out.factor = out.uploads_back > 0
                   ? static_cast<double>(out.closes) / static_cast<double>(out.uploads_back)
                   : 0.0;
  return out;
}

struct SoakCell {
  std::uint64_t seed = 0;
  bool match = false;
  bool converged = false;
};

/// Phase 4: cache on/off must converge to identical bytes.
SoakCell soak_digest(std::uint64_t seed, std::size_t rounds) {
  core::MultiClientOptions opt;
  opt.seed = seed;
  opt.rounds = rounds;
  opt.client_cache = true;
  auto on = core::run_multiclient_soak(opt);
  opt.client_cache = false;
  auto off = core::run_multiclient_soak(opt);
  return {seed, on.content_digest == off.content_digest,
          on.converged() && off.converged()};
}

}  // namespace
}  // namespace rockfs::bench

int main(int argc, char** argv) {
  using namespace rockfs::bench;
  const BenchArgs args = BenchArgs::parse(argc, argv);
  rockfs::set_log_level(rockfs::LogLevel::kError);

  const auto lat = read_latencies(args, 2018);

  print_header("warm vs cold reads (virtual ms, 256 KiB files)",
               {"cold", "warm", "speedup", "hit_ratio"});
  std::printf("%14.2f%14.2f%14.2f%14.2f\n", lat.cold_ms, lat.warm_ms, lat.speedup,
              lat.hit_ratio);

  const auto co = coalescing_burst(args, 2018);
  print_header("small-write burst: write-through vs write-back",
               {"closes", "uploads_wt", "uploads_wb", "coalesce_x", "wt_ms", "wb_ms"});
  std::printf("%14zu%14zu%14zu%14.2f%14.2f%14.2f\n", co.closes, co.uploads_through,
              co.uploads_back, co.factor, co.virtual_ms_through, co.virtual_ms_back);

  print_header("soak content digest, cache on vs off", {"seed", "match", "converged"});
  std::vector<SoakCell> soaks;
  const std::size_t rounds = args.quick ? 12 : 18;
  for (const std::uint64_t seed : {11ull, 23ull, 37ull}) {
    soaks.push_back(soak_digest(seed, rounds));
    std::printf("%14llu%14s%14s\n", static_cast<unsigned long long>(soaks.back().seed),
                soaks.back().match ? "yes" : "NO",
                soaks.back().converged ? "yes" : "NO");
  }

  bool digests_ok = true;
  for (const auto& s : soaks) digests_ok = digests_ok && s.match && s.converged;
  const bool speedup_ok = lat.speedup >= 3.0;
  const bool coalesce_ok =
      co.uploads_back * 2 <= co.uploads_through && co.uploads_back > 0;

  std::printf("\n{\"bench\":\"cache\",\"cold_ms\":%.3f,\"warm_ms\":%.3f,"
              "\"speedup\":%.3f,\"hit_ratio\":%.4f,\"closes\":%zu,"
              "\"uploads_write_through\":%zu,\"uploads_write_back\":%zu,"
              "\"coalescing_factor\":%.3f,\"digests_match\":%s,"
              "\"speedup_gate\":%s,\"coalesce_gate\":%s}\n",
              lat.cold_ms, lat.warm_ms, lat.speedup, lat.hit_ratio, co.closes,
              co.uploads_through, co.uploads_back, co.factor,
              digests_ok ? "true" : "false", speedup_ok ? "true" : "false",
              coalesce_ok ? "true" : "false");

  dump_metrics_json(args);

  if (!speedup_ok) {
    std::fprintf(stderr, "GATE FAILED: warm-read speedup %.2fx < 3x\n", lat.speedup);
    return 1;
  }
  if (!coalesce_ok) {
    std::fprintf(stderr, "GATE FAILED: write-back uploads %zu not >= 2x fewer than %zu\n",
                 co.uploads_back, co.uploads_through);
    return 1;
  }
  if (!digests_ok) {
    std::fprintf(stderr, "GATE FAILED: soak digest mismatch cache on vs off\n");
    return 1;
  }
  return 0;
}
