// Multi-client sessions bench (ISSUE 4): what lease-based locking and
// fencing epochs cost, and how fast the system heals around a dead holder.
//
//   1. Lock acquire latency: mean uncontended lock() time (one lease read +
//      one coordination CAS) and the renewal path (read + replace).
//   2. Eviction latency: a holder crashes mid-close; the virtual time from
//      the contender's first (refused) lock attempt to its successful
//      takeover of the expired lease. Bounded by the lease TTL plus the
//      contender's retry quantum.
//   3. Close-path fencing cost, attributed from the trace: per locked
//      blocking close(), the fence checks (coord.op "rdp" spans — the
//      pre-flight lease read and the log append's two checks) and their
//      virtual time, against the mean close latency.
//   4. One chaos soak cell (N agents, crash+hang schedules) with its
//      convergence counters, as a smoke-level regression signal.
//
// All latencies are VIRTUAL time; a fixed seed reproduces the run exactly.
// Output: a table, then one JSON document on stdout (line starting '{').
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "rockfs/multiclient.h"

namespace rockfs::bench {
namespace {

core::Deployment make_lease_deployment(std::uint64_t seed, std::int64_t lease_ttl_us) {
  set_log_level(LogLevel::kError);
  core::DeploymentOptions opts;
  opts.seed = seed;
  opts.agent.sync_mode = scfs::SyncMode::kBlocking;
  opts.agent.lease_ttl_us = lease_ttl_us;
  return core::Deployment(opts);
}

constexpr std::int64_t kTtlUs = 5'000'000;

struct LockLatency {
  double acquire_ms = 0.0;  // fresh mint (lease read + CAS)
  double renew_ms = 0.0;    // re-lock by the live holder (read + replace)
};

LockLatency lock_latency(int paths, std::uint64_t seed) {
  auto dep = make_lease_deployment(seed, kTtlUs);
  auto& alice = dep.add_user("alice");
  LockLatency out;
  std::vector<double> acquire_ms;
  std::vector<double> renew_ms;
  for (int i = 0; i < paths; ++i) {
    const std::string path = "/bench/lock" + std::to_string(i);
    auto t0 = dep.clock()->now_us();
    alice.lock(path).expect("bench lock");
    acquire_ms.push_back(static_cast<double>(dep.clock()->now_us() - t0) / 1e3);
    t0 = dep.clock()->now_us();
    alice.lock(path).expect("bench renew");
    renew_ms.push_back(static_cast<double>(dep.clock()->now_us() - t0) / 1e3);
    alice.unlock(path).expect("bench unlock");
  }
  out.acquire_ms = mean(acquire_ms);
  out.renew_ms = mean(renew_ms);
  return out;
}

/// Holder crashes mid-close with the lease held; returns the virtual time
/// the contender spends blocked (first refused lock -> successful eviction).
double eviction_latency_ms(std::uint64_t seed) {
  auto dep = make_lease_deployment(seed, kTtlUs);
  auto& alice = dep.add_user("alice");
  auto& bob = dep.add_user("bob");
  Rng rng(seed ^ 0xE71C);
  alice.write_file("/bench/f", rng.next_bytes(32 * 1024)).expect("bench warmup");
  alice.lock("/bench/f").expect("bench lock");
  dep.crash_schedule()->arm(sim::CrashPoint::kAfterLogIntent);
  if (alice.write_file("/bench/f", rng.next_bytes(32 * 1024)).code() !=
      ErrorCode::kCrashed) {
    std::fprintf(stderr, "expected the holder to crash\n");
    return 0.0;
  }
  const auto t0 = dep.clock()->now_us();
  Status st = bob.lock("/bench/f");
  while (st.code() == ErrorCode::kConflict) {
    dep.clock()->advance_us(kTtlUs / 10);
    st = bob.lock("/bench/f");
  }
  st.expect("bench eviction");
  return static_cast<double>(dep.clock()->now_us() - t0) / 1e3;
}

struct FenceCost {
  double close_ms = 0.0;       // mean blocking close() latency
  double checks = 0.0;         // fence reads (coord.op "rdp") per close
  double fence_ms = 0.0;       // their virtual time per close
  double share_pct = 0.0;      // fence_ms / close_ms
};

/// Mean blocking close() latency for locked writes, and the part of it the
/// trace attributes to fence checks.
FenceCost fence_cost(int files, std::uint64_t seed) {
  auto dep = make_lease_deployment(seed, kTtlUs);
  auto& alice = dep.add_user("alice");
  Rng rng(seed ^ 0xC705E);
  std::vector<double> ms;
  std::vector<double> checks;
  std::vector<double> fence_ms;
  const auto timed_write = [&](const std::string& path, const Bytes& content) {
    const auto t0 = dep.clock()->now_us();
    alice.write_file(path, content).expect("bench write");
    ms.push_back(static_cast<double>(dep.clock()->now_us() - t0) / 1e3);
    const SpanTotal fence = span_total("coord.op", "rdp");
    checks.push_back(static_cast<double>(fence.count));
    fence_ms.push_back(fence.ms);
  };
  for (int i = 0; i < files; ++i) {
    const std::string path = "/bench/f" + std::to_string(i);
    alice.lock(path).expect("bench lock");
    Bytes content = rng.next_bytes(64 * 1024);
    timed_write(path, content);
    append(content, rng.next_bytes(16 * 1024));
    timed_write(path, content);
    alice.unlock(path).expect("bench unlock");
  }
  FenceCost out;
  out.close_ms = mean(ms);
  out.checks = mean(checks);
  out.fence_ms = mean(fence_ms);
  out.share_pct = out.close_ms > 0.0 ? 100.0 * out.fence_ms / out.close_ms : 0.0;
  return out;
}

void run(const BenchArgs& args) {
  const int files = args.quick ? 6 : 24;
  const int lock_paths = args.quick ? 8 : 32;
  const std::uint64_t seed = 2028;

  std::printf("Multi-client bench: leases + fencing, blocking closes, f=1, seed %llu\n",
              static_cast<unsigned long long>(seed));

  const LockLatency locks = lock_latency(lock_paths, seed);
  print_header("lock acquire latency (lease read + coordination CAS)",
               {"path", "mean ms"});
  std::printf("%14s%14.3f\n", "fresh mint", locks.acquire_ms);
  std::printf("%14s%14.3f\n", "renewal", locks.renew_ms);

  const double eviction_ms = eviction_latency_ms(seed);
  print_header("eviction latency after holder crash", {"lease TTL ms", "blocked ms"});
  std::printf("%14.0f%14.1f\n", static_cast<double>(kTtlUs) / 1e3, eviction_ms);

  const FenceCost fence = fence_cost(files, seed);
  print_header("close-path fence checks (from the close's span tree)",
               {"close ms", "checks/close", "fence ms", "share"});
  std::printf("%14.2f%14.2f%14.2f%13.1f%%\n", fence.close_ms, fence.checks, fence.fence_ms,
              fence.share_pct);

  core::MultiClientOptions soak;
  soak.seed = seed;
  soak.rounds = args.quick ? 12 : 24;
  soak.lease_ttl_us = kTtlUs;
  const auto report = core::run_multiclient_soak(soak);
  print_header("chaos soak (3 agents, crash + hang schedules)",
               {"counter", "value"});
  std::printf("%14s%14zu\n", "committed", report.writes_committed);
  std::printf("%14s%14zu\n", "fenced", report.writes_fenced);
  std::printf("%14s%14zu\n", "crashed", report.writes_crashed);
  std::printf("%14s%14zu\n", "evictions", report.evictions);
  std::printf("%14s%14zu\n", "lost", report.lost_updates);
  std::printf("%14s%14zu\n", "zombies", report.zombie_updates);
  std::printf("max blocked: %.1f ms; converged: %s\n",
              static_cast<double>(report.max_blocked_us) / 1e3,
              report.converged() ? "yes" : "NO");

  std::string json = "{\"bench\":\"multiclient\",";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"lock\":{\"acquire_ms\":%.3f,\"renew_ms\":%.3f},"
                "\"eviction\":{\"lease_ttl_ms\":%.0f,\"blocked_ms\":%.1f},"
                "\"close\":{\"close_ms\":%.3f,\"fence_checks\":%.2f,"
                "\"fence_ms\":%.3f,\"fence_pct\":%.2f},",
                locks.acquire_ms, locks.renew_ms, static_cast<double>(kTtlUs) / 1e3,
                eviction_ms, fence.close_ms, fence.checks, fence.fence_ms, fence.share_pct);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "\"soak\":{\"committed\":%zu,\"fenced\":%zu,\"crashed\":%zu,"
                "\"evictions\":%zu,\"lost\":%zu,\"zombies\":%zu,"
                "\"max_blocked_ms\":%.1f,\"converged\":%s,\"digest\":\"%s\"}}",
                report.writes_committed, report.writes_fenced, report.writes_crashed,
                report.evictions, report.lost_updates, report.zombie_updates,
                static_cast<double>(report.max_blocked_us) / 1e3,
                report.converged() ? "true" : "false", report.digest.c_str());
  json += buf;
  std::printf("\n%s\n", json.c_str());
}

}  // namespace
}  // namespace rockfs::bench

int main(int argc, char** argv) {
  const auto args = rockfs::bench::BenchArgs::parse(argc, argv);
  rockfs::bench::run(args);
  rockfs::bench::dump_metrics_json(args);
  return 0;
}
