// Crash-resilience bench (ISSUE 3): what crash consistency costs and what it
// buys.
//
//   1. Close-path journal cost, attributed from the trace: the write-ahead
//      intent is one coordination round (the coord.op span under
//      log.intent) serialized ahead of the file upload — the price of crash
//      consistency on the hot path, in ms and as a share of close latency.
//   2. Crash-to-consistent MTTR: for every client-side crash point, the
//      virtual time from the simulated process death to a consistent,
//      writable deployment again (login replaying the intent journal + the
//      user's retry of the interrupted write; for the mid-recovery point,
//      the resumed recover_all).
//
// All latencies are VIRTUAL time; a fixed seed reproduces the run exactly.
// Output: a table, then one JSON document on stdout (line starting '{').
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"

namespace rockfs::bench {
namespace {

core::Deployment make_crash_deployment(std::uint64_t seed) {
  set_log_level(LogLevel::kError);
  core::DeploymentOptions opts;
  opts.seed = seed;
  opts.agent.sync_mode = scfs::SyncMode::kBlocking;
  return core::Deployment(opts);
}

struct JournalCost {
  double close_ms = 0.0;    // mean blocking close() latency
  double journal_ms = 0.0;  // intent record round per close
  double share_pct = 0.0;   // journal_ms / close_ms
};

/// Mean blocking-close latency over `files` create + update pairs, and the
/// part of it the trace attributes to the intent journal.
JournalCost journal_cost(int files, std::uint64_t seed) {
  auto dep = make_crash_deployment(seed);
  auto& alice = dep.add_user("alice");
  Rng rng(seed ^ 0xC10);
  std::vector<double> ms;
  std::vector<double> journal_ms;
  const auto timed_write = [&](const std::string& path, const Bytes& content) {
    const auto t0 = dep.clock()->now_us();
    alice.write_file(path, content).expect("bench write");
    ms.push_back(static_cast<double>(dep.clock()->now_us() - t0) / 1e3);
    journal_ms.push_back(span_total("coord.op", "", "log.intent").ms);
  };
  for (int i = 0; i < files; ++i) {
    const std::string path = "/bench/f" + std::to_string(i);
    Bytes content = rng.next_bytes(64 * 1024);
    timed_write(path, content);
    append(content, rng.next_bytes(16 * 1024));
    timed_write(path, content);
  }
  JournalCost out;
  out.close_ms = mean(ms);
  out.journal_ms = mean(journal_ms);
  out.share_pct = out.close_ms > 0.0 ? 100.0 * out.journal_ms / out.close_ms : 0.0;
  return out;
}

struct MttrResult {
  const char* point;
  double mttr_ms = 0.0;
};

/// Crash at `point`, then measure virtual time until the deployment is
/// consistent and the interrupted operation has been completed.
MttrResult measure_mttr(sim::CrashPoint point, int warm_files, std::uint64_t seed) {
  auto dep = make_crash_deployment(seed);
  auto& alice = dep.add_user("alice");
  Rng rng(seed ^ 0x3A5);
  for (int i = 0; i < warm_files; ++i) {
    alice.write_file("/bench/w" + std::to_string(i), rng.next_bytes(32 * 1024))
        .expect("bench warmup");
  }

  MttrResult result{sim::crash_point_name(point)};
  if (point == sim::CrashPoint::kMidRecoverAll) {
    auto recovery = dep.make_recovery_service("alice");
    dep.crash_schedule()->arm(point);
    auto crashed = recovery.recover_all({});
    if (crashed.ok() || crashed.code() != ErrorCode::kCrashed) {
      std::fprintf(stderr, "expected a mid-recovery crash\n");
      return result;
    }
    const auto t0 = dep.clock()->now_us();
    recovery.recover_all({}).expect("resumed recover_all");
    result.mttr_ms = static_cast<double>(dep.clock()->now_us() - t0) / 1e3;
    return result;
  }

  dep.crash_schedule()->arm(point);
  const Bytes content = rng.next_bytes(64 * 1024);
  auto st = alice.write_file("/bench/crash-me", content);
  if (st.code() != ErrorCode::kCrashed) {
    std::fprintf(stderr, "expected a crash at %s\n", result.point);
    return result;
  }
  const auto t0 = dep.clock()->now_us();
  dep.login_default("alice").expect("restart login");  // replays the journal
  alice.write_file("/bench/crash-me", content).expect("retry after restart");
  result.mttr_ms = static_cast<double>(dep.clock()->now_us() - t0) / 1e3;
  return result;
}

void run(const BenchArgs& args) {
  const int files = args.quick ? 6 : 24;
  const int warm_files = args.quick ? 2 : 6;
  const std::uint64_t seed = 2027;

  std::printf("Crash-resilience bench: blocking closes, 64 KiB files, f=1, seed %llu\n",
              static_cast<unsigned long long>(seed));

  const JournalCost journal = journal_cost(files, seed);
  print_header("close-path cost of the intent journal (from the close's span tree)",
               {"close ms", "journal ms", "share"});
  std::printf("%14.2f%14.2f%13.1f%%\n", journal.close_ms, journal.journal_ms,
              journal.share_pct);

  print_header("crash-to-consistent MTTR", {"crash point", "mttr ms"});
  std::vector<MttrResult> mttrs;
  for (std::size_t p = 0; p < sim::kClosePathCrashPointCount; ++p) {
    mttrs.push_back(measure_mttr(static_cast<sim::CrashPoint>(p), warm_files, seed));
    std::printf("%22s%14.1f\n", mttrs.back().point, mttrs.back().mttr_ms);
  }

  std::string json = "{\"bench\":\"crash_resilience\",\"close\":{";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "\"close_ms\":%.3f,\"journal_ms\":%.3f,\"journal_pct\":%.2f},"
                "\"mttr\":[",
                journal.close_ms, journal.journal_ms, journal.share_pct);
  json += buf;
  for (std::size_t i = 0; i < mttrs.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s{\"point\":\"%s\",\"mttr_ms\":%.1f}",
                  i == 0 ? "" : ",", mttrs[i].point, mttrs[i].mttr_ms);
    json += buf;
  }
  json += "]}";
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
