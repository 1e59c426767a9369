// Credential revocation & keystore rotation bench (ISSUE 6): how fast a
// compromised user is locked out, and what the rotation costs.
//
//   1. Detection -> lockout latency: from the moment the detector's verdict
//      lands on the admin's desk to the revocation floor's quorum commit
//      (after which no non-faulty cloud accepts pre-rotation credentials),
//      and onward until every cloud enforces the floor.
//   2. Rotation MTTR: the full replace pipeline — token reissue, FssAgg
//      chain roll + signed rotation record, PVSS reseal, honest re-login —
//      with the end-to-end response time (floor + eviction + rotation).
//   3. Audit cost across rotations: chain verification time for a log
//      spanning 0, 1 and 2 rotation records (the rotated verifier's price).
//   4. One chaos-soak cell (faults + admin crashes + racing attacker) with
//      its lockout/convergence counters, as a regression signal.
//
// All latencies are VIRTUAL time; a fixed seed reproduces the run exactly.
// Output: a table, then one JSON document on stdout (line starting '{').
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "rockfs/compromise.h"
#include "rockfs/revocation.h"

namespace rockfs::bench {
namespace {

struct ResponseCost {
  double lockout_ms = 0.0;      // verdict -> floor quorum commit
  double enforce_all_ms = 0.0;  // verdict -> every cloud enforcing
  double rotation_ms = 0.0;     // keystore replacement (reissue..relogin)
  double response_ms = 0.0;     // the whole pipeline end to end
};

ResponseCost response_cost(std::uint64_t seed, int files) {
  auto dep = make_deployment(true, scfs::SyncMode::kBlocking, seed);
  auto& agent = dep.add_user("mallory");
  Rng rng(seed ^ 0x10CC);
  for (int i = 0; i < files; ++i) {
    create_file(agent, "/m/f" + std::to_string(i), 32 * 1024, rng);
  }

  ResponseCost out;
  const auto t0 = dep.clock()->now_us();
  auto response = dep.respond_to_compromise("mallory");
  response.expect("bench response");
  out.lockout_ms = static_cast<double>(response->lockout_latency_us) / 1e3;
  out.rotation_ms = static_cast<double>(response->rotation_us) / 1e3;
  out.response_ms = static_cast<double>(dep.clock()->now_us() - t0) / 1e3;
  // With no outages the floor lands everywhere during the response itself.
  out.enforce_all_ms = out.response_ms - out.rotation_ms;
  return out;
}

/// Audit time for a chain carrying `rotations` rotation records.
double audit_ms(std::uint64_t seed, int files, int rotations) {
  auto dep = make_deployment(true, scfs::SyncMode::kBlocking, seed);
  auto& agent = dep.add_user("alice");
  Rng rng(seed ^ 0xA0D1);
  for (int r = 0; r <= rotations; ++r) {
    for (int i = 0; i < files; ++i) {
      create_file(agent, "/a/r" + std::to_string(r) + "f" + std::to_string(i),
                  16 * 1024, rng);
    }
    if (r < rotations) dep.respond_to_compromise("alice").expect("bench rotate");
  }
  auto recovery = dep.make_recovery_service("alice");
  const auto t0 = dep.clock()->now_us();
  auto audit = recovery.audit_log();
  audit.expect("bench audit");
  if (!audit->report.ok) std::fprintf(stderr, "audit failed to verify\n");
  return static_cast<double>(dep.clock()->now_us() - t0) / 1e3;
}

void run(const BenchArgs& args) {
  const int files = args.quick ? 4 : 12;
  const std::uint64_t seed = 2029;

  std::printf("Revocation bench: token epochs + keystore rotation, f=1, seed %llu\n",
              static_cast<unsigned long long>(seed));

  std::vector<double> lockout, enforce, rotation, response;
  for (int rep = 0; rep < args.reps; ++rep) {
    const ResponseCost c = response_cost(seed + static_cast<std::uint64_t>(rep), files);
    lockout.push_back(c.lockout_ms);
    enforce.push_back(c.enforce_all_ms);
    rotation.push_back(c.rotation_ms);
    response.push_back(c.response_ms);
  }
  print_header("compromise response latency (virtual ms)",
               {"stage", "mean ms", "stddev"});
  std::printf("%14s%14.1f%14.1f\n", "lockout", mean(lockout), stddev(lockout));
  std::printf("%14s%14.1f%14.1f\n", "all clouds", mean(enforce), stddev(enforce));
  std::printf("%14s%14.1f%14.1f\n", "rotation", mean(rotation), stddev(rotation));
  std::printf("%14s%14.1f%14.1f\n", "end to end", mean(response), stddev(response));

  const double audit0 = audit_ms(seed, files, 0);
  const double audit1 = audit_ms(seed, files, 1);
  const double audit2 = audit_ms(seed, files, 2);
  print_header("chain audit vs rotation records in the log",
               {"rotations", "audit ms"});
  std::printf("%14d%14.1f\n", 0, audit0);
  std::printf("%14d%14.1f\n", 1, audit1);
  std::printf("%14d%14.1f\n", 2, audit2);

  core::CompromiseSoakOptions soak;
  soak.seed = seed;
  soak.rounds = args.quick ? 8 : 16;
  soak.incident_every = 4;
  const auto report = core::run_compromise_soak(soak);
  print_header("chaos soak (outages + coord faults + admin crashes + attacker)",
               {"counter", "value"});
  std::printf("%14s%14zu\n", "incidents", report.incidents);
  std::printf("%14s%14zu\n", "rotations", report.rotations);
  std::printf("%14s%14zu\n", "crashes", report.response_crashes + report.recovery_crashes);
  std::printf("%14s%14zu\n", "atk writes", report.attack.write_attempts);
  std::printf("%14s%14zu\n", "atk denied", report.attack.revoked_denials);
  std::printf("%14s%14zu\n", "post-floor", report.attack.writes_accepted_post_floor +
                                               report.attack.reads_accepted_post_floor);
  std::printf("max lockout: %.1f ms; max rotation: %.1f ms; lockout held: %s; "
              "converged: %s\n",
              static_cast<double>(report.max_lockout_latency_us) / 1e3,
              static_cast<double>(report.max_rotation_us) / 1e3,
              report.lockout_held ? "yes" : "NO", report.converged ? "yes" : "NO");

  std::string json = "{\"bench\":\"revocation\",";
  char buf[640];
  std::snprintf(buf, sizeof(buf),
                "\"response\":{\"lockout_ms\":%.1f,\"all_clouds_ms\":%.1f,"
                "\"rotation_ms\":%.1f,\"end_to_end_ms\":%.1f},"
                "\"audit_ms\":{\"rot0\":%.1f,\"rot1\":%.1f,\"rot2\":%.1f},",
                mean(lockout), mean(enforce), mean(rotation), mean(response), audit0,
                audit1, audit2);
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "\"soak\":{\"incidents\":%zu,\"rotations\":%zu,"
                "\"response_crashes\":%zu,\"recovery_crashes\":%zu,"
                "\"attacker_writes\":%zu,\"revoked_denials\":%zu,"
                "\"post_floor_accepts\":%zu,\"max_lockout_ms\":%.1f,"
                "\"max_rotation_ms\":%.1f,\"lockout_held\":%s,\"converged\":%s,"
                "\"honest_digest\":\"%s\"}}",
                report.incidents, report.rotations, report.response_crashes,
                report.recovery_crashes, report.attack.write_attempts,
                report.attack.revoked_denials,
                report.attack.writes_accepted_post_floor +
                    report.attack.reads_accepted_post_floor,
                static_cast<double>(report.max_lockout_latency_us) / 1e3,
                static_cast<double>(report.max_rotation_us) / 1e3,
                report.lockout_held ? "true" : "false",
                report.converged ? "true" : "false", report.content_digest.c_str());
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
