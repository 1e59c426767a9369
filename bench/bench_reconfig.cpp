// Malicious-cloud resilience bench (ISSUE 8): what the freshness defense
// and the cloud-set reconfiguration cost.
//
//   1. Detection latency per adversarial mode: client operations and
//      virtual time from the cloud turning malicious to the quarantine
//      verdict (rollback / equivocation / share withholding / replay).
//   2. Reconfiguration MTTR: quarantine verdict -> last share migrated,
//      from the full chaos soak (attack, detection, eviction, migration
//      with crash points), plus the soak's convergence counters.
//   3. Freshness-check read overhead: the witness checks are local memory —
//      a read with a fully populated witness must cost the same virtual
//      time as one with an empty witness (no extra cloud round-trips).
//   4. Post-migration redundancy gate: after an eviction, every unit on the
//      new cloud set must hold at least k + margin current-version shares.
//      The bench EXITS NONZERO if any unit is below that — this is the CI
//      tripwire for a migration that silently under-replicates.
//
// All latencies are VIRTUAL time; a fixed seed reproduces the run exactly.
// Output: tables, then one JSON document on stdout (line starting '{').
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "rockfs/malicious.h"
#include "sim/faults.h"

namespace rockfs::bench {
namespace {

struct Detection {
  double ms = 0.0;
  std::size_t ops = 0;
  bool caught = false;
};

Detection detection_latency(std::uint64_t seed, sim::AdversarialMode mode) {
  auto dep = make_deployment(true, scfs::SyncMode::kBlocking, seed);
  auto& agent = dep.add_user("alice");
  Rng rng(seed ^ 0xD373);
  for (int i = 0; i < 4; ++i) {
    create_file(agent, "/a/f" + std::to_string(i), 16 * 1024, rng);
  }

  // An equivocating adversary only lies to one partition; make sure the
  // probing user is in it (the adversary would pick such a salt too).
  std::uint64_t salt = 0;
  if (mode == sim::AdversarialMode::kEquivocate) {
    while (!sim::adversarial_stale_group("alice", salt)) ++salt;
  }
  dep.clouds()[2]->faults().set_adversarial(
      mode, mode == sim::AdversarialMode::kReplayWindow ? 2'000'000 : 0, salt);
  const auto t0 = dep.clock()->now_us();

  Detection out;
  while (dep.quarantined_cloud() == core::Deployment::kNoCloud && out.ops < 64) {
    const std::string path = "/a/probe" + std::to_string(out.ops % 2);
    agent.write_file(path, rng.next_bytes(8 * 1024)).expect("bench probe write");
    ++out.ops;
    if (dep.quarantined_cloud() != core::Deployment::kNoCloud) break;
    agent.fs().clear_cache();
    agent.read_file(path).expect("bench probe read");
    ++out.ops;
  }
  out.caught = dep.quarantined_cloud() == 2;
  out.ms = static_cast<double>(dep.clock()->now_us() - t0) / 1e3;
  return out;
}

/// Freshness checks add no cloud round-trips: compare the virtual read
/// latency of a client whose witness is saturated with marks against a
/// client reading the same unit with an empty witness.
std::pair<double, double> read_overhead(std::uint64_t seed) {
  sim::SimClockPtr clock = std::make_shared<sim::SimClock>();
  auto clouds = cloud::make_provider_fleet(clock, 4, seed);
  crypto::Drbg drbg(to_bytes("bench-overhead"));
  const auto writer = crypto::generate_keypair(drbg);
  std::vector<cloud::AccessToken> toks;
  for (auto& c : clouds) {
    toks.push_back(c->issue_token("alice", "fs", cloud::TokenScope::kFiles));
  }
  const auto make_client = [&](const std::string& tag) {
    depsky::DepSkyConfig cfg;
    cfg.clouds = clouds;
    cfg.f = 1;
    cfg.writer = writer;
    cfg.session = tag;
    return depsky::DepSkyClient(std::move(cfg), to_bytes("seed-" + tag));
  };

  auto warm = make_client("warm");  // writes => witness full of ack marks
  Rng rng(seed ^ 0x0F5E);
  const std::string unit = "files/alice/bench";
  for (int v = 0; v < 3; ++v) {
    warm.write(toks, unit, rng.next_bytes(64 * 1024)).value.expect("bench write");
  }
  auto cold = make_client("cold");  // same fleet, empty private witness

  const int reads = 16;
  double warm_ms = 0.0;
  double cold_ms = 0.0;
  for (int i = 0; i < reads; ++i) {
    auto w = warm.read(toks, unit);
    w.value.expect("bench warm read");
    warm_ms += static_cast<double>(w.delay) / 1e3;
    auto c = cold.read(toks, unit);
    c.value.expect("bench cold read");
    cold_ms += static_cast<double>(c.delay) / 1e3;
  }
  return {warm_ms / reads, cold_ms / reads};
}

struct GateResult {
  std::size_t units = 0;
  std::size_t below_threshold = 0;
  std::size_t inventory_failures = 0;
  double migration_ms = 0.0;
  std::size_t shares_rebuilt = 0;
};

/// Evict a rolled-back cloud, then audit every unit on the new set: each
/// must hold >= k + margin current-version shares. Failures flip the
/// bench's exit code.
GateResult redundancy_gate(std::uint64_t seed, int files) {
  auto dep = make_deployment(true, scfs::SyncMode::kBlocking, seed);
  auto& agent = dep.add_user("alice");
  Rng rng(seed ^ 0x6A7E);
  for (int i = 0; i < files; ++i) {
    create_file(agent, "/a/g" + std::to_string(i), 24 * 1024, rng);
  }
  auto attack =
      core::cloud_rollback_attack(dep, "alice", 2, sim::AdversarialMode::kRollback, 4);
  if (!attack.quarantined) std::fprintf(stderr, "gate: attack was not quarantined\n");

  GateResult out;
  auto rep = dep.reconfigure_cloud(2);
  rep.expect("bench reconfigure");
  out.migration_ms = static_cast<double>(rep->duration_us) / 1e3;
  out.shares_rebuilt = rep->shares_rebuilt;

  // Enumerate every unit on the new set (the scrubber's orphan-walk idiom).
  auto admin = dep.admin_tokens();
  std::set<std::string> units;
  for (std::size_t i = 0; i < dep.clouds().size(); ++i) {
    auto listed = dep.clouds()[i]->list(admin[i], "");
    if (!listed.value.ok()) continue;
    for (const auto& stat : *listed.value) {
      if (auto unit = depsky::DepSkyClient::unit_of_key(stat.key)) {
        units.insert(std::move(*unit));
      }
    }
  }

  auto storage = dep.agent("alice").storage();
  const std::size_t threshold = storage->k() + 1;  // k + margin, margin = 1
  for (const auto& unit : units) {
    ++out.units;
    auto inv = storage->share_inventory(admin, unit);
    if (!inv.value.ok()) {
      ++out.inventory_failures;
      std::fprintf(stderr, "gate: inventory of %s failed: %s\n", unit.c_str(),
                   inv.value.error().message.c_str());
      continue;
    }
    if (inv.value->valid_count() < threshold) {
      ++out.below_threshold;
      std::fprintf(stderr, "gate: %s has %zu/%zu shares (< %zu)\n", unit.c_str(),
                   inv.value->valid_count(), storage->n(), threshold);
    }
  }
  return out;
}

int run(const BenchArgs& args) {
  const std::uint64_t seed = 2031;
  std::printf("Reconfiguration bench: freshness detection + cloud eviction, f=1, "
              "seed %llu\n",
              static_cast<unsigned long long>(seed));

  // ---- 1. detection latency per adversarial mode ----
  const sim::AdversarialMode modes[] = {
      sim::AdversarialMode::kRollback, sim::AdversarialMode::kEquivocate,
      sim::AdversarialMode::kWithholdShares, sim::AdversarialMode::kReplayWindow};
  print_header("detection latency (cloud turns -> quarantine verdict)",
               {"mode", "ops", "virt ms", "caught"});
  std::string detection_json;
  for (const auto mode : modes) {
    std::vector<double> ms;
    std::vector<double> ops;
    bool caught = true;
    for (int rep = 0; rep < args.reps; ++rep) {
      const auto d = detection_latency(seed + static_cast<std::uint64_t>(rep), mode);
      ms.push_back(d.ms);
      ops.push_back(static_cast<double>(d.ops));
      caught = caught && d.caught;
    }
    std::printf("%14s%14.1f%14.1f%14s\n", sim::adversarial_mode_name(mode), mean(ops),
                mean(ms), caught ? "yes" : "NO");
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"ops\":%.1f,\"ms\":%.1f,\"caught\":%s}",
                  detection_json.empty() ? "" : ",", sim::adversarial_mode_name(mode),
                  mean(ops), mean(ms), caught ? "true" : "false");
    detection_json += buf;
  }

  // ---- 2. soak: quarantine -> migrated MTTR ----
  std::vector<double> mttr;
  std::vector<double> quarantine_ops;
  core::MaliciousSoakReport last;
  bool soak_ok = true;
  const int soak_reps = args.quick ? 1 : args.reps;
  for (int rep = 0; rep < soak_reps; ++rep) {
    core::MaliciousSoakOptions opts;
    opts.seed = seed + static_cast<std::uint64_t>(rep);
    opts.rounds = args.quick ? 8 : 12;
    last = core::run_malicious_soak(opts);
    soak_ok = soak_ok && last.converged && last.quarantined && last.reconfigured;
    mttr.push_back(static_cast<double>(last.quarantine_to_migrated_us) / 1e3);
    quarantine_ops.push_back(static_cast<double>(last.ops_to_quarantine));
  }
  print_header("chaos soak (attack -> quarantine -> eviction -> migration)",
               {"counter", "value"});
  std::printf("%14s%14.1f\n", "mttr ms", mean(mttr));
  std::printf("%14s%14.1f\n", "quar. ops", mean(quarantine_ops));
  std::printf("%14s%14zu\n", "migrated", last.units_migrated);
  std::printf("%14s%14zu\n", "rebuilt", last.shares_rebuilt);
  std::printf("%14s%14zu\n", "crashes", last.reconfig_crashes);
  std::printf("%14s%14s\n", "converged", soak_ok ? "yes" : "NO");

  // ---- 3. freshness-check read overhead ----
  const auto [warm_ms, cold_ms] = read_overhead(seed);
  const double overhead_pct =
      cold_ms > 0.0 ? (warm_ms - cold_ms) / cold_ms * 100.0 : 0.0;
  print_header("freshness-check read overhead (virtual ms per read)",
               {"witness", "read ms"});
  std::printf("%14s%14.2f\n", "populated", warm_ms);
  std::printf("%14s%14.2f\n", "empty", cold_ms);
  std::printf("overhead: %.2f%% (the checks are local memory — expected ~0)\n",
              overhead_pct);

  // ---- 4. post-migration redundancy gate ----
  const auto gate = redundancy_gate(seed, args.quick ? 3 : 8);
  print_header("post-migration redundancy gate (>= k+1 shares per unit)",
               {"counter", "value"});
  std::printf("%14s%14zu\n", "units", gate.units);
  std::printf("%14s%14zu\n", "below k+1", gate.below_threshold);
  std::printf("%14s%14zu\n", "inv. fails", gate.inventory_failures);
  std::printf("%14s%14.1f\n", "migr. ms", gate.migration_ms);

  std::string json = "{\"bench\":\"reconfig\",\"detection\":{" + detection_json + "},";
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "\"soak\":{\"mttr_ms\":%.1f,\"ops_to_quarantine\":%.1f,"
                "\"units_migrated\":%zu,\"shares_rebuilt\":%zu,"
                "\"reconfig_crashes\":%zu,\"converged\":%s,"
                "\"honest_digest\":\"%s\"},",
                mean(mttr), mean(quarantine_ops), last.units_migrated,
                last.shares_rebuilt, last.reconfig_crashes,
                soak_ok ? "true" : "false", last.content_digest.c_str());
  json += buf;
  std::snprintf(buf, sizeof(buf),
                "\"read_overhead\":{\"witness_ms\":%.2f,\"empty_ms\":%.2f,"
                "\"overhead_pct\":%.2f},"
                "\"gate\":{\"units\":%zu,\"below_threshold\":%zu,"
                "\"inventory_failures\":%zu,\"migration_ms\":%.1f}}",
                warm_ms, cold_ms, overhead_pct, gate.units, gate.below_threshold,
                gate.inventory_failures, gate.migration_ms);
  json += buf;
  std::printf("\n%s\n", json.c_str());

  const bool gate_ok = gate.below_threshold == 0 && gate.inventory_failures == 0;
  if (!gate_ok) {
    std::fprintf(stderr, "redundancy gate FAILED: a migrated unit is below k+1\n");
  }
  if (!soak_ok) std::fprintf(stderr, "soak did not converge\n");
  return gate_ok && soak_ok ? 0 : 1;
}

}  // namespace
}  // namespace rockfs::bench

int main(int argc, char** argv) {
  const auto args = rockfs::bench::BenchArgs::parse(argc, argv);
  const int rc = rockfs::bench::run(args);
  rockfs::bench::dump_metrics_json(args);
  return rc;
}
