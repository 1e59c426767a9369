#include "rockfs/compromise.h"

#include <algorithm>
#include <set>

#include "rockfs/audit.h"

namespace rockfs::core {
namespace {

constexpr std::size_t kFiles = 3;  // per user; >= detector min_files

// Crash points of the admin's compromise-response pipeline an incident can
// kill the admin workstation at (faults.h); recovery has its own point.
constexpr sim::CrashPoint kRotationPoints[] = {
    sim::CrashPoint::kAfterRevocationFloor,
    sim::CrashPoint::kMidFloorPropagation,
    sim::CrashPoint::kAfterRotationRecord,
    sim::CrashPoint::kAfterKeystoreReseal,
};

}  // namespace

CompromiseSoakReport run_compromise_soak(const CompromiseSoakOptions& options) {
  CompromiseSoakReport report;
  report.rounds = options.rounds;

  DeploymentOptions dopt;
  dopt.seed = options.seed;
  dopt.agent.sync_mode = scfs::SyncMode::kBlocking;
  Soak soak(dopt, options.seed * 6029 + 31);
  auto& dep = soak.dep();
  auto& clock = soak.clock();
  auto& crash = soak.crash();
  auto& dice = soak.dice();

  const std::string victim = "mallory";  // the user whose device is owned
  const std::string honest = "carol";    // a bystander on the same deployment
  dep.add_user(victim);
  dep.add_user(honest);
  const std::vector<std::string> users = {victim, honest};

  std::vector<std::string> victim_paths;
  for (std::size_t j = 0; j < kFiles; ++j) victim_paths.push_back(Soak::home_path(victim, j));

  std::size_t coord_down = 0;  // replica downed for the current round, if any
  // The admin's ground-truth malicious set spans every incident so far: a
  // later recover_all replays the whole log, so passing only the newest
  // burst would patch honest deltas onto an earlier burst's ciphertext.
  std::set<std::uint64_t> malicious_seqs;

  for (std::size_t round = 0; round < options.rounds; ++round) {
    // ---- fault weather for this round ----
    if (dice.next_double() < options.cloud_outage_prob) {
      auto& cloud = *dep.clouds()[dice.next_below(dep.clouds().size())];
      const auto start = clock.now_us();
      cloud.faults().add_outage(start, start + 5'000'000 +
                                           static_cast<sim::SimClock::Micros>(
                                               dice.next_below(20'000'000)));
    }
    if (coord_down == 0 && dice.next_double() < options.coord_fault_prob) {
      coord_down = 1 + dice.next_below(dep.coordination()->replica_count() - 1);
      dep.coordination()->set_replica_down(coord_down, true);
    }

    // ---- honest workload: each user refreshes one of its files ----
    const std::size_t j = round % kFiles;
    for (const auto& user : users) {
      soak.honest_write(user, Soak::home_path(user, j),
                        Soak::honest_content("soak", user, j, round));
    }

    // ---- compromise incident ----
    if (options.attacker && (round + 1) % options.incident_every == 0) {
      ++report.incidents;

      // Put 3 virtual minutes between the honest writes and the burst so the
      // detector's window isolates the attack.
      clock.advance_us(180'000'000);

      if (!soak.ensure_login(victim)) continue;
      const StolenCredentials loot = steal_credentials(dep, victim);
      // The attacker strikes first: with nothing revoked yet, the loot works.
      report.attack += stolen_credential_attack(dep, loot);
      const RansomwareReport ransom =
          ransomware_attack(dep.agent(victim), victim_paths,
                            options.seed ^ (0xA11ACE + round));
      malicious_seqs.insert(ransom.malicious_seqs.begin(),
                            ransom.malicious_seqs.end());

      // Detection: the mass-rewrite burst in the victim's verified log is the
      // verdict that triggers the response (audit.h -> apply_audit_verdict).
      auto detective = dep.make_recovery_service(victim);
      Result<LogAudit> audit = detective.audit_log();
      for (int attempt = 0; attempt < 64 && !audit.ok(); ++attempt) {
        clock.advance_us(2'000'000);
        audit = detective.audit_log();
      }
      if (!audit.ok()) continue;  // counted below as a failed lockout if real
      const std::set<std::uint64_t> flagged =
          AuditAnalyzer(audit->records).detect_mass_rewrite();

      const bool arm_crash = dice.next_double() < options.crash_prob;
      if (arm_crash) {
        crash.arm(kRotationPoints[dice.next_below(std::size(kRotationPoints))]);
      }
      for (int attempt = 0; attempt < 64; ++attempt) {
        auto verdict = dep.apply_audit_verdict(audit->records, flagged);
        if (verdict.ok()) {
          for (const auto& [user, response] : verdict->responses) {
            (void)user;
            if (response.rotated) ++report.rotations;
            report.max_lockout_latency_us =
                std::max(report.max_lockout_latency_us, response.lockout_latency_us);
            report.max_rotation_us =
                std::max(report.max_rotation_us, response.rotation_us);
          }
          break;
        }
        if (verdict.code() == ErrorCode::kCrashed) {
          ++report.response_crashes;
        } else {
          ++report.response_retries;
          clock.advance_us(2'000'000);
        }
      }

      // The attacker tries again with the same loot — and again after the
      // anti-entropy pass catches up any cloud that was in outage when the
      // floor went out. Post-floor accepts here falsify the lockout theorem.
      report.attack += stolen_credential_attack(dep, loot);
      report.floors_propagated += dep.propagate_revocations();
      report.attack += stolen_credential_attack(dep, loot);

      // Storage recovery undoes the ransomware damage (ground-truth malicious
      // set, per the paper's §3.3 step-3 assumption). A fresh service picks
      // up the rotation that just happened; kMidRecoverAll may kill it.
      auto surgeon = dep.make_recovery_service(victim);
      if (dice.next_double() < options.recovery_crash_prob) {
        crash.arm(sim::CrashPoint::kMidRecoverAll);
      }
      for (int attempt = 0; attempt < 64; ++attempt) {
        auto recovered = surgeon.recover_all(malicious_seqs);
        if (recovered.ok()) {
          report.files_recovered += recovered->size();
          break;
        }
        if (recovered.code() == ErrorCode::kCrashed) {
          ++report.recovery_crashes;
        } else {
          clock.advance_us(2'000'000);
        }
      }
    }

    if (coord_down != 0) {
      // A replica that sat out the round missed every write; bring it back
      // through BFT state transfer from a healthy peer (replica 0 is never
      // the one downed) or it would poison quorums for the rest of the soak.
      dep.coordination()->set_replica_down(coord_down, false);
      (void)dep.coordination()->restore_replica(
          coord_down, dep.coordination()->checkpoint_replica(0));
      coord_down = 0;
    }
    clock.advance_us(500'000 + dice.next_below(2'000'000));
  }

  // Settle: catch up every floor still owed to a recovered cloud, then read
  // every honest file back and compare against the last honest write.
  clock.advance_us(30'000'000);
  report.floors_propagated += dep.propagate_revocations();
  static_cast<SoakTally&>(report) = soak.settle(users);

  report.lockout_held = report.attack.writes_accepted_post_floor == 0 &&
                        report.attack.reads_accepted_post_floor == 0;
  report.converged = report.read_mismatches == 0 && report.write_failures == 0;
  return report;
}

}  // namespace rockfs::core
