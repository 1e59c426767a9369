#include "rockfs/malicious.h"

#include <algorithm>

namespace rockfs::core {
namespace {

constexpr std::size_t kFiles = 3;           // per user
constexpr std::size_t kMaliciousCloud = 2;  // fleet index that turns
constexpr std::size_t kAttackRound = 4;     // ... at the start of this round
constexpr double kCrashProb = 0.5;          // P(reconfiguration gets a crash point armed)

constexpr sim::CrashPoint kReconfigPoints[] = {
    sim::CrashPoint::kAfterMembershipManifest,
    sim::CrashPoint::kMidShareMigration,
};

}  // namespace

MaliciousSoakReport run_malicious_soak(const MaliciousSoakOptions& options) {
  MaliciousSoakReport report;
  report.rounds = options.rounds;

  DeploymentOptions dopt;
  dopt.seed = options.seed;
  dopt.agent.sync_mode = scfs::SyncMode::kBlocking;
  Soak soak(dopt, options.seed * 7121 + 47);
  auto& dep = soak.dep();
  auto& clock = soak.clock();
  auto& crash = soak.crash();
  auto& dice = soak.dice();

  const std::string alice = "alice";
  const std::string bob = "bob";
  dep.add_user(alice);
  dep.add_user(bob);
  const std::vector<std::string> users = {alice, bob};

  std::size_t ops_since_attack = 0;
  sim::SimClock::Micros quarantined_at_us = 0;

  for (std::size_t round = 0; round < options.rounds; ++round) {
    // ---- the cloud turns ----
    if (options.attacker && round == kAttackRound && !report.attacked) {
      // An equivocating adversary picks its partition to actually diverge:
      // salt chosen so the two honest users land in different view groups.
      std::uint64_t salt = 0;
      if (options.mode == sim::AdversarialMode::kEquivocate) {
        while (sim::adversarial_stale_group(alice, salt) ==
               sim::adversarial_stale_group(bob, salt)) {
          ++salt;
        }
      }
      dep.clouds().at(kMaliciousCloud)->faults().set_adversarial(
          options.mode,
          options.mode == sim::AdversarialMode::kReplayWindow ? 2'000'000 : 0, salt);
      report.attacked = true;
    }

    // ---- honest workload: write one file each, read one back each ----
    const std::size_t j = round % kFiles;
    for (const auto& user : users) {
      soak.honest_write(user, Soak::home_path(user, j),
                        Soak::honest_content("malice", user, j, round));
      if (report.attacked && !report.quarantined) ++ops_since_attack;
      soak.check_read(user, Soak::home_path(user, (round + 1) % kFiles));
      if (report.attacked && !report.quarantined) ++ops_since_attack;
    }

    // ---- the defense reacts ----
    if (report.attacked && !report.quarantined) {
      const std::size_t verdict = dep.quarantined_cloud();
      if (verdict != Deployment::kNoCloud) {
        report.quarantined = true;
        report.ops_to_quarantine = ops_since_attack;
        quarantined_at_us = clock.now_us();
      }
      for (const auto& user : users) {
        const auto storage = dep.agent(user).logged_in() ? dep.agent(user).storage()
                                                         : nullptr;
        if (storage && storage->cloud_health(kMaliciousCloud).misbehavior_total() > 0) {
          report.detected = true;
        }
      }
    }

    // ---- eviction: replace the quarantined cloud, crash points and all ----
    if (report.quarantined && !report.reconfigured) {
      if (dice.next_double() < kCrashProb) {
        crash.arm(kReconfigPoints[dice.next_below(std::size(kReconfigPoints))]);
      }
      for (int attempt = 0; attempt < 64; ++attempt) {
        auto done = dep.reconfigure_cloud(kMaliciousCloud);
        if (done.ok()) {
          report.reconfigured = true;
          report.membership_epoch = done->epoch;
          report.units_migrated += done->units_migrated;
          report.shares_rebuilt += done->shares_rebuilt;
          report.quarantine_to_migrated_us =
              static_cast<sim::SimClock::Micros>(clock.now_us() - quarantined_at_us);
          break;
        }
        if (done.code() == ErrorCode::kCrashed) {
          ++report.reconfig_crashes;
        } else {
          ++report.reconfig_retries;
          clock.advance_us(2'000'000);
        }
      }
    }

    clock.advance_us(500'000 + dice.next_below(2'000'000));
  }

  // Capture the ledger totals before the final settle (the evicted provider
  // is out of every fleet after a reconfiguration, so ask the live clients).
  for (const auto& user : users) {
    if (!soak.ensure_login(user)) continue;
    const auto storage = dep.agent(user).storage();
    if (!storage) continue;
    for (std::size_t i = 0; i < storage->n(); ++i) {
      report.misbehavior_flags += storage->cloud_health(i).misbehavior_total();
    }
  }

  // Settle: read every honest file back and compare against the last honest
  // write. After a reconfiguration these reads run with the malicious cloud
  // fully removed — they are the post-migration availability check.
  clock.advance_us(30'000'000);
  static_cast<SoakTally&>(report) = soak.settle(users);
  if (report.reconfigured) {
    for (const auto& [path, content] : report.final_contents) {
      ++report.post_reconfig_reads;
      if (content == Soak::kUnreadable) ++report.post_reconfig_read_failures;
    }
  }

  report.converged = report.read_mismatches == 0 && report.write_failures == 0;
  return report;
}

}  // namespace rockfs::core
