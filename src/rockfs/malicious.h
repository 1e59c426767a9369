// Malicious-cloud chaos soak: one deployment, two honest users hammering a
// shared fleet, and at round 4 one cloud turns adversarial — it keeps
// acking writes like an honest provider but serves reads from a frozen (or
// session-partitioned, or share-withheld) view. The soak then exercises the
// whole resilience pipeline end to end: the freshness witness catches the
// contradiction, the misbehavior ledger quarantines the cloud, and the
// administrator reconfigures the cloud set — admin-signed membership
// manifest, spare provisioning, share migration with crash points armed by
// the dice — while the honest workload keeps running.
//
// The report checks the three properties the design promises:
//
//   * masking    — not one honest read returns stale bytes, before, during
//     or after the attack (read_mismatches == 0);
//   * detection  — the malicious cloud is quarantined within a bounded
//     number of client operations after it starts lying;
//   * equivalence — the final honest-content digest of an attacked run is
//     bit-identical to the same-seed run with the attacker switched off,
//     even though the attacked run detected, quarantined and replaced a
//     cloud mid-flight.
#pragma once

#include <cstdint>
#include <string>

#include "rockfs/attack.h"
#include "rockfs/soak.h"
#include "sim/clock.h"

namespace rockfs::core {

struct MaliciousSoakOptions {
  std::size_t rounds = 12;
  std::uint64_t seed = 2018;
  bool attacker = true;      // off = same honest workload, no adversary
  /// How the compromised cloud misbehaves once it turns.
  sim::AdversarialMode mode = sim::AdversarialMode::kRollback;
};

struct MaliciousSoakReport : SoakTally {
  std::size_t rounds = 0;

  bool attacked = false;
  bool detected = false;             // misbehavior ledger is non-empty
  bool quarantined = false;          // verdict reached
  /// Client operations between the cloud turning and the quarantine verdict.
  std::size_t ops_to_quarantine = 0;
  std::uint64_t misbehavior_flags = 0;

  bool reconfigured = false;
  std::uint64_t membership_epoch = 0;
  std::size_t reconfig_crashes = 0;  // admin died mid-migration, resumed
  std::size_t reconfig_retries = 0;
  std::size_t units_migrated = 0;
  std::size_t shares_rebuilt = 0;
  /// Reads performed after the reconfiguration with the evicted provider
  /// physically removed from every client's fleet — all must succeed.
  std::size_t post_reconfig_reads = 0;
  std::size_t post_reconfig_read_failures = 0;

  bool converged = false;
  sim::SimClock::Micros quarantine_to_migrated_us = 0;  // the MTTR the bench reports
};

/// Runs the soak to completion. Deterministic per options; the content digest
/// depends only on the honest workload, so {attacker: true} and
/// {attacker: false} with the same seed must produce the same digest.
MaliciousSoakReport run_malicious_soak(const MaliciousSoakOptions& options);

}  // namespace rockfs::core
