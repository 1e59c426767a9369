// Compromise-response chaos soak: one deployment, an honest user and a
// victim whose credentials get stolen every few rounds. Each incident runs
// the full §4.1 pipeline — steal → attack with the loot → detect → revoke →
// rotate → recover — while the dice inject cloud outages, coordination
// replica faults and admin crashes at the rotation pipeline's crash points.
// The report checks the two properties the revocation design promises:
//
//   * lockout  — once a cloud enforces the revocation floor, not one
//     attacker operation with pre-rotation credentials is accepted there
//     (writes_accepted_post_floor == reads_accepted_post_floor == 0);
//   * no lost honest update — after every rotation, crash and recovery, the
//     final bytes of every honest file equal the last honest write, so the
//     honest-content digest of an attacked run is bit-identical to the same
//     seed run with the attacker switched off.
#pragma once

#include <cstdint>
#include <string>

#include "rockfs/attack.h"
#include "rockfs/soak.h"
#include "sim/clock.h"

namespace rockfs::core {

struct CompromiseSoakOptions {
  std::size_t rounds = 12;
  std::uint64_t seed = 2018;
  bool attacker = true;           // off = same honest workload, no incidents
  double cloud_outage_prob = 0.2;   // P(round opens an outage at one cloud)
  double coord_fault_prob = 0.2;    // P(round downs one coordination replica)
  double crash_prob = 0.3;          // P(incident arms a rotation crash point)
  double recovery_crash_prob = 0.3; // P(incident arms kMidRecoverAll)
  std::size_t incident_every = 4;   // a compromise incident every N rounds
};

struct CompromiseSoakReport : SoakTally {
  std::size_t rounds = 0;
  std::size_t incidents = 0;
  std::size_t rotations = 0;
  std::size_t response_crashes = 0;  // admin died mid-response, resumed
  std::size_t recovery_crashes = 0;  // admin died mid-recover_all, resumed
  std::size_t response_retries = 0;  // responses re-driven through faults
  std::size_t files_recovered = 0;
  std::size_t floors_propagated = 0;  // outage clouds caught up by anti-entropy
  StolenCredentialReport attack;      // accumulated across all incidents
  bool lockout_held = false;
  bool converged = false;
  sim::SimClock::Micros max_lockout_latency_us = 0;
  sim::SimClock::Micros max_rotation_us = 0;
};

/// Runs the soak to completion. Deterministic per options; the content digest
/// depends only on the honest workload, so {attacker: true} and
/// {attacker: false} with the same seed must produce the same digest.
CompromiseSoakReport run_compromise_soak(const CompromiseSoakOptions& options);

}  // namespace rockfs::core
