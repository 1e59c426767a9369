// Shared engine of the chaos soaks (multiclient.h, compromise.h,
// malicious.h). Each scenario stays a straight-line round loop that owns its
// own logic — lock contention, the incident pipeline, a cloud turning
// adversarial — and calls the engine for everything they have in common:
//
//   * the deployment, the scenario's dice stream, the clock and the crash
//     schedule (the engine never draws from the dice itself, so a scenario's
//     fate sequence is a function of its seed alone);
//   * session upkeep (default login, falling back to external login);
//   * honest writes and read-backs that retry through faults in virtual time;
//   * one ledger of what the final state must and must not contain, and one
//     checker (settle) that reads every ledger path back through DepSky and
//     tallies the invariant violations:
//       - expect_equal    — the last honest write of a path (read mismatch),
//       - expect_contains — a committed token (lost update),
//       - expect_absent   — a fenced token (zombie write),
//     plus cross-reader disagreement (divergent read).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "rockfs/deployment.h"
#include "sim/clock.h"
#include "sim/faults.h"

namespace rockfs::core {

/// Counters every soak reports. The scenario reports derive from it.
struct SoakTally {
  std::size_t honest_writes = 0;
  std::size_t honest_retries = 0;
  std::size_t write_failures = 0;   // honest write that never landed (MUST be 0)
  std::size_t relogins = 0;         // sessions restarted by ensure_login
  std::size_t read_mismatches = 0;  // read != last honest write (MUST be 0)
  std::size_t lost_updates = 0;     // committed token missing from final bytes
  std::size_t zombie_updates = 0;   // fenced token present in final bytes
  std::size_t divergent_reads = 0;  // readers disagreeing on a path's bytes
  std::map<std::string, std::string> final_contents;  // path -> settled bytes
  /// sha256 hex over final_contents only: invariant across configurations
  /// that may legally shift counters and timing (attacker on/off, cache
  /// on/off, thread counts) but must converge to the same bytes.
  std::string content_digest;
  sim::SimClock::Micros total_us = 0;  // virtual time at settle
};

class Soak {
 public:
  /// What settle records for a path a reader could not read.
  static constexpr const char* kUnreadable = "<unreadable>";

  Soak(DeploymentOptions options, std::uint64_t dice_seed);

  Deployment& dep() { return dep_; }
  Rng& dice() { return dice_; }
  sim::SimClock& clock() { return clock_; }
  sim::CrashSchedule& crash() { return crash_; }
  const SoakTally& tally() const { return tally_; }

  /// `user`'s j-th file in their home directory: "/<user>/doc<j>".
  static std::string home_path(const std::string& user, std::size_t j);
  /// Honest content of a (user, file, round) write, tagged per scenario. A
  /// pure function of its arguments, so the settled bytes — and the content
  /// digest — cannot depend on what an attacker or a lying cloud did.
  static Bytes honest_content(const std::string& tag, const std::string& user,
                              std::size_t j, std::size_t round);

  /// True once `user` holds a session: tries the default login, then the
  /// external one. Every new session counts as a relogin.
  bool ensure_login(const std::string& user);
  /// Writes `bytes` to `path` as `user`, retrying up to 256 times 1 s apart;
  /// a landed write becomes the path's expect_equal.
  void honest_write(const std::string& user, const std::string& path, const Bytes& bytes);
  /// Reads `path` through DepSky (cache cleared), up to 64 attempts 1 s apart.
  Result<Bytes> read_back(const std::string& user, const std::string& path);
  /// read_back of a path with an expect_equal; a stale or unreadable result
  /// counts as a read mismatch. No-op for other paths.
  void check_read(const std::string& user, const std::string& path);

  void expect_equal(const std::string& path, const Bytes& bytes);
  void expect_contains(const std::string& path, const std::string& token);
  void expect_absent(const std::string& path, const std::string& token);

  /// The single invariant checker: reads every ledger path back at every
  /// reader and fills the tally. A path inside a reader's home directory
  /// ("/<reader>/...") is read by that reader alone; any other path by all.
  const SoakTally& settle(const std::vector<std::string>& readers);

 private:
  struct Expectation {
    std::optional<Bytes> equal;
    std::vector<std::string> contains;
    std::vector<std::string> absent;
  };

  Deployment dep_;
  Rng dice_;
  sim::SimClock& clock_;
  sim::CrashSchedule& crash_;
  SoakTally tally_;
  std::map<std::string, Expectation> ledger_;
};

}  // namespace rockfs::core
