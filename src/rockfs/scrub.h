// Anti-entropy scrubber for the RockFS operation log. The log's safety
// story (paper §3.2/§3.3) assumes that when recovery eventually runs, k of
// the n per-cloud shares of every entry's data half are still readable.
// Between a compromise and the recovery, though, shares silently rot: a
// cloud loses an object, a crashed append leaves an entry at the bare
// write-quorum, a Byzantine cloud corrupts its share. Redundancy only
// degrades — nothing in the write path ever restores it.
//
// The scrubber is the administrator-side repair loop that closes that gap:
// it walks every committed log entry, inventories the surviving shares per
// cloud (depsky share_inventory — digest checks, no payload-sized reads),
// flags entries whose redundancy fell below k + margin surviving shares (or
// whose metadata replication fell below the n-f read quorum), and re-encodes
// and re-uploads the missing shares from the valid remainder (depsky
// repair: Reed-Solomon shard repair + Shamir share interpolation). It also
// reports orphaned log units — payload objects in `logs/<user>/` with no
// committed record and no pending intent — left behind by crashed appends.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "coord/service.h"
#include "depsky/client.h"
#include "sim/timed.h"

namespace rockfs::core {

struct ScrubOptions {
  /// An entry is degraded when fewer than k + margin shares survive. The
  /// default margin of 1 repairs an entry as soon as it can no longer lose
  /// another share without losing data.
  std::size_t margin = 1;
};

/// One scrubbed chain's outcome.
struct ScrubReport {
  std::size_t entries_checked = 0;
  std::size_t entries_degraded = 0;
  std::size_t entries_repaired = 0;    // degraded entries back at full redundancy
  std::size_t entries_unrepairable = 0;
  std::size_t shares_repaired = 0;
  std::size_t meta_repaired = 0;       // metadata replicas re-seeded
  /// Entries where some cloud held *stale-version* state — authentic data of
  /// an old version where the current one belongs (what a rolled-back cloud
  /// leaves behind). Distinct from plain loss/corruption: the bytes verify,
  /// only the version is wrong.
  std::size_t entries_stale = 0;
  std::size_t stale_shares = 0;        // share slots found serving an old version
  std::size_t stale_metas = 0;         // metadata replicas valid-signed but old
  /// Log data units present in the cloud with no committed record and no
  /// pending intent (garbage from crashed appends; append-only, so they can
  /// only be reported, never collected).
  std::vector<std::string> orphan_units;
};

/// Administrator-side scrubber over one user's log chains. `storage` must be
/// an admin-capable DepSky client (the user's public key among its trusted
/// writers) and `tokens` admin tokens for every cloud.
class LogScrubber {
 public:
  LogScrubber(std::string user_id, std::shared_ptr<depsky::DepSkyClient> storage,
              std::vector<cloud::AccessToken> tokens,
              std::shared_ptr<coord::CoordinationService> coordination,
              sim::SimClockPtr clock, ScrubOptions options = {});

  /// Scrubs the user chain (and the admin chain unless disabled). Advances
  /// the clock by the scrub time. Metrics: scrub.entries.{checked,degraded,
  /// repaired}, scrub.shares.repaired, scrub.orphans.
  Result<ScrubReport> scrub();

 private:
  /// Scrubs the committed entries of one chain into `report`.
  sim::Timed<Status> scrub_chain(const std::string& chain, ScrubReport& report);
  /// Lists `logs/<chain>/` on every cloud and reports units with neither a
  /// committed record nor a pending intent.
  sim::Timed<Status> find_orphans(const std::string& chain, ScrubReport& report);

  std::string user_id_;
  std::shared_ptr<depsky::DepSkyClient> storage_;
  std::vector<cloud::AccessToken> tokens_;
  std::shared_ptr<coord::CoordinationService> coordination_;
  sim::SimClockPtr clock_;
  ScrubOptions options_;
};

}  // namespace rockfs::core
