// Administrator-side storage recovery (paper §3.3). Undoes unintended file
// operations without losing the valid ones:
//
//   1. fetch the user's log metadata from the coordination service and check
//      the FssAgg chain from A_1/B_1 — corrupted entries are discarded, and
//      truncation / reordering / count mismatch aborts with kIntegrity (the
//      service remembers each chain it audited and, when the answer only
//      grew, confirms the remembered prefix and checks just the new tail);
//   2. download the data halves (ld_fu) of the surviving entries from the
//      cloud-of-clouds in one parallel batch (the §6.3 optimization), each
//      read bound to the size and digest in its verified metadata (no
//      metadata signature is checked unless the bound read fails), and
//      discard any that cannot be read to that digest;
//   3. selective re-execution: rebuild the file by applying every valid,
//      non-malicious delta in log order (whole-file entries reset the state,
//      delete entries empty it);
//   4. upload the recovered content as a new file version and log the
//      recovery itself (recoveries are never erasable, §3.3).
//
// Which entries are "malicious" is an input — the paper delegates that to
// intrusion detection (§3.3 step 3).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/result.h"
#include "coord/service.h"
#include "depsky/client.h"
#include "fssagg/fssagg.h"
#include "obs/trace.h"
#include "rockfs/logservice.h"
#include "rockfs/revocation.h"
#include "sim/timed.h"

namespace rockfs::core {

struct RecoveryConfig {
  /// Initial FssAgg keys (A_1, B_1) the administrator exchanged at setup.
  fssagg::FssAggKeys user_chain_keys;
  /// Tokens granting admin access at every cloud.
  std::vector<cloud::AccessToken> admin_tokens;
  /// FssAgg setup keys of OTHER users who write to the shared namespace.
  /// recover_shared_file audits their chains too and merges all writers'
  /// entries over one file (multi-client sessions).
  std::map<std::string, fssagg::FssAggKeys> peer_chain_keys;
  /// Public key that signs rotation manifests (revocation.h). Empty means no
  /// rotations are expected: a rotate record in the chain then fails the
  /// audit fail-closed rather than being taken on faith.
  Bytes admin_public_key;
  /// The admin's durable copies of the fresh chain keys installed by each of
  /// this user's keystore rotations, epoch order. The audit matches them to
  /// the published admin-signed manifests by key digest and switches the
  /// verifier's key stream at each rotate record.
  std::vector<ChainRotationKeys> chain_rotations;
  /// Same, for the peer chains of peer_chain_keys.
  std::map<std::string, std::vector<ChainRotationKeys>> peer_chain_rotations;
};

/// Outcome of verifying one user's whole log.
struct LogAudit {
  std::vector<LogRecord> records;           // all records, seq order
  fssagg::FssAggVerifyReport report;        // chain verification result
  std::set<std::uint64_t> discarded_seqs;   // per-entry MAC failures
};

/// Outcome of recovering one file.
struct FileRecovery {
  std::string path;
  Bytes content;                    // recovered bytes
  std::size_t applied = 0;          // log entries re-executed
  std::size_t skipped_malicious = 0;
  std::size_t skipped_invalid = 0;  // MAC- or digest-corrupt entries
};

class RecoveryService {
 public:
  RecoveryService(std::string user_id, RecoveryConfig config,
                  std::shared_ptr<depsky::DepSkyClient> admin_storage,
                  std::shared_ptr<coord::CoordinationService> coordination,
                  sim::SimClockPtr clock);

  /// Step 1: fetch + FssAgg-verify the user's log. Advances the clock.
  /// Returns a copy of the audit the service remembers.
  Result<LogAudit> audit_log();

  /// Same, for any chain whose setup keys the admin holds (the user's own,
  /// a peer's from peer_chain_keys, ...). Advances the clock.
  Result<LogAudit> audit_chain(const std::string& chain_user,
                               const fssagg::FssAggKeys& chain_keys);

  /// Multi-writer recovery over one shared file: audits this user's chain
  /// AND every peer chain (peer_chain_keys), collects every writer's records
  /// for `path`, orders them by (version, epoch, timestamp, user, seq),
  /// drops all entries authored by `malicious_users`, and re-executes the
  /// survivors. Cross-user writes are always logged whole-file (each user's
  /// chain is self-contained), so the surviving interleaved chains converge
  /// to the same bytes whether or not malicious entries sat between them.
  Result<FileRecovery> recover_shared_file(const std::string& path,
                                           const std::set<std::string>& malicious_users);

  /// Steps 2-4 for one file. `malicious` holds the seq numbers flagged by
  /// intrusion detection. Advances the clock by the full recovery time.
  Result<FileRecovery> recover_file(const std::string& path,
                                    const std::set<std::uint64_t>& malicious);

  /// Recovers every file that appears in the log, most-urgent first when a
  /// priority list is given (paper §6.3: files become available gradually).
  /// Returns per-file results in completion order.
  Result<std::vector<FileRecovery>> recover_all(
      const std::set<std::uint64_t>& malicious,
      const std::vector<std::string>& priority = {});

  /// Point-in-time recovery: rebuilds the file as it stood at virtual time
  /// `as_of_us` (every valid entry with timestamp <= as_of_us is replayed,
  /// later ones are ignored). Useful when intrusion detection can only date
  /// the compromise rather than pinpoint the malicious entries.
  Result<FileRecovery> recover_file_at(const std::string& path, std::int64_t as_of_us);

  /// Total virtual time consumed by the last recover_* call (the MTTR).
  sim::SimClock::Micros last_recovery_us() const noexcept { return last_recovery_us_; }

  // ---- snapshot / log compaction (paper footnote 3 and §6.2 future work) ----
  //
  // compact_file writes a whole-file *snapshot* baseline into the admin
  // chain and archives the file's existing log-entry payloads to the cold
  // tier. Hot log storage shrinks; the log's append-only metadata (and hence
  // FssAgg verifiability) is untouched; recovery starts from the newest
  // snapshot and replays only the entries after its watermark. Archived
  // payloads remain reachable through cold storage as a last resort.

  struct CompactionReport {
    std::string path;
    std::size_t entries_archived = 0;
    std::uint64_t hot_bytes_freed = 0;
  };
  Result<CompactionReport> compact_file(const std::string& path);
  /// Compacts every file found in the user's log.
  Result<std::vector<CompactionReport>> compact_all();

  /// Verified view of the admin chain ("recover"/"snapshot" records).
  Result<LogAudit> audit_admin_log();

  /// Crash injection: recover_all consults this schedule between files
  /// (sim::CrashPoint::kMidRecoverAll) and the admin chain's own appends
  /// consult it like any LogService. A fired crash aborts with kCrashed;
  /// the NEXT recover_all finds the un-ended "recover-begin" marker in the
  /// admin chain and resumes after the last completed file, never re-logging
  /// a "recover" record for one already done.
  void set_crash_schedule(sim::CrashSchedulePtr crash);

 private:
  /// What the audits remember of one chain between calls: the rdall answer
  /// the coordination service last returned (the replica's shared buffer),
  /// its records in seq order and the FssAgg verifier after the last of
  /// them. take() then settle() is the one audit path of audit_chain and
  /// audit_admin_log: every audit still reads the whole chain, but decodes
  /// and MAC-checks only what is new.
  class RememberedChain {
   public:
    /// Takes a fresh rdall answer. Confirms the remembered prefix by bytes
    /// (coord::decode_tuples_after) and decodes only the tuples past it.
    /// Decodes the whole answer instead (decode_log_records, and the
    /// verifier restarts from A_1/B_1) when it remembers no tuple, when a
    /// prefix tuple changed, went missing or moved, or when the tail's seqs
    /// do not strictly increase from the prefix's last. When a tuple does
    /// not decode it fails and keeps what it remembered.
    Status take(std::shared_ptr<const Bytes> answer);
    /// The records of the last answer taken, seq order.
    const std::vector<LogRecord>& records() const noexcept { return audit_.records; }
    /// MAC-checks the records the verifier has not seen, switching key
    /// streams at `rotations`, and reports against `stored`. The verifier
    /// restarts from `keys` when they, or a switch it already made, changed.
    const LogAudit& settle(const fssagg::FssAggKeys& keys,
                           const std::vector<fssagg::FssAggRotation>& rotations,
                           const StoredAggregates& stored);
    /// The verdict on a chain with no records and no aggregates: clean.
    const LogAudit& clean();

   private:
    std::shared_ptr<const Bytes> answer_;            // last answer taken
    LogAudit audit_;                                 // its records, seq order
    fssagg::FssAggKeys keys_;                        // where verifier_ started
    std::vector<fssagg::FssAggRotation> rotations_;  // switches verifier_ made
    std::optional<fssagg::FssAggVerifier> verifier_;
  };

  /// The remembered audit of `chain_user` (audit_chain without the copy),
  /// valid until the next audit of that chain.
  Result<const LogAudit*> audited_chain(const std::string& chain_user,
                                        const fssagg::FssAggKeys& chain_keys);
  /// audited_chain of the user's own chain.
  Result<const LogAudit*> audited_log();
  /// The remembered audit of the admin chain (audit_admin_log without the
  /// copy), valid until its next audit.
  Result<const LogAudit*> audited_admin_chain();

  /// Latest valid snapshot baseline for `path`, if any. Returns the content
  /// and the user-log seq watermark it covers (entries with seq <= watermark
  /// are folded into the snapshot).
  struct SnapshotBaseline {
    Bytes content;
    std::uint64_t watermark = 0;
    bool found = false;
  };
  SnapshotBaseline load_snapshot(const std::string& path, sim::SimClock::Micros* delay);
  /// Shared body of recover_file and recover_file_at: audits the user's log
  /// and recovers `path` skipping `malicious` and, when `as_of_us` is set,
  /// every entry of the file stamped after it (a point-in-time recovery also
  /// ignores snapshot baselines, which may postdate the cut-off).
  Result<FileRecovery> recover_single(const char* span_name, const std::string& path,
                                      std::set<std::uint64_t> malicious,
                                      std::optional<std::int64_t> as_of_us);
  /// Shared machinery: recovers one file given an already-audited log. When
  /// `apply` is false the content is only reconstructed (used by
  /// compact_file), without re-uploading or logging a recovery record.
  /// `use_snapshots=false` forces a full replay from the original entries
  /// (point-in-time recovery must ignore baselines taken after the cut-off;
  /// archived payloads are then fetched from cold storage).
  Result<FileRecovery> recover_one(const LogAudit& audit, const std::string& path,
                                   const std::set<std::uint64_t>& malicious,
                                   sim::SimClock::Micros* delay, bool apply = true,
                                   bool use_snapshots = true);
  /// Step 5 (shared with recover_shared_file): upload the recovered content,
  /// bump the inode (stamping the path's current fence epoch) and log the
  /// recovery on the admin chain.
  Status commit_recovered(const std::string& path, const Bytes& content,
                          sim::SimClock::Micros* delay);
  /// Steps 2-4, shared by recover_one and recover_shared_file: batch-
  /// downloads the data halves of `records` (surviving entries, replay
  /// order) bound to their audited digests, drops any that cannot be read to
  /// them or whose wrapper or delta fails, and re-executes the rest on top
  /// of `base`. Counts into result->applied and
  /// result->skipped_invalid and sets result->content.
  void replay(const std::vector<const LogRecord*>& records, Bytes base,
              FileRecovery* result, sim::SimClock::Micros* delay);
  /// Success epilogue of every recover_* entry point: the MTTR since `start`
  /// becomes last_recovery_us() and the span's duration, and `files` join
  /// recovery.files_recovered. A failed recovery books none of it.
  void book_recovery(obs::Span& span, sim::SimClock::Micros start, std::size_t files);

  std::string user_id_;
  RecoveryConfig config_;
  std::shared_ptr<depsky::DepSkyClient> storage_;
  std::shared_ptr<coord::CoordinationService> coordination_;
  sim::SimClockPtr clock_;
  fssagg::FssAggKeys admin_chain_keys_;
  std::unique_ptr<LogService> recovery_log_;  // the admin's own chain
  sim::SimClock::Micros last_recovery_us_ = 0;
  sim::CrashSchedulePtr crash_;
  std::map<std::string, RememberedChain> chains_;  // by chain user
};

}  // namespace rockfs::core
