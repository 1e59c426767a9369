// Write-ahead intent journal for the RockFS close path. The paper's log
// append is a non-atomic pipeline (file put under t_u, payload put under
// t_l, metadata append to the coordination service); a client crash between
// any two steps orphans objects or desynchronizes the FssAgg signer from the
// stored aggregates. Before the pipeline starts, a compact *intent* — the
// unsealed LogRecord: seq, path, version, op, payload digest — is persisted
// to the coordination service. On the next login, replay_intent_journal
// classifies every pending intent against the stored records and the cloud
// state:
//
//   committed — a record tuple already covers the seq (the crash hit after
//     the metadata append); the intent is simply cleared. Stored records
//     AHEAD of the aggregates (crash between the two coordination tuples)
//     are reconciled first by re-appending them to the resumed signer.
//   adopted — the payload is durable and digest-matches the intent but no
//     record exists (crash after the payload put). The log namespace is
//     append-only, so the slot cannot be rewritten; instead the entry is
//     rolled FORWARD: the tag is recomputed (key evolution is deterministic)
//     and record + aggregates are committed idempotently.
//   discarded — no durable payload (crash before or during the upload); the
//     intent is cleared. If partial garbage occupies the slot the seq is
//     skipped, and either way the path is marked divergent: the next append
//     for it logs a whole-file entry, so selective re-execution never
//     applies a delta whose base the log has not recorded.
//   deferred — the clouds are unreachable right now; the intent stays
//     pending for the next replay and the seq is conservatively skipped.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "rockfs/logservice.h"

namespace rockfs::core {

/// Coordination-service persistence of per-append intents. One tuple per
/// pending seq, keyed by (user, seq) through replace, so re-recording an
/// intent for a reused slot never duplicates.
class IntentJournal {
 public:
  IntentJournal(std::string user_id,
                std::shared_ptr<coord::CoordinationService> coordination);

  /// Persists (replaces) the intent for `intent.seq`.
  sim::Timed<Status> record(const LogRecord& intent);
  /// Removes the intent for `seq` (after the append committed).
  sim::Timed<Status> clear(std::uint64_t seq);
  /// All pending intents, ascending seq order.
  sim::Timed<Result<std::vector<LogRecord>>> pending() const;

  /// Serialization: everything of a LogRecord except the (not yet computed)
  /// FssAgg tag.
  static coord::Tuple to_tuple(const LogRecord& intent);
  static Result<LogRecord> from_tuple(const coord::Tuple& t);

 private:
  std::string user_id_;
  std::shared_ptr<coord::CoordinationService> coordination_;
};

/// Outcome of one journal replay (see the classification above).
struct JournalReplayReport {
  std::size_t scanned = 0;
  std::size_t committed = 0;
  std::size_t adopted = 0;    // intents rolled forward + record/aggregate repairs
  std::size_t discarded = 0;
  std::size_t deferred = 0;
  std::size_t conflicts = 0;  // stored state contradicts the chain (audit will flag)
  /// First sequence number safe for new appends (>= the resumed signer
  /// count; larger when poisoned slots had to be skipped).
  std::uint64_t next_seq = 0;
  /// Paths whose cloud state may be ahead of the log; the next append for
  /// each must be a whole-file entry.
  std::set<std::string> divergent_paths;
};

/// Replays the pending intents of `user_id` against the stored log records
/// and the cloud state, repairing the chain so that the FssAgg signer, the
/// stored aggregates and next_seq agree again. Mutates `signer` for adopted
/// entries. Does not advance the clock (returns the composed delay).
sim::Timed<Result<JournalReplayReport>> replay_intent_journal(
    const std::string& user_id, const std::shared_ptr<depsky::DepSkyClient>& storage,
    const std::vector<cloud::AccessToken>& log_tokens,
    const std::shared_ptr<coord::CoordinationService>& coordination,
    fssagg::FssAggSigner& signer);

}  // namespace rockfs::core
