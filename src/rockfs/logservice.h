// The RockFS operation log (paper §3.2). Every file-mutating close()
// produces one log entry with two halves:
//
//   data part  ld_fu — the binary delta (or whole file), written to the
//     cloud-of-clouds through DepSky's CA protocol under the *log append
//     token* t_l. The CA protocol supplies exactly the paper's per-entry
//     mechanics: encryption under a fresh key S_fu, the key secret-shared
//     across clouds, the ciphertext erasure-coded (one share per cloud).
//
//   metadata part lm_fu — a tuple in the coordination service carrying
//     timestamp, user, path, version, operation, payload digest and the
//     FssAgg per-entry MACs; the running FssAgg aggregates are replicated
//     there too. Integrity of the whole stream is verified from A_1/B_1 at
//     recovery time (§3.3).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <set>

#include "common/result.h"
#include "coord/service.h"
#include "depsky/client.h"
#include "diff/binary_diff.h"
#include "fssagg/fssagg.h"
#include "obs/trace.h"
#include "scfs/lease.h"
#include "sim/faults.h"
#include "sim/timed.h"

namespace rockfs::core {

class IntentJournal;  // journal.h (write-ahead intents for crash recovery)

/// One log entry's metadata half (lm_fu).
struct LogRecord {
  std::uint64_t seq = 0;       // position in the user's log stream
  std::string user;
  std::string path;
  std::uint64_t version = 0;   // file version this operation produced
  std::string op;              // "create" | "update" | "delete" | "recover"
  bool whole_file = false;     // ld_fu holds the full file, not a delta
  std::uint64_t payload_size = 0;
  Bytes payload_hash;          // SHA-256 of the serialized LogDelta
  std::int64_t timestamp_us = 0;
  /// Fencing epoch stamped into lm_fu: the writer's lease epoch at close
  /// time (0 for writers that never locked / predate fencing). Recovery
  /// orders concurrent writers' interleaved chains by (version, epoch).
  std::uint64_t epoch = 0;
  /// The fence this append must pass: the append is refused (kFenced) when
  /// the path's lease epoch has moved past it. scfs::kNoFenceEpoch opts out
  /// (fencing disabled, the recovery admin's chain, unlink). Not part of the
  /// committed record tuple — persisted only in the journal intent, so
  /// replay can fence stale intents of a crashed-and-evicted session.
  std::uint64_t fence_epoch = scfs::kNoFenceEpoch;
  fssagg::FssAggTag tag;

  /// Canonical bytes MACed by FssAgg (everything except the tag).
  Bytes mac_payload() const;

  coord::Tuple to_tuple() const;
  static Result<LogRecord> from_tuple(const coord::Tuple& t);

  /// `tag` and the ten fields a committed record and its journal intent
  /// share: user, seq, path, version, op, whole_file, payload_size,
  /// payload_hash, timestamp_us, epoch. Each tuple appends its own tail.
  coord::Tuple tuple_head(const char* tag) const;
  /// Parses those ten fields of `t` (tag and size already checked); throws
  /// std::exception on a malformed number or hex field.
  static LogRecord parse_tuple_head(const coord::Tuple& t);

  /// Whether `payload` is this record's data half: size and SHA-256 equal.
  bool matches(BytesView payload) const;

  /// DepSky unit name of the data half.
  std::string data_unit() const;
};

/// Writer side, embedded in the RockFS agent. Holds the evolving FssAgg
/// signer state in RAM only.
class LogService {
 public:
  /// Starts from `signer`: a fresh one over the initial keys, or a resumed
  /// chain (signer state rebuilt from the stored aggregates and the key
  /// evolved `count` times from the initial keys).
  LogService(std::string user_id, std::shared_ptr<depsky::DepSkyClient> storage,
             std::vector<cloud::AccessToken> log_tokens,
             std::shared_ptr<coord::CoordinationService> coordination,
             sim::SimClockPtr clock, fssagg::FssAggSigner signer);

  ~LogService();

  /// Appends one entry for a close()/unlink(). Returns the composed delay of
  /// the whole log pipeline WITHOUT advancing the clock, so the caller can
  /// run it in parallel with the file upload (§6.1 optimization (2)).
  ///
  /// Crash consistency: when a journal is attached, the intent is persisted
  /// before any cloud object exists (unless journal_intent() already did);
  /// the signer evolves on a scratch copy and is adopted only after both
  /// coordination tuples commit. A payload-durable-but-uncommitted outcome
  /// reports kPartialCommit — retrying the same append adopts the durable
  /// payload instead of forking the chain.
  ///
  /// Fencing: with a real `fence_epoch`, the path's lease epoch is checked
  /// both before the payload upload and before the metadata commit; if it
  /// moved past the writer's, the append reports kFenced — before the upload
  /// nothing exists and the slot stays pristine, after it the occupied slot
  /// is skipped (the audit tolerates gaps). Either way the path is marked
  /// divergent so the next append logs a whole-file entry.
  sim::Timed<Status> append(const std::string& path, const Bytes& old_content,
                            const Bytes& new_content, std::uint64_t version,
                            const std::string& op,
                            std::uint64_t fence_epoch = scfs::kNoFenceEpoch);

  /// Persists the write-ahead intent for the NEXT append (close pipeline
  /// step 0: before even the file object upload — see Scfs's close intent
  /// hook). The prepared record/payload is consumed by the matching append()
  /// call, which then skips re-journaling. No-op without a journal.
  sim::Timed<Status> journal_intent(const std::string& path, const Bytes& old_content,
                                    const Bytes& new_content, std::uint64_t version,
                                    const std::string& op,
                                    std::uint64_t fence_epoch = scfs::kNoFenceEpoch);

  std::uint64_t next_seq() const noexcept { return next_seq_; }
  const std::string& user() const noexcept { return user_id_; }

  // ---- crash-resilience wiring (journal.h, sim/faults.h) ----

  /// Attaches the write-ahead intent journal (built over this service's
  /// coordination handle). Normally done by make_resumed_log_service.
  void attach_journal();
  bool has_journal() const noexcept { return journal_ != nullptr; }
  /// Crash points inside append() fire against this schedule (nullable).
  void set_crash_schedule(sim::CrashSchedulePtr crash) { crash_ = std::move(crash); }
  /// First unused sequence number; diverges upward from signer_.count() only
  /// when a poisoned slot (partial garbage from a crashed append that can
  /// neither be adopted nor reused) had to be skipped.
  void set_next_seq(std::uint64_t seq) noexcept { next_seq_ = seq; }
  /// Marks `path` as possibly newer in the cloud than in the log (a crashed
  /// close lost its intent): the next append for it logs a whole-file entry,
  /// so selective re-execution never applies a delta against a base the log
  /// has not seen.
  void mark_divergent(const std::string& path) { divergent_paths_.insert(path); }
  const std::set<std::string>& divergent_paths() const noexcept {
    return divergent_paths_;
  }

  /// Enables LZ compression of ld_fu payloads (paper §6.2 future work).
  /// Compression is applied only when it actually shrinks the payload.
  void set_compression(bool enabled) noexcept { compress_ = enabled; }
  bool compression() const noexcept { return compress_; }

 private:
  /// The payload + unsealed record of one append.
  struct Prepared {
    LogRecord record;
    Bytes payload;
    bool valid = false;
  };
  /// The staging step every append passes once (in journal_intent, or inline
  /// in append): builds `out`, persists its intent when a journal is
  /// attached, then reaches kAfterLogIntent. Charges the diff computation and
  /// the journal round to *delay, the round to `span` as a child, and sets
  /// `span`'s duration before the crash point so a crash there leaves the
  /// staged work in the trace.
  Status stage(const std::string& path, const Bytes& old_content, const Bytes& new_content,
               std::uint64_t version, const std::string& op, std::uint64_t fence_epoch,
               obs::Span& span, sim::SimClock::Micros* delay, Prepared& out);
  void maybe_crash(sim::CrashPoint point) {
    if (crash_) crash_->maybe_crash(point);
  }

  std::string user_id_;
  std::shared_ptr<depsky::DepSkyClient> storage_;
  std::vector<cloud::AccessToken> log_tokens_;
  std::shared_ptr<coord::CoordinationService> coordination_;
  sim::SimClockPtr clock_;
  fssagg::FssAggSigner signer_;
  bool compress_ = false;
  std::uint64_t next_seq_ = 0;
  std::unique_ptr<IntentJournal> journal_;
  sim::CrashSchedulePtr crash_;
  /// Intent journaled ahead of the matching append (close pipeline step 0).
  Prepared prepared_;
  /// Seq whose payload is known durable though uncommitted (kPartialCommit):
  /// the retry reads the slot instead of re-uploading into it.
  std::uint64_t pending_retry_seq_ = kNoPendingRetry;
  static constexpr std::uint64_t kNoPendingRetry = ~std::uint64_t{0};
  /// Paths whose cloud state may be ahead of the log (journal.h replay).
  std::set<std::string> divergent_paths_;
};

/// Zero-padded 12-digit sequence label used in tuple fields and data-unit
/// names (shared with the journal and the scrubber).
std::string padded_seq(std::uint64_t seq);

/// Replaces `user`'s replicated aggregates tuple ("rockagg", user, A_1, B_1,
/// count) with `signer`'s running state.
sim::Timed<Status> store_aggregates(coord::CoordinationService& coord,
                                    const std::string& user,
                                    const fssagg::FssAggSigner& signer);

/// Idempotently commits a sealed record plus the refreshed aggregates to the
/// coordination service. Both tuples go through seq-/user-keyed replace, so
/// re-committing after a partial failure rewrites rather than duplicates.
/// The two operations are processed in parallel (delay = max); `crash`, when
/// given, is consulted at kAfterMetaAppend between them. A failure of either
/// half reports kPartialCommit. Shared by append() and the journal replay.
sim::Timed<Status> commit_log_record(coord::CoordinationService& coord,
                                     const LogRecord& record,
                                     const fssagg::FssAggSigner& signer,
                                     sim::CrashSchedule* crash = nullptr);

/// Options for make_resumed_log_service (crash-resilience wiring).
struct LogServiceOptions {
  /// Persist write-ahead intents and replay them at resume time.
  bool enable_journal = false;
  /// Crash schedule consulted by append() (nullable).
  sim::CrashSchedulePtr crash;
  /// Entry index at which the supplied keys became the chain's key stream
  /// (Keystore::fssagg_base_count). 0 = setup keys; after a keystore
  /// rotation the fresh keys start mid-chain and the resume evolves only
  /// (stored count - base) times.
  std::uint64_t key_base_count = 0;
};

/// Payload envelope: a one-byte codec tag (0 = raw, 1 = LZ) ahead of the
/// serialized LogDelta. wrap chooses compression only when it helps.
Bytes wrap_log_payload(BytesView serialized_delta, bool try_compress);
Result<Bytes> unwrap_log_payload(BytesView payload);

/// Builds a LogService that CONTINUES the user's existing chain if the
/// coordination service already records appended entries (login after
/// logout, admin service restart): the keys are evolved `count` times from
/// the initial keys and the aggregates are adopted. With the journal
/// enabled, this is also where crash recovery happens: stored records ahead
/// of the aggregates are reconciled and pending intents are replayed
/// (adopted, discarded, or deferred — journal.h). Advances the clock by the
/// lookups and the replay.
std::unique_ptr<LogService> make_resumed_log_service(
    const std::string& user_id, std::shared_ptr<depsky::DepSkyClient> storage,
    std::vector<cloud::AccessToken> log_tokens,
    std::shared_ptr<coord::CoordinationService> coordination, sim::SimClockPtr clock,
    const fssagg::FssAggKeys& initial_keys, const LogServiceOptions& options = {});

/// Reads the aggregate tuple for `user` (shared by verifier and tests).
struct StoredAggregates {
  Bytes agg_a;
  Bytes agg_b;
  std::uint64_t count = 0;
};
sim::Timed<Result<StoredAggregates>> read_aggregates(coord::CoordinationService& coord,
                                                     const std::string& user);

/// Reads `user`'s log record tuples undecoded, in the coordination
/// service's answer order (oldest first).
sim::Timed<Result<std::vector<coord::Tuple>>> read_log_tuples(
    coord::CoordinationService& coord, const std::string& user);

/// Decodes log record tuples and orders them by seq; records with equal
/// seqs keep the tuples' order. Fails on the first tuple that does not
/// decode.
Result<std::vector<LogRecord>> decode_log_records(const std::vector<coord::Tuple>& tuples);

/// Reads all of `user`'s log records ordered by seq: read_log_tuples, then
/// decode_log_records (does not verify).
sim::Timed<Result<std::vector<LogRecord>>> read_log_records(
    coord::CoordinationService& coord, const std::string& user);

}  // namespace rockfs::core
