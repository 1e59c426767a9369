#include "rockfs/recovery.h"

#include "obs/metrics.h"
#include "obs/trace.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"
#include "crypto/drbg.h"
#include "scfs/scfs.h"

namespace rockfs::core {

namespace {

// Local patch-application throughput (client CPU), for MTTR realism.
constexpr double kPatchBytesPerSec = 400e6;

sim::SimClock::Micros patch_cost(std::size_t bytes) {
  return 200 + static_cast<sim::SimClock::Micros>(1e6 * static_cast<double>(bytes) /
                                                  kPatchBytesPerSec);
}

}  // namespace

RecoveryService::RecoveryService(std::string user_id, RecoveryConfig config,
                                 std::shared_ptr<depsky::DepSkyClient> admin_storage,
                                 std::shared_ptr<coord::CoordinationService> coordination,
                                 sim::SimClockPtr clock)
    : user_id_(std::move(user_id)),
      config_(std::move(config)),
      storage_(std::move(admin_storage)),
      coordination_(std::move(coordination)),
      clock_(std::move(clock)) {
  // Recovery operations are themselves logged (paper §3.3), as their own
  // forward-secure stream under an admin chain ("admin:<user>"): the user
  // agent's chain keys evolve in its RAM and are not available to the admin.
  crypto::Drbg admin_drbg(to_bytes("rockfs.recovery." + user_id_),
                          config_.user_chain_keys.a1);
  admin_chain_keys_ = fssagg::fssagg_keygen(admin_drbg);
  // A previous service instance may already have written admin records;
  // resume the chain from the stored aggregates instead of restarting it.
  // The admin chain gets the same write-ahead journal protection as the
  // user chain: a crashed recovery's half-appended records are repaired
  // here before any new "recover"/"snapshot" entry.
  recovery_log_ = make_resumed_log_service(
      "admin:" + user_id_, storage_, config_.admin_tokens, coordination_, clock_,
      admin_chain_keys_, LogServiceOptions{/*enable_journal=*/true, /*crash=*/nullptr});
}

void RecoveryService::set_crash_schedule(sim::CrashSchedulePtr crash) {
  crash_ = std::move(crash);
  recovery_log_->set_crash_schedule(crash_);
}

Status RecoveryService::RememberedChain::take(std::shared_ptr<const Bytes> answer) {
  std::vector<LogRecord>& records = audit_.records;
  const std::size_t prefix = records.size();  // one record per remembered tuple
  std::optional<std::vector<coord::Tuple>> added;
  if (prefix > 0) added = coord::decode_tuples_after(*answer_, *answer);
  bool extends = added.has_value();
  std::vector<LogRecord> tail;
  for (std::size_t i = 0; extends && i < added->size(); ++i) {
    auto r = LogRecord::from_tuple((*added)[i]);
    // The prefix decoded before, so decoding the whole answer would fail on
    // this same tuple.
    if (!r.ok()) return Error{r.error()};
    extends = r->seq > (tail.empty() ? records.back().seq : tail.back().seq);
    tail.push_back(std::move(*r));
  }
  if (extends) {
    obs::metrics().counter("recovery.audit.reused").add(prefix);
    obs::metrics().counter("recovery.audit.decoded").add(tail.size());
    records.insert(records.end(), std::make_move_iterator(tail.begin()),
                   std::make_move_iterator(tail.end()));
  } else {
    const std::vector<coord::Tuple> tuples = coord::decode_tuples(*answer);
    auto decoded = decode_log_records(tuples);
    if (!decoded.ok()) return Error{decoded.error()};
    obs::metrics().counter("recovery.audit.decoded").add(tuples.size());
    records = std::move(*decoded);
    verifier_.reset();
  }
  answer_ = std::move(answer);
  return Status{};
}

const LogAudit& RecoveryService::RememberedChain::settle(
    const fssagg::FssAggKeys& keys, const std::vector<fssagg::FssAggRotation>& rotations,
    const StoredAggregates& stored) {
  const std::vector<LogRecord>& records = audit_.records;
  if (verifier_) {
    // The switches it made must be exactly those due before its position.
    std::size_t due = 0;
    while (due < rotations.size() && rotations[due].at_index < verifier_->count()) ++due;
    if (keys != keys_ || due != rotations_.size() ||
        !std::equal(rotations_.begin(), rotations_.end(), rotations.begin())) {
      verifier_.reset();
    }
  }
  if (!verifier_) {
    verifier_.emplace(keys);
    keys_ = keys;
    rotations_.clear();
  }
  for (std::size_t i = verifier_->count(); i < records.size(); ++i) {
    const std::size_t next = rotations_.size();
    if (next < rotations.size() && rotations[next].at_index == i) {
      verifier_->rotate(rotations[next].keys);
      rotations_.push_back(rotations[next]);
    }
    verifier_->add(records[i].mac_payload(), records[i].tag);
  }
  audit_.report = verifier_->report(stored.agg_a, stored.agg_b, stored.count);
  audit_.discarded_seqs.clear();
  for (const std::size_t idx : audit_.report.corrupt_entries) {
    audit_.discarded_seqs.insert(records[idx].seq);
  }
  return audit_;
}

const LogAudit& RecoveryService::RememberedChain::clean() {
  audit_.report = {};
  audit_.report.ok = true;
  audit_.discarded_seqs.clear();
  return audit_;
}

namespace {

// The public audits hand out copies; recovery reads the remembered audit.
Result<LogAudit> copy_of(const Result<const LogAudit*>& audit) {
  if (!audit.ok()) return Error{audit.error()};
  return **audit;
}

}  // namespace

Result<LogAudit> RecoveryService::audit_admin_log() { return copy_of(audited_admin_chain()); }

Result<const LogAudit*> RecoveryService::audited_admin_chain() {
  const std::string chain_user = "admin:" + user_id_;
  auto tuples = read_log_tuples(*coordination_, chain_user);
  auto aggregates = read_aggregates(*coordination_, chain_user);
  clock_->advance_us(tuples.delay + aggregates.delay);
  if (!tuples.value.ok()) return Error{tuples.value.error()};
  RememberedChain& chain = chains_[chain_user];
  if (auto taken = chain.take(std::move(*tuples.value)); !taken.ok()) {
    return Error{taken.error()};
  }
  if (!aggregates.value.ok()) {
    if (chain.records().empty() && aggregates.value.code() == ErrorCode::kNotFound) {
      return &chain.clean();
    }
    return Error{aggregates.value.error()};
  }
  return &chain.settle(admin_chain_keys_, {}, *aggregates.value);
}

RecoveryService::SnapshotBaseline RecoveryService::load_snapshot(
    const std::string& path, sim::SimClock::Micros* delay) {
  SnapshotBaseline baseline;
  auto admin = audited_admin_chain();
  if (!admin.ok()) return baseline;
  const LogAudit& admin_audit = **admin;
  // Latest valid snapshot record for this path.
  const LogRecord* snap = nullptr;
  for (const auto& r : admin_audit.records) {
    if (r.op != "snapshot" || r.path != path) continue;
    if (admin_audit.discarded_seqs.contains(r.seq)) continue;
    if (snap == nullptr || r.seq > snap->seq) snap = &r;
  }
  if (snap == nullptr) return baseline;
  auto payload = storage_->read(config_.admin_tokens, snap->data_unit());
  *delay += payload.delay;
  if (!payload.value.ok() || !snap->matches(*payload.value)) return baseline;
  auto unwrapped = unwrap_log_payload(*payload.value);
  if (!unwrapped.ok()) return baseline;
  auto delta = diff::LogDelta::deserialize(*unwrapped);
  if (!delta.ok() || !delta->whole_file) return baseline;
  baseline.content = std::move(delta->payload);
  baseline.watermark = snap->version;  // the user-log seq covered by the snapshot
  baseline.found = true;
  return baseline;
}

Result<LogAudit> RecoveryService::audit_log() { return copy_of(audited_log()); }

Result<LogAudit> RecoveryService::audit_chain(const std::string& chain_user,
                                              const fssagg::FssAggKeys& chain_keys) {
  return copy_of(audited_chain(chain_user, chain_keys));
}

Result<const LogAudit*> RecoveryService::audited_log() {
  return audited_chain(user_id_, config_.user_chain_keys);
}

Result<const LogAudit*> RecoveryService::audited_chain(const std::string& chain_user,
                                                       const fssagg::FssAggKeys& chain_keys) {
  obs::Span span = obs::tracer().span("recovery.audit");
  span.set_label(chain_user);
  obs::metrics().counter("recovery.audits").add();
  sim::SimClock::Micros delay = 0;

  auto tuples = read_log_tuples(*coordination_, chain_user);
  delay += tuples.delay;
  span.charge_child(static_cast<std::uint64_t>(tuples.delay));
  RememberedChain& chain = chains_[chain_user];
  const Status taken =
      tuples.value.ok() ? chain.take(std::move(*tuples.value)) : Status{tuples.value.error()};
  if (!taken.ok()) {
    clock_->advance_us(delay);
    span.set_duration(static_cast<std::uint64_t>(delay));
    span.set_outcome(taken.code());
    return Error{taken.error()};
  }
  auto aggregates = read_aggregates(*coordination_, chain_user);
  delay += aggregates.delay;
  span.charge_child(static_cast<std::uint64_t>(aggregates.delay));
  span.set_duration(static_cast<std::uint64_t>(delay));
  clock_->advance_us(delay);

  if (!aggregates.value.ok()) {
    if (chain.records().empty() && aggregates.value.code() == ErrorCode::kNotFound) {
      // No log at all: trivially clean.
      return &chain.clean();
    }
    return Error{aggregates.value.error()};
  }

  // Keystore rotations: the chain may span key changes. Each "rotate" record
  // must be vouched for by a signature-valid, admin-signed manifest AND map
  // to fresh keys the admin actually stored — anything less fails the audit
  // fail-closed (an attacker with stolen pre-rotation tokens can append a
  // fake rotate record but can never produce the admin signature for it).
  std::vector<fssagg::FssAggRotation> rotations;
  {
    auto manifests = read_rotation_manifests(*coordination_, chain_user);
    clock_->advance_us(manifests.delay);
    if (!manifests.value.ok()) return Error{manifests.value.error()};
    const std::vector<ChainRotationKeys>* known = nullptr;
    if (chain_user == user_id_) {
      known = &config_.chain_rotations;
    } else if (const auto it = config_.peer_chain_rotations.find(chain_user);
               it != config_.peer_chain_rotations.end()) {
      known = &it->second;
    }
    const std::vector<LogRecord>& records = chain.records();
    for (std::size_t i = 0; i < records.size(); ++i) {
      const LogRecord& r = records[i];
      if (r.op != rotation_record_op()) continue;
      const RotationManifest* m = nullptr;
      for (const auto& cand : *manifests.value) {
        if (cand.rotation_epoch == r.version) {
          m = &cand;
          break;
        }
      }
      if (m == nullptr || m->at_seq != r.seq || config_.admin_public_key.empty() ||
          !verify_rotation_manifest(*m, config_.admin_public_key)) {
        return Error{ErrorCode::kIntegrity,
                     "audit: rotate record without a valid admin-signed manifest (" +
                         chain_user + " seq " + std::to_string(r.seq) + ")"};
      }
      const ChainRotationKeys* fresh = nullptr;
      if (known != nullptr) {
        for (const auto& k : *known) {
          if (k.rotation_epoch == m->rotation_epoch && manifest_matches_keys(*m, k.keys)) {
            fresh = &k;
            break;
          }
        }
      }
      if (fresh == nullptr) {
        return Error{ErrorCode::kIntegrity,
                     "audit: no stored keys match rotation manifest of " + chain_user +
                         " (epoch " + std::to_string(m->rotation_epoch) + ")"};
      }
      // The rotate record itself is MAC'd under the outgoing stream; the
      // fresh stream starts at the next chain index (== vector position + 1,
      // since MAC indices count committed entries, not raw seqs).
      rotations.push_back({i + 1, fresh->keys});
    }
  }

  return &chain.settle(chain_keys, rotations, *aggregates.value);
}

void RecoveryService::replay(const std::vector<const LogRecord*>& records, Bytes base,
                             FileRecovery* result, sim::SimClock::Micros* delay) {
  // Step 2: batch-download all data halves in parallel.
  struct Fetched {
    const LogRecord* record;
    Result<diff::LogDelta> delta;
  };
  std::vector<Fetched> fetched;
  std::vector<sim::SimClock::Micros> download_delays;
  for (const LogRecord* r : records) {
    auto payload = storage_->read(config_.admin_tokens, r->data_unit());
    if (!payload.value.ok() && payload.value.code() == ErrorCode::kUnavailable) {
      // Shares may have been archived by a compaction whose snapshot was
      // later lost: fall back to cold storage (slow, but nothing is gone).
      payload = storage_->read_archived(config_.admin_tokens, r->data_unit());
    }
    download_delays.push_back(payload.delay);
    // Cross-check the data half against the MAC-verified metadata.
    if (!payload.value.ok() || !r->matches(*payload.value)) {
      ++result->skipped_invalid;
      continue;
    }
    auto unwrapped = unwrap_log_payload(*payload.value);
    if (!unwrapped.ok()) {
      ++result->skipped_invalid;
      continue;
    }
    fetched.push_back({r, diff::LogDelta::deserialize(*unwrapped)});
  }
  *delay += sim::parallel_delay(download_delays);

  // Step 3/4: selective re-execution.
  Bytes content = std::move(base);
  for (auto& f : fetched) {
    if (!f.delta.ok()) {
      ++result->skipped_invalid;
      continue;
    }
    if (f.record->op == "delete") {
      content.clear();
      ++result->applied;
      continue;
    }
    auto next = diff::apply_log_delta(content, *f.delta);
    *delay += patch_cost(content.size() + f.delta->payload.size());
    if (!next.ok()) {
      // A delta that no longer applies (its base included a skipped
      // malicious write). Whole-file entries always apply; for deltas we
      // must drop the entry, as the paper's selective re-execution does.
      ++result->skipped_invalid;
      continue;
    }
    content = std::move(*next);
    ++result->applied;
  }
  result->content = std::move(content);
}

void RecoveryService::book_recovery(obs::Span& span, sim::SimClock::Micros start,
                                    std::size_t files) {
  last_recovery_us_ = clock_->now_us() - start;
  span.set_duration(static_cast<std::uint64_t>(last_recovery_us_));
  obs::metrics().counter("recovery.files_recovered").add(files);
  obs::metrics().histogram("recovery.mttr_us").record(
      static_cast<std::uint64_t>(last_recovery_us_));
}

Result<FileRecovery> RecoveryService::recover_one(const LogAudit& audit,
                                                  const std::string& path,
                                                  const std::set<std::uint64_t>& malicious,
                                                  sim::SimClock::Micros* delay,
                                                  bool apply, bool use_snapshots) {
  FileRecovery result;
  result.path = path;

  // A snapshot baseline (if one exists) replaces the archived prefix of the
  // log: recovery starts from it and replays only newer entries.
  const SnapshotBaseline baseline =
      use_snapshots ? load_snapshot(path, delay) : SnapshotBaseline{};

  // Select this file's surviving entries in log order (rotation records
  // live under a sentinel path and carry no file data; never replay them).
  bool has_entries = false;
  std::vector<const LogRecord*> survivors;
  for (const auto& r : audit.records) {
    if (r.path != path || r.op == rotation_record_op()) continue;
    has_entries = true;
    if (baseline.found && r.seq <= baseline.watermark) continue;  // folded in
    if (audit.discarded_seqs.contains(r.seq)) {
      ++result.skipped_invalid;
      continue;
    }
    if (malicious.contains(r.seq)) {
      ++result.skipped_malicious;
      continue;
    }
    survivors.push_back(&r);
  }
  if (!has_entries && !baseline.found) {
    return Error{ErrorCode::kNotFound, "recovery: no log entries for " + path};
  }
  if (baseline.found) ++result.applied;  // the snapshot itself
  replay(survivors, baseline.content, &result, delay);
  if (!apply) return result;

  if (auto st = commit_recovered(path, result.content, delay); !st.ok()) {
    return Error{st.error()};
  }
  return result;
}

Status RecoveryService::commit_recovered(const std::string& path, const Bytes& content,
                                         sim::SimClock::Micros* delay) {
  // Step 5: push the recovered version back and bump the inode. Files are
  // shared, not per-user: the unit is the one every SCFS client uses.
  const std::string unit = scfs::file_unit(path);
  auto up = storage_->write(config_.admin_tokens, unit, content);
  *delay += up.delay;
  if (!up.value.ok()) return Status{up.value.error()};

  auto head = storage_->head_version(config_.admin_tokens, unit);
  const std::uint64_t version = head.value.ok() ? *head.value : 1;
  // Stamp the path's current lease epoch so subsequent unfenced writers (who
  // inherit the inode epoch at open) are not spuriously fenced.
  auto fence = scfs::read_fence_epoch(*coordination_, path);
  *delay += fence.delay;
  scfs::FileStat inode;
  inode.path = path;
  inode.version = version;
  inode.size = content.size();
  inode.owner = user_id_;
  inode.modified_us = clock_->now_us();
  inode.epoch = fence.value.ok() ? *fence.value : 0;
  auto meta = coordination_->replace(scfs::inode_pattern(path), scfs::inode_tuple(inode));
  *delay += meta.delay;
  if (!meta.value.ok()) return Status{meta.value.error()};

  // The recovery operation is itself logged (and can never be erased).
  auto logged = recovery_log_->append(path, {}, content, version, "recover");
  *delay += logged.delay;
  return logged.value;
}

Result<FileRecovery> RecoveryService::recover_file(const std::string& path,
                                                   const std::set<std::uint64_t>& malicious) {
  return recover_single("recovery.recover_file", path, malicious, std::nullopt);
}

Result<FileRecovery> RecoveryService::recover_file_at(const std::string& path,
                                                      std::int64_t as_of_us) {
  return recover_single("recovery.recover_file_at", path, {}, as_of_us);
}

Result<FileRecovery> RecoveryService::recover_single(const char* span_name,
                                                     const std::string& path,
                                                     std::set<std::uint64_t> malicious,
                                                     std::optional<std::int64_t> as_of_us) {
  obs::Span span = obs::tracer().span(span_name);
  span.set_label(path);
  const auto start = clock_->now_us();
  auto audited = audited_log();
  if (!audited.ok()) return Error{audited.error()};
  const LogAudit& audit = **audited;
  if (audit.report.aggregate_mismatch || audit.report.count_mismatch) {
    return Error{ErrorCode::kIntegrity,
                 "recovery: log stream integrity violated (truncation or reordering)"};
  }
  if (as_of_us) {
    // Everything after the cut-off is treated exactly like a malicious
    // entry: skipped during selective re-execution.
    for (const auto& r : audit.records) {
      if (r.path == path && r.timestamp_us > *as_of_us) malicious.insert(r.seq);
    }
  }
  sim::SimClock::Micros delay = 0;
  auto result = recover_one(audit, path, malicious, &delay, /*apply=*/true,
                            /*use_snapshots=*/!as_of_us);
  clock_->advance_us(delay);
  if (result.ok()) book_recovery(span, start, 1);
  return result;
}

Result<FileRecovery> RecoveryService::recover_shared_file(
    const std::string& path, const std::set<std::string>& malicious_users) {
  obs::Span span = obs::tracer().span("recovery.recover_shared_file");
  span.set_label(path);
  const auto start = clock_->now_us();

  // Audit every writer's chain. A chain that fails stream verification
  // (truncation/reordering) aborts the recovery — unless its author is being
  // dropped anyway, in which case its entries are irrelevant.
  struct Chain {
    std::string user;
    const LogAudit* audit;
  };
  std::vector<Chain> chains;
  {
    auto own = audited_log();
    if (!own.ok()) return Error{own.error()};
    if ((*own)->report.aggregate_mismatch || (*own)->report.count_mismatch) {
      if (!malicious_users.contains(user_id_)) {
        return Error{ErrorCode::kIntegrity,
                     "recovery: log stream integrity violated for " + user_id_};
      }
    } else {
      chains.push_back({user_id_, *own});
    }
  }
  for (const auto& [peer, keys] : config_.peer_chain_keys) {
    auto audit = audited_chain(peer, keys);
    if (!audit.ok()) {
      if (audit.code() == ErrorCode::kNotFound) continue;  // peer never wrote
      return Error{audit.error()};
    }
    if ((*audit)->report.aggregate_mismatch || (*audit)->report.count_mismatch) {
      if (!malicious_users.contains(peer)) {
        return Error{ErrorCode::kIntegrity,
                     "recovery: log stream integrity violated for " + peer};
      }
      continue;
    }
    chains.push_back({peer, *audit});
  }

  // Collect every writer's surviving records for the file and order them by
  // (version, epoch, timestamp, user, seq): version is the commit order the
  // coordination service serialized, the fencing epoch breaks ties between a
  // fenced straggler and its evictor, and the remaining keys make the order
  // total and deterministic.
  FileRecovery result;
  result.path = path;
  std::vector<const LogRecord*> merged;
  for (const auto& c : chains) {
    const bool drop = malicious_users.contains(c.user);
    for (const auto& r : c.audit->records) {
      if (r.path != path) continue;
      if (c.audit->discarded_seqs.contains(r.seq)) {
        ++result.skipped_invalid;
        continue;
      }
      if (drop) {
        ++result.skipped_malicious;
        continue;
      }
      merged.push_back(&r);
    }
  }
  if (merged.empty() && result.skipped_malicious == 0) {
    return Error{ErrorCode::kNotFound, "recovery: no log entries for " + path};
  }
  std::sort(merged.begin(), merged.end(), [](const LogRecord* a, const LogRecord* b) {
    if (a->version != b->version) return a->version < b->version;
    if (a->epoch != b->epoch) return a->epoch < b->epoch;
    if (a->timestamp_us != b->timestamp_us) return a->timestamp_us < b->timestamp_us;
    if (a->user != b->user) return a->user < b->user;
    return a->seq < b->seq;
  });

  // Re-execute the merged survivors. Every cross-user write is a whole-file
  // entry (the agent forces it when the opened base was written by someone
  // else), so dropping a user's entries never strands a surviving delta on
  // an unlogged base: each honest run either extends its own previous entry
  // or restarts from a whole file.
  sim::SimClock::Micros delay = 0;
  replay(merged, {}, &result, &delay);
  const Status committed = commit_recovered(path, result.content, &delay);
  // The downloads and patching still took simulated time when the commit
  // fails: a failed recovery must not skew virtual time.
  clock_->advance_us(delay);
  if (!committed.ok()) return Error{committed.error()};
  obs::metrics().counter("recovery.shared_recoveries").add();
  book_recovery(span, start, 1);
  return result;
}

Result<RecoveryService::CompactionReport> RecoveryService::compact_file(
    const std::string& path) {
  auto audited = audited_log();
  if (!audited.ok()) return Error{audited.error()};
  const LogAudit& audit = **audited;
  if (audit.report.aggregate_mismatch || audit.report.count_mismatch) {
    return Error{ErrorCode::kIntegrity, "compaction: log stream integrity violated"};
  }

  // Reconstruct the file's current content from the full log (no malicious
  // set: compaction preserves exactly what is there).
  sim::SimClock::Micros delay = 0;
  auto current = recover_one(audit, path, {}, &delay, /*apply=*/false);
  if (!current.ok()) return Error{current.error()};

  // Watermark: the newest user-log seq folded into this snapshot.
  std::uint64_t watermark = 0;
  std::vector<const LogRecord*> entries;
  for (const auto& r : audit.records) {
    if (r.path == path) {
      watermark = std::max(watermark, r.seq);
      entries.push_back(&r);
    }
  }

  // Write the snapshot baseline into the admin chain FIRST (data before the
  // archival, so a crash mid-compaction never loses information).
  auto logged = recovery_log_->append(path, {}, current->content, watermark, "snapshot");
  delay += logged.delay;
  if (!logged.value.ok()) return Error{logged.value.error()};

  // Archive the folded entries' payload shares to the cold tier.
  CompactionReport report;
  report.path = path;
  std::vector<sim::SimClock::Micros> archive_delays;
  for (const LogRecord* r : entries) {
    bool archived_any = false;
    for (std::size_t i = 0; i < config_.admin_tokens.size(); ++i) {
      const std::string key = depsky::DepSkyClient::share_key(r->data_unit(), 1, i);
      auto& cloud = *storage_->config().clouds[i];
      const std::uint64_t before = cloud.stored_bytes();
      auto archived = cloud.archive(config_.admin_tokens[i], key);
      archive_delays.push_back(archived.delay);
      if (archived.value.ok()) {
        archived_any = true;
        report.hot_bytes_freed += before - cloud.stored_bytes();
      }
    }
    if (archived_any) ++report.entries_archived;
  }
  delay += sim::parallel_delay(archive_delays);
  clock_->advance_us(delay);
  return report;
}

Result<std::vector<RecoveryService::CompactionReport>> RecoveryService::compact_all() {
  auto audited = audited_log();
  if (!audited.ok()) return Error{audited.error()};
  std::set<std::string> paths;
  for (const auto& r : (*audited)->records) {
    if (r.path != rotation_record_path()) paths.insert(r.path);  // not a file
  }
  std::vector<CompactionReport> reports;
  for (const auto& path : paths) {
    auto report = compact_file(path);
    if (report.ok()) reports.push_back(std::move(*report));
  }
  return reports;
}

Result<std::vector<FileRecovery>> RecoveryService::recover_all(
    const std::set<std::uint64_t>& malicious, const std::vector<std::string>& priority) {
  obs::Span span = obs::tracer().span("recovery.recover_all");
  const auto start = clock_->now_us();
  auto audited = audited_log();
  if (!audited.ok()) return Error{audited.error()};
  const LogAudit& audit = **audited;
  if (audit.report.aggregate_mismatch || audit.report.count_mismatch) {
    return Error{ErrorCode::kIntegrity,
                 "recovery: log stream integrity violated (truncation or reordering)"};
  }

  sim::SimClock::Micros delay = 0;

  // Resumable sessions: the admin chain brackets every recover_all between a
  // "recover-begin" and a "recover-end" marker, and each recovered file's
  // "recover" record doubles as its checkpoint. An un-ended begin marker
  // means the previous run crashed — resume after the last completed file
  // instead of re-recovering (and double-logging) the finished ones.
  std::set<std::string> already_done;
  bool resuming = false;
  if (auto admin = audited_admin_chain(); admin.ok()) {
    const LogAudit& admin_audit = **admin;
    const LogRecord* begin = nullptr;
    const LogRecord* end = nullptr;
    for (const auto& r : admin_audit.records) {
      if (admin_audit.discarded_seqs.contains(r.seq)) continue;
      if (r.op == "recover-begin" && (!begin || r.seq > begin->seq)) begin = &r;
      if (r.op == "recover-end" && (!end || r.seq > end->seq)) end = &r;
    }
    if (begin != nullptr && (end == nullptr || end->seq < begin->seq)) {
      resuming = true;
      for (const auto& r : admin_audit.records) {
        if (admin_audit.discarded_seqs.contains(r.seq)) continue;
        if (r.op == "recover" && r.seq > begin->seq) already_done.insert(r.path);
      }
      obs::metrics().counter("recovery.resumed").add();
      LOG_INFO("recover_all resuming: " << already_done.size()
                                        << " file(s) already checkpointed");
    }
  }
  if (!resuming) {
    auto marker = recovery_log_->append("*", {}, {}, 0, "recover-begin");
    delay += marker.delay;
    if (!marker.value.ok()) return Error{marker.value.error()};
  }

  // Enumerate files: priority list first, then everything else in log order.
  std::vector<std::string> order;
  std::set<std::string> seen;
  for (const auto& p : priority) {
    if (seen.insert(p).second) order.push_back(p);
  }
  for (const auto& r : audit.records) {
    if (r.path == rotation_record_path()) continue;  // not a file
    if (seen.insert(r.path).second) order.push_back(r.path);
  }

  std::vector<FileRecovery> results;
  results.reserve(order.size());
  try {
    for (const auto& path : order) {
      if (already_done.contains(path)) continue;  // checkpointed by the crashed run
      auto one = recover_one(audit, path, malicious, &delay);
      if (!one.ok()) {
        LOG_WARN("recovery of " << path << " failed: " << one.error().message);
        continue;
      }
      results.push_back(std::move(*one));
      // The admin workstation can die between files too.
      if (crash_) crash_->maybe_crash(sim::CrashPoint::kMidRecoverAll);
    }
  } catch (const sim::ClientCrash& crash) {
    // The recovery process is gone; bill the time spent so far and model the
    // restart by rebuilding the admin-chain writer from the stored state
    // (exactly what the service ctor of the next run would do).
    clock_->advance_us(delay);
    LOG_WARN("recover_all crashed at " << sim::crash_point_name(crash.point) << " after "
                                       << results.size() << " file(s)");
    recovery_log_ = make_resumed_log_service(
        "admin:" + user_id_, storage_, config_.admin_tokens, coordination_, clock_,
        admin_chain_keys_, LogServiceOptions{/*enable_journal=*/true, crash_});
    return Error{ErrorCode::kCrashed,
                 std::string("recovery crashed at ") + sim::crash_point_name(crash.point)};
  }

  auto marker = recovery_log_->append("*", {}, {}, 0, "recover-end");
  delay += marker.delay;
  if (!marker.value.ok()) return Error{marker.value.error()};

  clock_->advance_us(delay);
  book_recovery(span, start, results.size());
  return results;
}

}  // namespace rockfs::core
