#include "rockfs/journal.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/metrics.h"
#include "sim/timed.h"

namespace rockfs::core {

namespace {

constexpr const char* kJournalTag = "rockjournal";

coord::Template intent_pattern(const std::string& user, std::uint64_t seq) {
  return coord::Template::of({kJournalTag, user, padded_seq(seq), "*", "*", "*", "*",
                              "*", "*", "*", "*", "*"});
}

coord::Template all_intents_pattern(const std::string& user) {
  return coord::Template::of(
      {kJournalTag, user, "*", "*", "*", "*", "*", "*", "*", "*", "*", "*"});
}

bool tags_equal(const fssagg::FssAggTag& a, const fssagg::FssAggTag& b) {
  return ct_equal(a.mac_a, b.mac_a) && ct_equal(a.mac_b, b.mac_b);
}

}  // namespace

IntentJournal::IntentJournal(std::string user_id,
                             std::shared_ptr<coord::CoordinationService> coordination)
    : user_id_(std::move(user_id)), coordination_(std::move(coordination)) {}

coord::Tuple IntentJournal::to_tuple(const LogRecord& intent) {
  coord::Tuple t = intent.tuple_head(kJournalTag);
  t.push_back(std::to_string(intent.fence_epoch));
  return t;
}

Result<LogRecord> IntentJournal::from_tuple(const coord::Tuple& t) {
  if (t.size() != 12 || t[0] != kJournalTag) {
    return Error{ErrorCode::kCorrupted, "journal intent: malformed tuple"};
  }
  try {
    LogRecord r = LogRecord::parse_tuple_head(t);
    r.fence_epoch = std::stoull(t[11]);
    return r;
  } catch (const std::exception& e) {
    return Error{ErrorCode::kCorrupted, std::string("journal intent: ") + e.what()};
  }
}

sim::Timed<Status> IntentJournal::record(const LogRecord& intent) {
  auto stored = coordination_->replace(intent_pattern(user_id_, intent.seq),
                                       to_tuple(intent));
  obs::metrics().counter("journal.intents.recorded").add();
  if (!stored.value.ok()) return {Status{stored.value.error()}, stored.delay};
  return {Status::Ok(), stored.delay};
}

sim::Timed<Status> IntentJournal::clear(std::uint64_t seq) {
  auto taken = coordination_->inp(intent_pattern(user_id_, seq));
  obs::metrics().counter("journal.intents.cleared").add();
  if (!taken.value.ok()) return {Status{taken.value.error()}, taken.delay};
  return {Status::Ok(), taken.delay};
}

sim::Timed<Result<std::vector<LogRecord>>> IntentJournal::pending() const {
  auto all = coordination_->rdall(all_intents_pattern(user_id_));
  if (!all.value.ok()) return {Error{all.value.error()}, all.delay};
  std::vector<LogRecord> intents;
  intents.reserve(all.value->size());
  for (const auto& t : *all.value) {
    auto r = from_tuple(t);
    if (!r.ok()) return {Error{r.error()}, all.delay};
    intents.push_back(std::move(*r));
  }
  std::sort(intents.begin(), intents.end(),
            [](const LogRecord& a, const LogRecord& b) { return a.seq < b.seq; });
  return {std::move(intents), all.delay};
}

sim::Timed<Result<JournalReplayReport>> replay_intent_journal(
    const std::string& user_id, const std::shared_ptr<depsky::DepSkyClient>& storage,
    const std::vector<cloud::AccessToken>& log_tokens,
    const std::shared_ptr<coord::CoordinationService>& coordination,
    fssagg::FssAggSigner& signer) {
  sim::SimClock::Micros delay = 0;
  JournalReplayReport report;
  auto& reg = obs::metrics();

  // Stored records are the commit ground truth the intents are judged against.
  auto records = read_log_records(*coordination, user_id);
  delay += records.delay;
  if (!records.value.ok()) return {Error{records.value.error()}, delay};

  // Phase A: records AHEAD of the resumed aggregates mean the crash hit
  // between the two coordination tuples (record committed, aggregates
  // stale). Key evolution is deterministic, so re-appending each such record
  // must reproduce its stored tag; then the aggregates are re-replaced.
  std::set<std::uint64_t> committed_seqs;
  for (const auto& r : *records.value) committed_seqs.insert(r.seq);
  bool aggregates_stale = false;
  for (std::size_t i = signer.count(); i < records.value->size(); ++i) {
    const LogRecord& r = (*records.value)[i];
    fssagg::FssAggSigner next = signer;
    const fssagg::FssAggTag tag = next.append(r.mac_payload());
    if (!tags_equal(tag, r.tag)) {
      // A tail record our signer cannot reproduce: forged or reordered.
      // Leave it for audit_log() to flag; adopting it would fork the chain.
      ++report.conflicts;
      LOG_WARN("journal replay: stored record seq=" << r.seq
                                                    << " does not extend the chain");
      break;
    }
    signer = std::move(next);
    aggregates_stale = true;
    ++report.adopted;
  }
  if (aggregates_stale) {
    auto agg = store_aggregates(*coordination, user_id, signer);
    delay += agg.delay;
    if (!agg.value.ok()) return {Error{agg.value.error()}, delay};
  }

  report.next_seq = signer.count();
  if (!records.value->empty()) {
    report.next_seq = std::max(report.next_seq, records.value->back().seq + 1);
  }

  // Phase B: classify every pending intent.
  IntentJournal journal(user_id, coordination);
  auto intents = journal.pending();
  delay += intents.delay;
  if (!intents.value.ok()) return {Error{intents.value.error()}, delay};

  // The slot of a rolled-back intent is reusable only if NO cloud holds any
  // object of the unit (the log namespace is append-only, so partial garbage
  // permanently blocks it). Shared by the discard and fenced branches.
  const auto probe_pristine = [&](const LogRecord& intent) {
    bool pristine = true;
    std::vector<sim::SimClock::Micros> probe_delays;
    const auto& clouds = storage->config().clouds;
    for (std::size_t i = 0; i < clouds.size() && i < log_tokens.size(); ++i) {
      auto listed = clouds[i]->list(log_tokens[i], intent.data_unit() + ".");
      probe_delays.push_back(listed.delay);
      if (!listed.value.ok() || !listed.value->empty()) pristine = false;
    }
    delay += sim::parallel_delay(probe_delays);
    return pristine;
  };

  for (const LogRecord& intent : *intents.value) {
    ++report.scanned;
    if (committed_seqs.contains(intent.seq)) {
      auto cleared = journal.clear(intent.seq);
      delay += cleared.delay;
      ++report.committed;
      continue;
    }

    // Fenced intent: the path's lease epoch moved past the writer's fence —
    // the crash interleaved with an eviction, and the new holder's writes
    // may already be committed. Nothing of this intent may enter the chain,
    // durable payload or not: discard it without probing for adoption.
    auto fence = scfs::check_fence(*coordination, intent.path, intent.fence_epoch);
    delay += fence.delay;
    if (fence.value.code() == ErrorCode::kFenced) {
      const bool pristine = probe_pristine(intent);
      auto cleared = journal.clear(intent.seq);
      delay += cleared.delay;
      ++report.discarded;
      reg.counter("journal.replay.fenced").add();
      report.divergent_paths.insert(intent.path);
      if (!pristine) report.next_seq = std::max(report.next_seq, intent.seq + 1);
      continue;
    }
    if (!fence.value.ok()) {
      // Fail closed: without the lease epoch we cannot tell a live intent
      // from a fenced one — keep it pending for the next replay rather than
      // re-adopt a possibly fenced payload.
      ++report.deferred;
      report.next_seq = std::max(report.next_seq, intent.seq + 1);
      report.divergent_paths.insert(intent.path);
      continue;
    }

    // No record: is the payload durable? (One read answers it — the digest
    // in the intent is the arbiter.)
    auto payload = storage->read(log_tokens, intent.data_unit());
    delay += payload.delay;
    const bool durable = payload.value.ok() && intent.matches(*payload.value);
    if (durable) {
      LogRecord record = intent;
      fssagg::FssAggSigner next = signer;
      record.tag = next.append(record.mac_payload());
      auto committed = commit_log_record(*coordination, record, next);
      delay += committed.delay;
      if (!committed.value.ok()) {
        // Coordination is flaky right now; the intent stays pending and the
        // slot stays reserved so the next replay can finish the roll-forward.
        ++report.deferred;
        report.next_seq = std::max(report.next_seq, record.seq + 1);
        continue;
      }
      signer = std::move(next);
      committed_seqs.insert(record.seq);
      auto cleared = journal.clear(record.seq);
      delay += cleared.delay;
      ++report.adopted;
      report.next_seq = std::max(report.next_seq, record.seq + 1);
      continue;
    }
    if (payload.value.ok() || is_retryable(payload.value.code())) {
      // Readable-but-wrong bytes (torn write racing a crash) or unreachable
      // clouds: neither adoptable nor provably absent. Keep the intent,
      // skip the slot, and force the next write of the path whole-file.
      ++report.deferred;
      report.next_seq = std::max(report.next_seq, intent.seq + 1);
      report.divergent_paths.insert(intent.path);
      continue;
    }

    // Nothing durable: roll back.
    const bool pristine = probe_pristine(intent);
    auto cleared = journal.clear(intent.seq);
    delay += cleared.delay;
    ++report.discarded;
    report.divergent_paths.insert(intent.path);
    if (!pristine) report.next_seq = std::max(report.next_seq, intent.seq + 1);
  }

  reg.counter("journal.replay.committed").add(report.committed);
  reg.counter("journal.replay.adopted").add(report.adopted);
  reg.counter("journal.replay.discarded").add(report.discarded);
  reg.counter("journal.replay.deferred").add(report.deferred);
  report.next_seq = std::max(report.next_seq, static_cast<std::uint64_t>(signer.count()));
  return {std::move(report), delay};
}

}  // namespace rockfs::core
