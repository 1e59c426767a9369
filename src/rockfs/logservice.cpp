#include "rockfs/logservice.h"

#include <algorithm>
#include <cstdio>

#include "common/compress.h"
#include "common/hex.h"
#include "common/logging.h"
#include "crypto/sha256.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rockfs/journal.h"

namespace rockfs::core {

namespace {
constexpr const char* kRecordTag = "rocklog";
constexpr const char* kAggregateTag = "rockagg";

coord::Template aggregate_pattern(const std::string& user) {
  return coord::Template::of({kAggregateTag, user, "*", "*", "*"});
}
}  // namespace

std::string padded_seq(std::uint64_t seq) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%012llu", static_cast<unsigned long long>(seq));
  return buf;
}

namespace {

// Client-side delta computation throughput. The paper's client is a 1-vCPU
// VM and §6.1 attributes the logging overhead primarily to "the time for the
// RockFS agent to compute the log entry (differences between versions)";
// JBDiff-class binary diffing runs at a few tens of MB/s on such a machine.
constexpr double kDiffBytesPerSec = 25e6;

sim::SimClock::Micros diff_compute_us(std::size_t old_size, std::size_t new_size) {
  return 1'000 + static_cast<sim::SimClock::Micros>(
                     1e6 * static_cast<double>(old_size + new_size) / kDiffBytesPerSec);
}
}  // namespace

Bytes LogRecord::mac_payload() const {
  Bytes out;
  append_u64(out, seq);
  append_lp(out, to_bytes(user));
  append_lp(out, to_bytes(path));
  append_u64(out, version);
  append_lp(out, to_bytes(op));
  out.push_back(whole_file ? 1 : 0);
  append_u64(out, payload_size);
  append_lp(out, payload_hash);
  append_u64(out, static_cast<std::uint64_t>(timestamp_us));
  append_u64(out, epoch);
  return out;
}

coord::Tuple LogRecord::tuple_head(const char* tag) const {
  return {tag,
          user,
          padded_seq(seq),
          path,
          std::to_string(version),
          op,
          whole_file ? "1" : "0",
          std::to_string(payload_size),
          hex_encode(payload_hash),
          std::to_string(timestamp_us),
          std::to_string(epoch)};
}

LogRecord LogRecord::parse_tuple_head(const coord::Tuple& t) {
  LogRecord r;
  r.user = t[1];
  r.seq = std::stoull(t[2]);
  r.path = t[3];
  r.version = std::stoull(t[4]);
  r.op = t[5];
  r.whole_file = t[6] == "1";
  r.payload_size = std::stoull(t[7]);
  r.payload_hash = hex_decode(t[8]);
  r.timestamp_us = std::stoll(t[9]);
  r.epoch = std::stoull(t[10]);
  return r;
}

coord::Tuple LogRecord::to_tuple() const {
  coord::Tuple t = tuple_head(kRecordTag);
  t.push_back(hex_encode(tag.mac_a));
  t.push_back(hex_encode(tag.mac_b));
  return t;
}

Result<LogRecord> LogRecord::from_tuple(const coord::Tuple& t) {
  if (t.size() != 13 || t[0] != kRecordTag) {
    return Error{ErrorCode::kCorrupted, "log record: malformed tuple"};
  }
  try {
    LogRecord r = parse_tuple_head(t);
    r.tag.mac_a = hex_decode(t[11]);
    r.tag.mac_b = hex_decode(t[12]);
    return r;
  } catch (const std::exception& e) {
    return Error{ErrorCode::kCorrupted, std::string("log record: ") + e.what()};
  }
}

bool LogRecord::matches(BytesView payload) const {
  return payload.size() == payload_size && ct_equal(crypto::sha256(payload), payload_hash);
}

std::string LogRecord::data_unit() const {
  return "logs/" + user + "/e" + padded_seq(seq);
}

LogService::LogService(std::string user_id,
                       std::shared_ptr<depsky::DepSkyClient> storage,
                       std::vector<cloud::AccessToken> log_tokens,
                       std::shared_ptr<coord::CoordinationService> coordination,
                       sim::SimClockPtr clock, fssagg::FssAggSigner signer)
    : user_id_(std::move(user_id)),
      storage_(std::move(storage)),
      log_tokens_(std::move(log_tokens)),
      coordination_(std::move(coordination)),
      clock_(std::move(clock)),
      signer_(std::move(signer)) {
  next_seq_ = signer_.count();
}

LogService::~LogService() = default;

void LogService::attach_journal() {
  journal_ = std::make_unique<IntentJournal>(user_id_, coordination_);
}

Status LogService::stage(const std::string& path, const Bytes& old_content,
                         const Bytes& new_content, std::uint64_t version,
                         const std::string& op, std::uint64_t fence_epoch,
                         obs::Span& span, sim::SimClock::Micros* delay, Prepared& out) {
  *delay += diff_compute_us(old_content.size(), new_content.size());

  // 1. ld_fu: delta between versions, or the whole file when smaller (§3.2),
  // optionally LZ-compressed (§6.2 future work). A path marked divergent (a
  // crashed close may have left the cloud copy ahead of the log) is forced
  // whole-file so selective re-execution never needs the unlogged base.
  const bool force_whole = divergent_paths_.contains(path);
  const Bytes empty;
  const diff::LogDelta ld =
      diff::make_log_delta(force_whole ? empty : old_content, new_content);

  out = Prepared{};
  out.payload = wrap_log_payload(ld.serialize(), compress_);
  out.record.seq = next_seq_;
  out.record.user = user_id_;
  out.record.path = path;
  out.record.version = version;
  out.record.op = op;
  out.record.whole_file = ld.whole_file;
  out.record.payload_size = out.payload.size();
  out.record.payload_hash = crypto::sha256(out.payload);
  out.record.timestamp_us = clock_->now_us();
  out.record.fence_epoch = fence_epoch;
  out.record.epoch = fence_epoch == scfs::kNoFenceEpoch ? 0 : fence_epoch;
  out.valid = true;

  if (!journal_) return Status::Ok();
  auto recorded = journal_->record(out.record);
  *delay += recorded.delay;
  span.charge_child(static_cast<std::uint64_t>(recorded.delay));
  if (!recorded.value.ok()) return std::move(recorded.value);
  span.set_duration(static_cast<std::uint64_t>(*delay));
  maybe_crash(sim::CrashPoint::kAfterLogIntent);
  return Status::Ok();
}

sim::Timed<Status> LogService::journal_intent(const std::string& path,
                                              const Bytes& old_content,
                                              const Bytes& new_content,
                                              std::uint64_t version,
                                              const std::string& op,
                                              std::uint64_t fence_epoch) {
  if (!journal_) return {Status::Ok(), 0};
  // Own span: the close path charges this whole delay to its root, so a
  // child span must carry it — its exclusive time is the diff compute, the
  // nested coord.op covers the journal record round.
  obs::Span span = obs::tracer().span("log.intent");
  sim::SimClock::Micros delay = 0;
  Status staged =
      stage(path, old_content, new_content, version, op, fence_epoch, span, &delay, prepared_);
  if (!staged.ok()) {
    prepared_ = Prepared{};
    span.set_duration(static_cast<std::uint64_t>(delay));
    span.set_outcome(staged.code());
  }
  return {std::move(staged), delay};
}

sim::Timed<Status> LogService::append(const std::string& path, const Bytes& old_content,
                                      const Bytes& new_content, std::uint64_t version,
                                      const std::string& op,
                                      std::uint64_t fence_epoch) {
  obs::Span span = obs::tracer().span("log.append");
  sim::SimClock::Micros delay = 0;
  auto& reg = obs::metrics();
  const auto fail = [&](Status st) -> sim::Timed<Status> {
    span.set_duration(static_cast<std::uint64_t>(delay));
    span.set_outcome(st.code());
    reg.counter("log.append.errors").add();
    return {std::move(st), delay};
  };

  // 0. Reuse the intent journaled by the close path when it matches this
  // append; otherwise stage it inline — the unlink path, the recovery
  // admin's chain and the rotation record land here.
  Prepared prepared;
  if (prepared_.valid && prepared_.record.path == path &&
      prepared_.record.version == version && prepared_.record.op == op &&
      prepared_.record.fence_epoch == fence_epoch) {
    prepared = std::move(prepared_);
    prepared_ = Prepared{};
  } else if (Status staged = stage(path, old_content, new_content, version, op, fence_epoch,
                                   span, &delay, prepared);
             !staged.ok()) {
    return fail(std::move(staged));
  }
  LogRecord& record = prepared.record;
  const Bytes& payload = prepared.payload;

  // A fenced append comes from an evicted session: the intent goes, and the
  // path may now be ahead of the log in the cloud, so its next append logs a
  // whole-file entry.
  const auto fenced = [&](Status st) -> sim::Timed<Status> {
    mark_divergent(path);
    if (journal_) {
      auto cleared = journal_->clear(record.seq);
      delay += cleared.delay;
    }
    reg.counter("log.append.fenced").add();
    span.set_duration(static_cast<std::uint64_t>(delay));
    span.set_outcome(ErrorCode::kFenced);
    return {std::move(st), delay};
  };
  // One read settles whether the slot already holds this entry's payload.
  const auto slot_holds_payload = [&] {
    auto existing = storage_->read(log_tokens_, record.data_unit());
    delay += existing.delay;
    span.charge_child(static_cast<std::uint64_t>(existing.delay));
    return existing.value.ok() && record.matches(*existing.value);
  };

  // Fence pre-flight (scfs/lease.h): refuse a fenced append before any cloud
  // object exists — the slot stays pristine and reusable.
  auto preflight = scfs::check_fence(*coordination_, path, record.fence_epoch);
  delay += preflight.delay;
  span.charge_child(static_cast<std::uint64_t>(preflight.delay));
  if (preflight.value.code() == ErrorCode::kFenced) return fenced(std::move(preflight.value));
  if (!preflight.value.ok()) return fail(std::move(preflight.value));

  reg.counter("log.append.count").add();
  reg.counter("log.append.bytes").add(payload.size());
  span.set_bytes(payload.size());

  // 2+3+4. Encrypt with a fresh key, split the key, erasure-code, one share
  // per cloud — all supplied by DepSky CA — uploaded under t_l. A retry
  // after kPartialCommit knows the slot already holds the durable payload
  // and adopts it instead of re-writing into the append-only namespace.
  bool adopted = record.seq == pending_retry_seq_ && slot_holds_payload();
  if (!adopted) {
    auto upload = storage_->write(log_tokens_, record.data_unit(), payload);
    delay += upload.delay;
    span.charge_child(static_cast<std::uint64_t>(upload.delay));
    if (!upload.value.ok()) {
      // The write may have failed only at the metadata step while the entry
      // is in fact durable (e.g. a concurrent earlier attempt finished it).
      if (!slot_holds_payload()) return fail(std::move(upload.value));
      adopted = true;
    }
  }
  if (adopted) reg.counter("log.append.adopted").add();
  maybe_crash(sim::CrashPoint::kAfterLogPayloadPut);

  // Fence re-check: an eviction that lands while the payload uploads must
  // still keep the entry out of the chain. The payload is durable now, so
  // the slot cannot be reused (append-only namespace) — skip it; the audit
  // tolerates the gap.
  auto recheck = scfs::check_fence(*coordination_, path, record.fence_epoch);
  delay += recheck.delay;
  span.charge_child(static_cast<std::uint64_t>(recheck.delay));
  if (recheck.value.code() == ErrorCode::kFenced) {
    next_seq_ = record.seq + 1;
    pending_retry_seq_ = kNoPendingRetry;
    return fenced(std::move(recheck.value));
  }
  if (!recheck.value.ok()) {
    // Fail closed: the epoch cannot be proved fresh, so the entry must not
    // enter the chain. The payload is durable — remember the slot so the
    // caller's retry adopts it instead of re-uploading.
    pending_retry_seq_ = record.seq;
    return fail(std::move(recheck.value));
  }

  // 5. Seal the metadata into the forward-secure stream — on a SCRATCH
  // signer: the in-RAM chain state must not advance past what the
  // coordination service has committed, or a partial failure forks it.
  fssagg::FssAggSigner sealed = signer_;
  record.tag = sealed.append(record.mac_payload());

  // 6. lm_fu and the refreshed aggregates go to the coordination service;
  // the two tuple operations are processed in parallel by the service
  // (§6.1 optimization (1)).
  auto committed = commit_log_record(*coordination_, record, sealed, crash_.get());
  delay += committed.delay;
  span.charge_child(static_cast<std::uint64_t>(committed.delay));
  if (!committed.value.ok()) {
    // Payload durable, metadata not (fully) committed: remember the slot so
    // the caller's retry adopts it, and surface the distinct status.
    pending_retry_seq_ = record.seq;
    return fail(std::move(committed.value));
  }
  span.set_duration(static_cast<std::uint64_t>(delay));

  signer_ = std::move(sealed);
  next_seq_ = record.seq + 1;
  pending_retry_seq_ = kNoPendingRetry;
  divergent_paths_.erase(path);
  if (journal_) {
    // The intent is now redundant (the record tuple covers it). Clearing is
    // fire-and-forget background work: a failure only costs a no-op
    // "committed" classification at the next replay.
    auto cleared = journal_->clear(record.seq);
    (void)cleared;
  }
  return {Status::Ok(), delay};
}

sim::Timed<Status> store_aggregates(coord::CoordinationService& coord,
                                    const std::string& user,
                                    const fssagg::FssAggSigner& signer) {
  auto stored = coord.replace(aggregate_pattern(user),
                              {kAggregateTag, user, hex_encode(signer.aggregate_a()),
                               hex_encode(signer.aggregate_b()),
                               std::to_string(signer.count())});
  if (!stored.value.ok()) return {Status{stored.value.error()}, stored.delay};
  return {Status::Ok(), stored.delay};
}

sim::Timed<Status> commit_log_record(coord::CoordinationService& coord,
                                     const LogRecord& record,
                                     const fssagg::FssAggSigner& signer,
                                     sim::CrashSchedule* crash) {
  sim::SimClock::Micros coord_delay = 0;
  Status meta_status;
  Status agg_status;
  {
    obs::Span group = obs::tracer().span("log.coord", {.fanout = true});
    // Seq-keyed replace: re-committing the same record after a partial
    // failure rewrites the identical tuple instead of duplicating it.
    auto meta = coord.replace(
        coord::Template::of({kRecordTag, record.user, padded_seq(record.seq), "*", "*",
                             "*", "*", "*", "*", "*", "*", "*", "*"}),
        record.to_tuple());
    if (crash) crash->maybe_crash(sim::CrashPoint::kAfterMetaAppend);
    auto agg = store_aggregates(coord, record.user, signer);
    coord_delay = std::max(meta.delay, agg.delay);
    group.set_duration(static_cast<std::uint64_t>(coord_delay));
    if (!meta.value.ok()) meta_status = Status{meta.value.error()};
    agg_status = std::move(agg.value);
  }
  if (!meta_status.ok() || !agg_status.ok()) {
    const Status& cause = !meta_status.ok() ? meta_status : agg_status;
    return {Status{ErrorCode::kPartialCommit,
                   "log metadata commit incomplete: " + cause.error().message},
            coord_delay};
  }
  return {Status::Ok(), coord_delay};
}

Bytes wrap_log_payload(BytesView serialized_delta, bool try_compress) {
  if (try_compress) {
    const Bytes packed = lz_compress(serialized_delta);
    if (packed.size() < serialized_delta.size()) {
      Bytes out;
      out.reserve(1 + packed.size());
      out.push_back(1);
      append(out, packed);
      return out;
    }
  }
  Bytes out;
  out.reserve(1 + serialized_delta.size());
  out.push_back(0);
  append(out, serialized_delta);
  return out;
}

Result<Bytes> unwrap_log_payload(BytesView payload) {
  if (payload.empty()) return Error{ErrorCode::kCorrupted, "log payload: empty"};
  const BytesView body = payload.subspan(1);
  if (payload[0] == 0) return Bytes(body.begin(), body.end());
  if (payload[0] == 1) return lz_decompress(body);
  return Error{ErrorCode::kCorrupted, "log payload: unknown codec"};
}

sim::Timed<Result<StoredAggregates>> read_aggregates(coord::CoordinationService& coord,
                                                     const std::string& user) {
  auto r = coord.rdp(aggregate_pattern(user));
  if (!r.value.ok()) return {Error{r.value.error()}, r.delay};
  if (!r.value->has_value()) {
    return {Error{ErrorCode::kNotFound, "no aggregates for user " + user}, r.delay};
  }
  const coord::Tuple& t = **r.value;
  try {
    StoredAggregates out;
    out.agg_a = hex_decode(t.at(2));
    out.agg_b = hex_decode(t.at(3));
    out.count = std::stoull(t.at(4));
    return {std::move(out), r.delay};
  } catch (const std::exception& e) {
    return {Error{ErrorCode::kCorrupted, std::string("aggregates: ") + e.what()}, r.delay};
  }
}

std::unique_ptr<LogService> make_resumed_log_service(
    const std::string& user_id, std::shared_ptr<depsky::DepSkyClient> storage,
    std::vector<cloud::AccessToken> log_tokens,
    std::shared_ptr<coord::CoordinationService> coordination, sim::SimClockPtr clock,
    const fssagg::FssAggKeys& initial_keys, const LogServiceOptions& options) {
  auto existing = read_aggregates(*coordination, user_id);
  clock->advance_us(existing.delay);

  fssagg::FssAggSigner signer = [&] {
    if (existing.value.ok() && existing.value->count > options.key_base_count) {
      fssagg::FssAggKeys current = initial_keys;
      // The keys became the stream at entry key_base_count (0 for setup keys,
      // the rotation index for post-rotation keystores); evolve them to the
      // stored entry count.
      for (std::uint64_t i = options.key_base_count; i < existing.value->count; ++i) {
        current.a1 = fssagg::fssagg_evolve_key(current.a1);
        current.b1 = fssagg::fssagg_evolve_key(current.b1);
      }
      return fssagg::FssAggSigner(std::move(current), existing.value->agg_a,
                                  existing.value->agg_b,
                                  static_cast<std::size_t>(existing.value->count));
    }
    if (existing.value.ok() && existing.value->count == options.key_base_count &&
        options.key_base_count > 0) {
      // Rotated keystore resuming exactly at the rotation boundary: keys are
      // current as-is, only the aggregates are adopted.
      return fssagg::FssAggSigner(initial_keys, existing.value->agg_a,
                                  existing.value->agg_b,
                                  static_cast<std::size_t>(existing.value->count));
    }
    return fssagg::FssAggSigner(initial_keys);
  }();

  std::uint64_t next_seq = signer.count();
  std::set<std::string> divergent;
  if (options.enable_journal) {
    auto replay =
        replay_intent_journal(user_id, storage, log_tokens, coordination, signer);
    clock->advance_us(replay.delay);
    if (replay.value.ok()) {
      next_seq = std::max(next_seq, replay.value->next_seq);
      divergent = std::move(replay.value->divergent_paths);
    } else {
      // A failed replay leaves the intents pending for the next login; the
      // chain itself is still consistent at the resumed count.
      LOG_WARN("journal replay failed for " << user_id << ": "
                                            << replay.value.error().message);
    }
  }

  auto service = std::make_unique<LogService>(user_id, std::move(storage),
                                              std::move(log_tokens),
                                              std::move(coordination), std::move(clock),
                                              std::move(signer));
  service->set_next_seq(next_seq);
  for (const auto& p : divergent) service->mark_divergent(p);
  if (options.enable_journal) service->attach_journal();
  service->set_crash_schedule(options.crash);
  return service;
}

sim::Timed<Result<std::vector<coord::Tuple>>> read_log_tuples(
    coord::CoordinationService& coord, const std::string& user) {
  return coord.rdall(coord::Template::of(
      {kRecordTag, user, "*", "*", "*", "*", "*", "*", "*", "*", "*", "*", "*"}));
}

Result<std::vector<LogRecord>> decode_log_records(const std::vector<coord::Tuple>& tuples) {
  std::vector<LogRecord> records;
  records.reserve(tuples.size());
  for (const auto& t : tuples) {
    auto r = LogRecord::from_tuple(t);
    if (!r.ok()) return Error{r.error()};
    records.push_back(std::move(*r));
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const LogRecord& a, const LogRecord& b) { return a.seq < b.seq; });
  return records;
}

sim::Timed<Result<std::vector<LogRecord>>> read_log_records(
    coord::CoordinationService& coord, const std::string& user) {
  auto tuples = read_log_tuples(coord, user);
  if (!tuples.value.ok()) return {Error{tuples.value.error()}, tuples.delay};
  return {decode_log_records(*tuples.value), tuples.delay};
}

}  // namespace rockfs::core
