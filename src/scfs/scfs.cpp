#include "scfs/scfs.h"

#include <algorithm>

#include "common/logging.h"
#include "obs/trace.h"

namespace rockfs::scfs {

namespace {

constexpr const char* kInodeTag = "scfs-inode";

// Local client-side costs (charged in both modes).
constexpr std::int64_t kLocalOpCostUs = 1'500;     // syscall + agent bookkeeping
constexpr double kLocalDiskBytesPerSec = 150e6;    // cache (SSD) throughput

Result<FileStat> parse_inode(const coord::Tuple& t) {
  if (t.size() != 7 || t[0] != kInodeTag) {
    return Error{ErrorCode::kCorrupted, "scfs: malformed inode tuple"};
  }
  FileStat s;
  s.path = t[1];
  try {
    s.version = std::stoull(t[2]);
    s.size = std::stoull(t[3]);
    s.owner = t[4];
    s.modified_us = std::stoll(t[5]);
    s.epoch = std::stoull(t[6]);
  } catch (const std::exception&) {
    return Error{ErrorCode::kCorrupted, "scfs: malformed inode fields"};
  }
  return s;
}

/// Identity cache transform: what stock SCFS does (plaintext cache on disk).
class PassthroughTransform final : public CacheTransform {
 public:
  Bytes protect(const std::string&, std::uint64_t, BytesView plaintext) override {
    return Bytes(plaintext.begin(), plaintext.end());
  }
  Result<Bytes> unprotect(const std::string&, std::uint64_t, BytesView cached) override {
    return Bytes(cached.begin(), cached.end());
  }
};

}  // namespace

coord::Tuple inode_tuple(const FileStat& s) {
  return {kInodeTag,          s.path, std::to_string(s.version), std::to_string(s.size),
          s.owner,            std::to_string(s.modified_us),
          std::to_string(s.epoch)};
}

coord::Template inode_pattern(const std::string& path) {
  return coord::Template::of({kInodeTag, path, "*", "*", "*", "*", "*"});
}

// One shared unit per path: file tokens are namespace-scoped, not
// user-prefix-bound, so cross-user reads and writes authorize; DepSky
// readers trust the writer roster.
std::string file_unit(const std::string& path) { return "files" + path; }

Scfs::Scfs(std::shared_ptr<depsky::DepSkyClient> storage,
           std::vector<cloud::AccessToken> storage_tokens,
           std::shared_ptr<coord::CoordinationService> coordination, sim::SimClockPtr clock,
           ScfsOptions options)
    : storage_(std::move(storage)),
      storage_tokens_(std::move(storage_tokens)),
      coordination_(std::move(coordination)),
      clock_(std::move(clock)),
      options_(std::move(options)),
      transform_(std::make_shared<PassthroughTransform>()),
      cache_(options_.cache),
      wb_(options_.write_back) {
  auto& reg = obs::metrics();
  close_count_ = &reg.counter("scfs.close.count");
  close_bytes_ = &reg.counter("scfs.close.bytes");
  close_errors_ = &reg.counter("scfs.close.errors");
  close_fenced_ = &reg.counter("scfs.close.fenced");
  close_delay_us_ = &reg.histogram("scfs.close.delay_us");
  data_hits_ = &reg.counter("cache.data.hits");
  data_misses_ = &reg.counter("cache.data.misses");
  unseal_fails_ = &reg.counter("cache.data.unseal_fail");
  meta_hits_ = &reg.counter("cache.meta.hits");
  meta_misses_ = &reg.counter("cache.meta.misses");
  negative_hits_ = &reg.counter("cache.negative.hits");
  wb_dirty_serves_ = &reg.counter("cache.wb.dirty_serves");
  wb_flushes_ = &reg.counter("cache.wb.flushes");
  wb_flush_bytes_ = &reg.counter("cache.wb.flush_bytes");
  wb_fenced_ = &reg.counter("cache.wb.fenced");
  wb_flush_errors_ = &reg.counter("cache.wb.flush_errors");
  open_hit_us_ = &reg.histogram("cache.open.hit_us");
  open_miss_us_ = &reg.histogram("cache.open.miss_us");
}

void Scfs::set_cache_transform(std::shared_ptr<CacheTransform> transform,
                               bool drop_entries) {
  transform_ = std::move(transform);
  // By default old representations are assumed unreadable under the new
  // transform and dropped. Agents re-installing a transform keyed by the
  // same session-key lineage keep the shared cache warm instead: an entry
  // the (possibly rotated) key cannot unseal fails open and is refetched.
  if (drop_entries && cache_) cache_->drop_all();
}

void Scfs::set_close_interceptor(CloseInterceptor interceptor) {
  interceptor_ = std::move(interceptor);
}

void Scfs::set_close_intent_hook(CloseInterceptor hook) {
  intent_hook_ = std::move(hook);
}

void Scfs::clear_cache() {
  if (cache_) cache_->drop_all();
}

std::optional<Bytes> Scfs::cached_raw(const std::string& path) const {
  if (!cache_) return std::nullopt;
  return cache_->peek_raw(path);
}

void Scfs::poke_cache(const std::string& path, Bytes raw) {
  if (cache_) cache_->poke_raw(path, std::move(raw));
}

sim::SimClock::Micros Scfs::local_cost(std::size_t bytes) const {
  const double transfer_us = 1e6 * static_cast<double>(bytes) / kLocalDiskBytesPerSec;
  return kLocalOpCostUs + static_cast<sim::SimClock::Micros>(transfer_us);
}

bool Scfs::is_open_path(const std::string& path) const {
  for (const auto& [fd, of] : open_files_) {
    if (of.path == path) return true;
  }
  return false;
}

Result<FileStat> Scfs::stat_nocharge(const std::string& path,
                                     sim::SimClock::Micros* delay) {
  // Dirty overlay: a staged write-back is this client's freshest view of
  // the path (read-your-writes — without it, a read_file between a staged
  // close and its flush would truncate to the committed size).
  if (wb_.enabled()) {
    if (auto staged = wb_.snapshot(path)) {
      FileStat s;
      s.path = path;
      s.version = staged->base_version;  // committed version underneath
      s.size = staged->content.size();
      s.owner = options_.user_id;
      s.modified_us = staged->first_dirty_us;
      s.epoch = staged->stamp_epoch;
      return s;
    }
  }
  if (cache_) {
    // Lease-validated fast path (§13.2): an entry filled while holding the
    // SAME lease epoch we still hold cannot be stale — no locking writer
    // can commit past a live lease — so it serves with zero remote rounds.
    // (Advisory non-locking writers bypass leases by design; coherence is
    // guaranteed among locking clients, the SCFS contract.)
    if (const auto held = held_leases_.find(path); held != held_leases_.end()) {
      if (auto m = cache_->get_meta(path);
          m.has_value() && m->lease_epoch == held->second) {
        meta_hits_->add();
        FileStat s;
        s.path = path;
        s.version = m->version;
        s.size = m->size;
        s.owner = m->owner;
        s.modified_us = m->modified_us;
        s.epoch = m->file_epoch;
        return s;
      }
    }
    if (cache_->is_negative(path, clock_->now_us())) {
      negative_hits_->add();
      return Error{ErrorCode::kNotFound, "scfs: no such file: " + path};
    }
  }
  auto r = coordination_->rdp(inode_pattern(path));
  if (delay != nullptr) *delay += r.delay;
  if (!r.value.ok()) return Error{r.value.error()};
  if (!r.value->has_value()) {
    if (cache_) cache_->note_missing(path, clock_->now_us());
    return Error{ErrorCode::kNotFound, "scfs: no such file: " + path};
  }
  auto st = parse_inode(**r.value);
  if (st.ok() && cache_) {
    cache_->clear_negative(path);  // a live tuple kills any cached miss
    cache::MetaEntry m;
    m.version = st->version;
    m.size = st->size;
    m.owner = st->owner;
    m.modified_us = st->modified_us;
    m.file_epoch = st->epoch;
    if (const auto held = held_leases_.find(path); held != held_leases_.end()) {
      m.lease_epoch = held->second;
    }
    cache_->put_meta(path, m);
    meta_misses_->add();
  }
  return st;
}

Result<Scfs::Fd> Scfs::create(const std::string& path) {
  maybe_flush_due();
  sim::SimClock::Micros delay = local_cost(0);
  FileStat s;
  s.path = path;
  s.version = 0;  // becomes 1 at first close
  s.size = 0;
  s.owner = options_.user_id;
  s.modified_us = clock_->now_us();
  s.epoch = 0;
  auto cas = coordination_->cas(inode_pattern(path), inode_tuple(s));
  delay += cas.delay;
  clock_->advance_us(delay);
  if (!cas.value.ok()) return Error{cas.value.error()};
  // Either CAS outcome observed the namespace: the path now exists (we made
  // it) or a tuple already did — a cached kNotFound is invalid both ways,
  // so a create-after-miss can never be answered kNotFound from cache.
  if (cache_) cache_->clear_negative(path);
  if (!*cas.value) {
    return Error{ErrorCode::kConflict, "scfs: file exists: " + path};
  }
  OpenFile of;
  of.path = path;
  of.version = 0;
  of.base_owner = options_.user_id;
  of.dirty = true;  // even an empty create syncs on close
  of.created = true;
  const Fd fd = next_fd_++;
  open_files_[fd] = std::move(of);
  return fd;
}

Result<Scfs::Fd> Scfs::open(const std::string& path) {
  maybe_flush_due();
  sim::SimClock::Micros delay = local_cost(0);

  // Read-your-writes: serve the staged write-back content directly. The
  // open's version stays the committed base — the eventual flush commits
  // base_version + 1 no matter how many closes coalesced into the entry.
  if (wb_.enabled()) {
    if (auto staged = wb_.snapshot(path)) {
      OpenFile of;
      of.path = path;
      of.content = std::move(staged->content);
      of.version = staged->base_version;
      of.epoch = staged->stamp_epoch;
      of.base_owner = options_.user_id;
      delay += local_cost(of.content.size());
      of.original = of.content;
      clock_->advance_us(delay);
      wb_dirty_serves_->add();
      open_hit_us_->record(static_cast<std::uint64_t>(delay));
      const Fd fd = next_fd_++;
      open_files_[fd] = std::move(of);
      return fd;
    }
  }

  auto st = stat_nocharge(path, &delay);
  if (!st.ok()) {
    clock_->advance_us(delay);
    return Error{st.error()};
  }

  OpenFile of;
  of.path = path;
  of.version = st->version;
  of.epoch = st->epoch;
  of.base_owner = st->owner;

  bool loaded = false;
  bool fetched_remote = false;
  if (cache_) {
    if (auto entry = cache_->get_data(path)) {
      if (entry->version == st->version) {
        delay += local_cost(entry->raw->size());
        auto plain = transform_->unprotect(path, st->version, *entry->raw);
        if (plain.ok()) {
          of.content = std::move(*plain);
          loaded = true;
          data_hits_->add();
        } else {
          // Tampered or stale cache: discard and fall through to a cloud
          // fetch (the §4.2.2 integrity path).
          LOG_WARN("scfs: cache integrity failure for " << path << ", refetching");
          cache_->erase_data(path);
          unseal_fails_->add();
        }
      } else {
        cache_->erase_data(path);  // superseded by a newer committed version
      }
    }
  }
  if (!loaded && st->version > 0) {
    auto fetched = storage_->read(storage_tokens_, file_unit(path));
    delay += fetched.delay;
    if (!fetched.value.ok()) {
      clock_->advance_us(delay);
      return Error{fetched.value.error()};
    }
    of.content = std::move(*fetched.value);
    if (cache_) {
      delay += local_cost(of.content.size());
      cache_->put_data(path, transform_->protect(path, st->version, of.content),
                       st->version);
    }
    data_misses_->add();
    fetched_remote = true;
  }
  of.original = of.content;
  clock_->advance_us(delay);
  if (st->version > 0) {
    (fetched_remote ? open_miss_us_ : open_hit_us_)
        ->record(static_cast<std::uint64_t>(delay));
  }
  const Fd fd = next_fd_++;
  open_files_[fd] = std::move(of);
  return fd;
}

Result<Bytes> Scfs::read(Fd fd, std::size_t offset, std::size_t length) {
  const auto it = open_files_.find(fd);
  if (it == open_files_.end()) return Error{ErrorCode::kInvalidArgument, "scfs: bad fd"};
  const Bytes& c = it->second.content;
  if (offset >= c.size()) return Bytes{};
  const std::size_t take = std::min(length, c.size() - offset);
  clock_->advance_us(local_cost(take) - kLocalOpCostUs + kLocalOpCostUs / 8);
  return Bytes(c.begin() + static_cast<std::ptrdiff_t>(offset),
               c.begin() + static_cast<std::ptrdiff_t>(offset + take));
}

Status Scfs::write(Fd fd, std::size_t offset, BytesView data) {
  const auto it = open_files_.find(fd);
  if (it == open_files_.end()) return {ErrorCode::kInvalidArgument, "scfs: bad fd"};
  Bytes& c = it->second.content;
  if (offset + data.size() > c.size()) c.resize(offset + data.size());
  std::copy(data.begin(), data.end(), c.begin() + static_cast<std::ptrdiff_t>(offset));
  it->second.dirty = true;
  clock_->advance_us(local_cost(data.size()) - kLocalOpCostUs + kLocalOpCostUs / 8);
  return {};
}

Status Scfs::append(Fd fd, BytesView data) {
  const auto it = open_files_.find(fd);
  if (it == open_files_.end()) return {ErrorCode::kInvalidArgument, "scfs: bad fd"};
  return write(fd, it->second.content.size(), data);
}

Status Scfs::truncate(Fd fd, std::size_t new_size) {
  const auto it = open_files_.find(fd);
  if (it == open_files_.end()) return {ErrorCode::kInvalidArgument, "scfs: bad fd"};
  it->second.content.resize(new_size);
  it->second.dirty = true;
  clock_->advance_us(kLocalOpCostUs / 8);
  return {};
}

Scfs::CommitResult Scfs::commit_job(const CommitJob& job, obs::Span& span) {
  CommitResult r;

  if (crash_) crash_->maybe_crash(sim::CrashPoint::kBeforeFilePut);

  // Local work: agent bookkeeping + write-through of the (transformed) cache.
  r.local = local_cost(job.content.size());

  // Fencing pre-flight: refuse before ANY cloud object of this commit exists
  // when the lease epoch already moved past this writer. A hang at the crash
  // point above models exactly the stall (GC pause, partition) after which
  // an evicted client would otherwise clobber its successor. A failed fence
  // read is not a license to commit blind; the commit-side check (log append
  // / pre-inode) settles it.
  auto preflight = check_fence(*coordination_, job.path, job.write_epoch);
  r.local += preflight.delay;
  span.charge_child(static_cast<std::uint64_t>(preflight.delay));
  if (preflight.value.code() == ErrorCode::kFenced) {
    close_fenced_->add();
    r.status = std::move(preflight.value);
    return r;
  }

  if (cache_) {
    cache_->put_data(job.path,
                     transform_->protect(job.path, job.new_version, job.content),
                     job.new_version);
  }

  // Write-ahead intent (RockFS crash consistency): persisted before ANY
  // cloud object of this commit exists, serialized ahead of the pipeline.
  if (intent_hook_) {
    auto intent =
        intent_hook_(job.path, job.log_base, job.content, job.new_version, job.write_epoch);
    span.charge_child(static_cast<std::uint64_t>(intent.delay));
    r.local += intent.delay;  // serialized ahead of the parallel pipelines
    if (!intent.value.ok()) {
      r.status = std::move(intent.value);
      return r;
    }
  }

  // The upload pipeline: file upload and the interceptor's pipeline (RockFS
  // logging) run in parallel; the metadata tuple update must come after both
  // (§2.5 ordering). The fanout group's duration is the composed pipeline
  // delay; the overlapping children inside it are excluded from exclusive-
  // time sums.
  obs::Span pipeline_span = obs::tracer().span("scfs.upload_pipeline", {.fanout = true});
  auto file_up = storage_->write(storage_tokens_, file_unit(job.path), job.content);
  if (!file_up.value.ok()) {
    pipeline_span.set_duration(static_cast<std::uint64_t>(file_up.delay));
    pipeline_span.set_outcome(file_up.value.code());
    pipeline_span.finish();
    span.charge_child(static_cast<std::uint64_t>(file_up.delay));
    r.pipeline = file_up.delay;
    r.status = Status{file_up.value.error()};
    return r;
  }
  if (crash_) crash_->maybe_crash(sim::CrashPoint::kAfterFilePut);
  r.pipeline = file_up.delay;
  Status commit_status;
  if (interceptor_) {
    auto extra = interceptor_(job.path, job.log_base, job.content, job.new_version,
                              job.write_epoch);
    commit_status = std::move(extra.value);
    // File and log pipelines run in parallel (§6.1 optimization (2)) but
    // their transfers contend for the client uplink.
    const auto shorter = std::min(r.pipeline, extra.delay);
    r.pipeline = std::max(r.pipeline, extra.delay) +
                 static_cast<sim::SimClock::Micros>(kUplinkContention *
                                                    static_cast<double>(shorter));
  } else {
    // No log pipeline to carry the commit-side fence check: do it here,
    // after the crash point above (whose hang is the eviction window),
    // before the inode moves. Its delay rides r.pipeline, which the span
    // charges once below.
    auto fence = check_fence(*coordination_, job.path, job.write_epoch);
    r.pipeline += fence.delay;  // serialized after the upload
    commit_status = std::move(fence.value);
  }
  pipeline_span.set_duration(static_cast<std::uint64_t>(r.pipeline));
  pipeline_span.finish();
  span.charge_child(static_cast<std::uint64_t>(r.pipeline));

  // A fenced commit must NOT move the inode: the file's authoritative
  // version and its log chain stay un-forked, and the uploaded object is
  // superseded garbage the next committed write buries. Without a log
  // pipeline any failed check refuses too (fail closed: an unreadable lease
  // cannot prove the epoch still admits this writer); a log error is
  // otherwise non-fatal.
  if (commit_status.code() == ErrorCode::kFenced || (!interceptor_ && !commit_status.ok())) {
    if (commit_status.code() == ErrorCode::kFenced) close_fenced_->add();
    r.status = std::move(commit_status);
    return r;
  }

  FileStat s;
  s.path = job.path;
  s.version = job.new_version;
  s.size = job.content.size();
  s.owner = options_.user_id;
  s.modified_us = clock_->now_us();
  s.epoch = job.write_epoch;
  auto meta = coordination_->replace(inode_pattern(job.path), inode_tuple(s));
  span.charge_child(static_cast<std::uint64_t>(meta.delay));
  r.meta = meta.delay;
  if (!meta.value.ok()) {
    r.status = Status{meta.value.error()};
    return r;
  }
  r.committed = true;
  r.status = std::move(commit_status);  // may carry a non-fatal log error

  if (cache_) {
    // The committed write is the freshest head version this client can know:
    // refresh the metadata tier (anchored to the held lease epoch, if any)
    // and kill any cached miss.
    cache::MetaEntry m;
    m.version = s.version;
    m.size = s.size;
    m.owner = s.owner;
    m.modified_us = s.modified_us;
    m.file_epoch = s.epoch;
    if (const auto held = held_leases_.find(job.path); held != held_leases_.end()) {
      m.lease_epoch = held->second;
    }
    cache_->put_meta(job.path, m);
    cache_->clear_negative(job.path);
  }
  return r;
}

sim::Timed<Status> Scfs::close_timed(Fd fd) {
  const auto it = open_files_.find(fd);
  if (it == open_files_.end()) {
    return {Status{ErrorCode::kInvalidArgument, "scfs: bad fd"}, 0};
  }
  OpenFile of = std::move(it->second);
  open_files_.erase(it);

  const sim::SimClock::Micros start_us = clock_->now_us();

  // Root span of the write path; every layer below (log append, DepSky
  // write, per-cloud puts, coordination rounds) nests under it. The span
  // follows the charging discipline in obs/trace.h so its subtree's
  // exclusive times sum back to the headline close() latency.
  obs::Span span = obs::tracer().span("scfs.close");
  const auto observe = [&](sim::SimClock::Micros delay, ErrorCode code) {
    span.set_duration(static_cast<std::uint64_t>(delay));
    span.set_outcome(code);
    close_count_->add();
    if (code != ErrorCode::kOk) close_errors_->add();
    close_delay_us_->record(static_cast<std::uint64_t>(delay));
  };

  if (!of.dirty) {
    const auto local = local_cost(0);
    clock_->advance_us(local);
    observe(local, ErrorCode::kOk);
    return {Status::Ok(), local};
  }

  const std::uint64_t new_version = of.version + 1;
  span.set_bytes(of.content.size());
  close_bytes_->add(of.content.size());

  // Fencing epoch of this write: the held lease's epoch when the caller
  // locked the path, else the epoch observed at open (an advisory writer
  // stays fenceable once the path has ever been locked).
  std::uint64_t write_epoch = of.epoch;
  if (const auto held = held_leases_.find(of.path); held != held_leases_.end()) {
    write_epoch = held->second;
  }

  // Cross-user base: the version we opened was written by someone else,
  // whose chain logged it — OUR chain has never seen those bytes. Hand the
  // log hooks an empty base so this entry is whole-file: every user's
  // surviving entries then re-execute without needing another user's
  // (possibly dropped) deltas.
  Bytes log_base = (!of.base_owner.empty() && of.base_owner != options_.user_id)
                       ? Bytes{}
                       : std::move(of.original);

  if (wb_.enabled()) {
    // Stage-and-return: the commit pipeline (intent → uploads → inode) runs
    // at the next flush trigger instead, coalescing with any later closes
    // of the path. The base side freezes at the FIRST staging; a dirty-open
    // re-close only replaces the content (writeback.h).
    cache::DirtyEntry entry;
    entry.content = of.content;
    entry.log_base = std::move(log_base);
    entry.base_version = of.version;
    entry.write_epoch = write_epoch;
    entry.stamp_epoch = of.epoch;
    entry.first_dirty_us = clock_->now_us();
    wb_.stage(of.path, std::move(entry));
    const auto local = local_cost(of.content.size());
    clock_->advance_us(local);
    observe(local, ErrorCode::kOk);
    span.finish();
    if (wb_.over_cap()) {
      // Dirty-bytes high-water mark: drain synchronously in sorted order.
      // The drain charges the clock but not this close's reported latency —
      // the cap bounds RAM and the crash-loss window, not the fast path.
      for (const auto& p : wb_.paths()) {
        if (is_open_path(p)) continue;
        (void)flush_path(p);
      }
    }
    return {Status::Ok(), local};
  }

  CommitJob job;
  job.path = of.path;
  job.log_base = std::move(log_base);
  job.content = std::move(of.content);
  job.new_version = new_version;
  job.write_epoch = write_epoch;
  auto r = commit_job(job, span);

  if (!r.committed) {
    const auto total = r.local + r.pipeline + r.meta;
    clock_->advance_us(total);
    observe(total, r.status.code());
    return {std::move(r.status), total};
  }
  const sim::SimClock::Micros recorded = r.pipeline + r.meta;

  if (options_.sync_mode == SyncMode::kBlocking) {
    // Blocking: the caller waits for upload + metadata, plus a final
    // confirmation round with the coordination service (sync barrier).
    auto barrier = coordination_->count(inode_pattern(job.path));
    span.charge_child(static_cast<std::uint64_t>(barrier.delay));
    const auto total = r.local + recorded + barrier.delay;
    clock_->advance_us(total);
    observe(total, r.status.code());
    return {std::move(r.status), total};
  }

  // Non-blocking: the caller only pays the local cost now; the upload joins
  // the background pipeline, which drains one transfer at a time (the client
  // uplink is shared). The reported delay is the Fig. 5 metric: when the
  // coordination service has recorded this operation. The span's exclusive
  // time therefore covers local work plus queueing behind earlier uploads.
  clock_->advance_us(r.local);
  const sim::SimClock::Micros begin = std::max(clock_->now_us(), bg_complete_us_);
  bg_complete_us_ = begin + recorded;
  const auto reported = bg_complete_us_ - start_us;
  observe(reported, r.status.code());
  return {std::move(r.status), reported};
}

Status Scfs::close(Fd fd) { return close_timed(fd).value; }

Status Scfs::flush_path(const std::string& path) {
  auto entry = wb_.take(path);
  if (!entry) return {};

  obs::Span span = obs::tracer().span("scfs.wb.flush");
  span.set_bytes(entry->content.size());
  CommitJob job;
  job.path = path;
  job.log_base = entry->log_base;
  job.content = entry->content;
  job.new_version = entry->base_version + 1;
  job.write_epoch = entry->write_epoch;
  auto r = commit_job(job, span);
  const auto total = r.local + r.pipeline + r.meta;
  clock_->advance_us(total);
  span.set_duration(static_cast<std::uint64_t>(total));
  span.set_outcome(r.status.code());
  wb_flushes_->add();
  wb_flush_bytes_->add(entry->content.size());

  if (r.status.code() == ErrorCode::kFenced) {
    // Never serve a fenced writer's dirty entry: the staged bytes die here,
    // and every cache tier for the path is dropped (including the
    // optimistically sealed new_version the pipeline wrote before fencing).
    wb_fenced_->add();
    if (cache_) cache_->invalidate(path);
    return std::move(r.status);
  }
  if (!r.committed && !r.status.ok()) {
    // Transient failure (cloud/coordination outage): keep the data — the
    // entry re-stages and the next flush trigger retries the commit.
    wb_flush_errors_->add();
    wb_.restage(path, std::move(*entry));
    return std::move(r.status);
  }
  return std::move(r.status);
}

Status Scfs::flush(const std::string& path) {
  if (!wb_.enabled()) return {};
  return flush_path(path);
}

Status Scfs::flush_all() {
  if (!wb_.enabled()) return {};
  Status first;
  for (const auto& path : wb_.paths()) {
    auto st = flush_path(path);
    if (!st.ok() && first.ok()) first = std::move(st);
  }
  return first;
}

std::size_t Scfs::discard_dirty() { return wb_.discard_all(); }

void Scfs::maybe_flush_due() {
  if (!wb_.enabled()) return;
  for (const auto& path : wb_.due_paths(clock_->now_us())) {
    // A path with a live fd defers: flushing under an open file would let
    // the staged base advance beneath it and double-commit the version.
    if (is_open_path(path)) continue;
    (void)flush_path(path);  // outcomes land in the wb counters
  }
}

void Scfs::drain_background() {
  if (wb_.enabled()) (void)flush_all();
  if (bg_complete_us_ > clock_->now_us()) {
    clock_->advance_us(bg_complete_us_ - clock_->now_us());
  }
}

Status Scfs::unlink(const std::string& path) {
  // A staged write to a path being deleted is superseded by the delete:
  // discard it rather than flush a version nobody can observe.
  if (wb_.enabled()) (void)wb_.take(path);
  sim::SimClock::Micros delay = local_cost(0);
  auto taken = coordination_->inp(inode_pattern(path));
  delay += taken.delay;
  if (!taken.value.ok()) {
    clock_->advance_us(delay);
    return Status{taken.value.error()};
  }
  if (!taken.value->has_value()) {
    clock_->advance_us(delay);
    return {ErrorCode::kNotFound, "scfs: no such file: " + path};
  }
  auto st = parse_inode(**taken.value);
  if (cache_) {
    cache_->invalidate(path);
    cache_->note_missing(path, clock_->now_us());
  }
  if (st.ok() && st->version > 0) {
    auto rm = storage_->remove(storage_tokens_, file_unit(path));
    delay += rm.delay;
    // A failed cloud delete leaves garbage but the file is gone from the
    // namespace; nothing to surface to the caller.
  }
  clock_->advance_us(delay);
  return {};
}

Status Scfs::rename(const std::string& from, const std::string& to) {
  // Commit any staged write first so the data unit we move is complete.
  if (wb_.enabled() && wb_.contains(from)) {
    if (auto st = flush_path(from); !st.ok()) return st;
  }
  // Read both ends first.
  sim::SimClock::Micros delay = local_cost(0);
  auto src = stat_nocharge(from, &delay);
  if (!src.ok()) {
    clock_->advance_us(delay);
    return Status{src.error()};
  }
  auto dst = stat_nocharge(to, &delay);
  if (dst.ok()) {
    clock_->advance_us(delay);
    return {ErrorCode::kConflict, "scfs: rename target exists: " + to};
  }
  // Move the data unit: read + write under the new name, then swap tuples.
  Bytes content;
  if (src->version > 0) {
    auto fetched = storage_->read(storage_tokens_, file_unit(from));
    delay += fetched.delay;
    if (!fetched.value.ok()) {
      clock_->advance_us(delay);
      return Status{fetched.value.error()};
    }
    content = std::move(*fetched.value);
    auto put = storage_->write(storage_tokens_, file_unit(to), content);
    delay += put.delay;
    if (!put.value.ok()) {
      clock_->advance_us(delay);
      return Status{put.value.error()};
    }
    auto rm = storage_->remove(storage_tokens_, file_unit(from));
    delay += rm.delay;
  }
  auto taken = coordination_->inp(inode_pattern(from));
  delay += taken.delay;
  FileStat s = *src;
  s.path = to;
  s.version = src->version > 0 ? 1 : 0;  // new unit starts at version 1
  s.modified_us = clock_->now_us();
  auto put_meta = coordination_->replace(inode_pattern(to), inode_tuple(s));
  delay += put_meta.delay;
  if (cache_) {
    // Sealed entries are path-bound (RockFS MACs include the path), so both
    // ends just invalidate; the next open refills under the new name.
    cache_->invalidate(from);
    cache_->invalidate(to);
    cache_->note_missing(from, clock_->now_us());
  }
  clock_->advance_us(delay);
  return {};
}

Result<FileStat> Scfs::stat(const std::string& path) {
  maybe_flush_due();
  sim::SimClock::Micros delay = 0;
  auto st = stat_nocharge(path, &delay);
  clock_->advance_us(delay);
  return st;
}

Result<std::vector<std::string>> Scfs::readdir(const std::string& prefix) {
  maybe_flush_due();
  auto all = coordination_->rdall(
      coord::Template::of({kInodeTag, "*", "*", "*", "*", "*", "*"}));
  clock_->advance_us(all.delay);
  if (!all.value.ok()) return Error{all.value.error()};
  std::vector<std::string> out;
  for (const auto& t : *all.value) {
    if (t.size() < 2) continue;
    // Observing a live tuple for a path invalidates its cached miss.
    if (cache_) cache_->clear_negative(t[1]);
    if (t[1].starts_with(prefix)) out.push_back(t[1]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

Status Scfs::lock(const std::string& path) {
  maybe_flush_due();
  auto& reg = obs::metrics();
  sim::SimClock::Micros delay = 0;
  auto cur = read_lease(*coordination_, path);
  delay += cur.delay;
  if (!cur.value.ok()) {
    clock_->advance_us(delay);
    return Status{cur.value.error()};
  }

  Lease next;
  next.path = path;
  next.holder = options_.user_id;
  next.session = options_.session_id;
  next.expiry_us = clock_->now_us() + options_.lease_ttl_us;
  next.held = true;

  if (!cur.value->has_value()) {
    // First lock of this path ever: mint epoch 1 via CAS (the pattern arm
    // guarantees no lease tuple snuck in since the read).
    next.epoch = 1;
    auto minted = coordination_->cas(lease_pattern(path), lease_tuple(next));
    clock_->advance_us(delay + minted.delay);
    if (!minted.value.ok()) return Status{minted.value.error()};
    if (!*minted.value) {
      reg.counter("scfs.lock.conflicts").add();
      return {ErrorCode::kConflict, "scfs: lost lock race: " + path};
    }
    held_leases_[path] = next.epoch;
    reg.counter("scfs.lock.acquired").add();
    return {};
  }

  const Lease& held = **cur.value;
  if (held.held) {
    if (held.holder == options_.user_id && held.session == options_.session_id) {
      // Renewal by the live holder: extend the expiry, epoch unchanged. The
      // conditional swap fails (0 removed, store untouched) if the lease
      // moved since our read — an unconditional replace would instead insert
      // a second lease tuple for the path.
      next.epoch = held.epoch;
      auto renewed = coordination_->swap(lease_exact(held), lease_tuple(next));
      clock_->advance_us(delay + renewed.delay);
      if (!renewed.value.ok()) return Status{renewed.value.error()};
      if (*renewed.value == 0) {
        held_leases_.erase(path);  // someone evicted us since the read
        reg.counter("scfs.lock.conflicts").add();
        return {ErrorCode::kConflict, "scfs: lease moved during renewal: " + path};
      }
      held_leases_[path] = next.epoch;
      reg.counter("scfs.lock.renewed").add();
      return {};
    }
    if (clock_->now_us() < held.expiry_us) {
      clock_->advance_us(delay);
      reg.counter("scfs.lock.conflicts").add();
      return {ErrorCode::kConflict, "scfs: lease held by " + held.holder + ": " + path};
    }
    // Expired: the holder is presumed dead — evict it below.
    reg.counter("scfs.lock.evictions").add();
  }

  // Takeover (eviction of an expired holder, or re-acquisition of a released
  // lease): bump the epoch so every straggler of a previous holder is fenced.
  // The exact-match conditional swap is the CAS arm — it fails (and we report
  // kConflict) if anyone else moved the lease since our read, and it is a
  // SINGLE quorum op so a coordination outage mid-takeover can never destroy
  // the tuple (the epoch must survive the lock's lifetime; an inp-then-out
  // pair that dies between the halves would lose it and let the next lock
  // re-mint epoch 1, un-fencing every straggler).
  next.epoch = held.epoch + 1;
  auto taken = coordination_->swap(lease_exact(held), lease_tuple(next));
  clock_->advance_us(delay + taken.delay);
  if (!taken.value.ok()) return Status{taken.value.error()};
  if (*taken.value == 0) {
    reg.counter("scfs.lock.conflicts").add();
    return {ErrorCode::kConflict, "scfs: lost lock race: " + path};
  }
  held_leases_[path] = next.epoch;
  reg.counter("scfs.lock.acquired").add();
  return {};
}

Status Scfs::unlock(const std::string& path) {
  if (wb_.enabled() && wb_.contains(path)) {
    // Close-to-open consistency across the lease handoff: commit the staged
    // write while the lease still admits it, so the next holder's open
    // observes it. kFenced means the lease already moved past us — the
    // entry was dropped and the release below reports the usual conflict.
    if (auto st = flush_path(path); !st.ok() && st.code() != ErrorCode::kFenced) {
      return st;  // the lease stays held; the caller can retry
    }
  }
  sim::SimClock::Micros delay = 0;
  auto cur = read_lease(*coordination_, path);
  delay += cur.delay;
  held_leases_.erase(path);  // our belief ends either way
  if (!cur.value.ok()) {
    clock_->advance_us(delay);
    return Status{cur.value.error()};
  }
  if (!cur.value->has_value() || !(*cur.value)->held) {
    clock_->advance_us(delay);
    return {ErrorCode::kNotFound, "scfs: no such lock: " + path};
  }
  const Lease& held = **cur.value;
  if (held.holder != options_.user_id || held.session != options_.session_id) {
    // Held by someone else (another user, or our own crashed predecessor
    // session): the same answer a contended lock() gives.
    clock_->advance_us(delay);
    return {ErrorCode::kConflict, "scfs: lock held by " + held.holder + ": " + path};
  }
  // Release keeps the tuple: the epoch must outlive the lock, or a later
  // fresh acquisition would restart it and re-admit fenced writers.
  Lease released = held;
  released.held = false;
  released.expiry_us = clock_->now_us();
  auto swapped = coordination_->swap(lease_exact(held), lease_tuple(released));
  clock_->advance_us(delay + swapped.delay);
  if (!swapped.value.ok()) return Status{swapped.value.error()};
  if (*swapped.value == 0) {
    // The lease moved between our read and the swap (lost race with an
    // evictor): the store is untouched and the new holder's lease stands.
    return {ErrorCode::kConflict, "scfs: lease moved during unlock: " + path};
  }
  return {};
}

std::optional<std::uint64_t> Scfs::held_epoch(const std::string& path) const {
  const auto it = held_leases_.find(path);
  if (it == held_leases_.end()) return std::nullopt;
  return it->second;
}

Result<std::optional<Lease>> Scfs::lease(const std::string& path) {
  auto r = read_lease(*coordination_, path);
  clock_->advance_us(r.delay);
  return std::move(r.value);
}

}  // namespace rockfs::scfs
