// SCFS: the Shared Cloud-backed File System (paper §5.2, after Bessani et
// al., USENIX ATC'14), rebuilt on our DepSky client and coordination
// service. It provides a POSIX-style API with consistency-on-close: reads
// and writes hit an in-memory open-file buffer backed by a local cache;
// close() pushes the new version to the cloud-of-clouds and then updates the
// file's metadata tuple in the coordination service (data before metadata,
// §2.5). Supports the two sync modes evaluated in the paper: blocking and
// non-blocking (background upload pipeline).
//
// The local cache is a shared ClientCache (cache/cache.h): a sharded LRU
// data tier of sealed entries, a metadata tier of head versions, and a
// negative tier for misses. Hit validation (ARCHITECTURE §13.2): a held
// lease epoch matching the fill epoch serves with ZERO remote rounds;
// otherwise one coordination round re-proves the version and a matching
// data entry skips the DepSky fetch. An optional write-back layer
// (cache/writeback.h) coalesces closes to the same path into one commit of
// the full close pipeline, so crash-consistency (intent journal) and
// fencing semantics carry over unchanged.
//
// RockFS integration points (used by src/rockfs):
//   * CacheTransform — encrypt/verify the local cache at open/close (Fig. 4)
//   * CloseInterceptor — runs the log pipeline concurrently with the file
//     upload at close time (§6.1 optimization (2))
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "cache/writeback.h"
#include "cloud/provider.h"
#include "common/result.h"
#include "coord/service.h"
#include "depsky/client.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "scfs/lease.h"
#include "sim/faults.h"
#include "sim/timed.h"

namespace rockfs::scfs {

enum class SyncMode { kBlocking, kNonBlocking };

/// Hook that transforms file content between memory and the on-disk cache.
/// The default stores plaintext (what stock SCFS does, and what threat T3
/// exploits); RockFS installs an encrypting, integrity-checking transform.
class CacheTransform {
 public:
  virtual ~CacheTransform() = default;
  /// Memory -> cache representation. `version` is the inode version this
  /// content belongs to; binding it into the protection defeats replay of
  /// older (validly sealed) cache entries.
  virtual Bytes protect(const std::string& path, std::uint64_t version,
                        BytesView plaintext) = 0;
  /// Cache -> memory; kIntegrity when the cached data fails verification
  /// (including a version mismatch, i.e. a replayed stale entry).
  virtual Result<Bytes> unprotect(const std::string& path, std::uint64_t version,
                                  BytesView cached) = 0;
};

struct FileStat {
  std::string path;
  std::uint64_t version = 0;
  std::uint64_t size = 0;
  std::string owner;
  std::int64_t modified_us = 0;
  /// Fencing epoch of the write that produced this version (0 = written
  /// before the path was ever locked). See scfs/lease.h.
  std::uint64_t epoch = 0;
};

/// A file's inode in the coordination service, tagged scfs-inode:
///   (tag, path, version, size, owner, modified_us, epoch)
/// The epoch stamps each committed version with the fencing epoch of the
/// write that produced it (lease.h): recovery orders interleaved
/// multi-writer records by (version, epoch).
coord::Tuple inode_tuple(const FileStat& s);
/// Wildcard pattern matching the inode of `path`.
coord::Template inode_pattern(const std::string& path);
/// The DepSky unit holding `path`'s content. SCFS is a shared namespace, so
/// every client (and the recovering administrator) maps a path to the same
/// unit; paths start with "/".
std::string file_unit(const std::string& path);

/// Parallel upload pipelines (file + log) share the client's physical
/// uplink: this fraction of the smaller pipeline's time is serialized
/// behind the larger one (the request/RTT components overlap fully; only
/// the transfer component contends). 0 = ideal parallelism, 1 = sequential.
inline constexpr double kUplinkContention = 0.2;

struct ScfsOptions {
  SyncMode sync_mode = SyncMode::kNonBlocking;
  /// Shared per-user cache handle (survives re-logins; rotation/revocation
  /// drop it through the agent/deployment hooks). Null = no cache.
  cache::ClientCachePtr cache;
  /// Write-back coalescing (off by default: every dirty close commits
  /// through the full pipeline immediately — the PR 3/PR 4 behavior).
  bool write_back = false;
  std::string user_id = "user";
  /// Session id: distinguishes re-logins of the same user. A lease names
  /// (holder, session), so a restarted client cannot silently reuse a lease
  /// its crashed predecessor still holds — it must wait out or evict it.
  std::string session_id = "s0";
  /// Lease TTL in virtual time; an expired lease is evictable by any
  /// contender (see scfs/lease.h).
  std::int64_t lease_ttl_us = 30'000'000;
};

class Scfs {
 public:
  using Fd = int;

  /// Called at close with (path, previous content, new content, new version,
  /// fencing epoch); its delay is overlapped with the file upload (parallel
  /// pipelines). The epoch is the writer's fencing epoch for this close:
  /// RockFS stamps it into the log-entry metadata lm_fu and refuses the
  /// commit when stale.
  using CloseInterceptor = std::function<sim::Timed<Status>(
      const std::string& path, const Bytes& old_content, const Bytes& new_content,
      std::uint64_t new_version, std::uint64_t epoch)>;

  Scfs(std::shared_ptr<depsky::DepSkyClient> storage,
       std::vector<cloud::AccessToken> storage_tokens,
       std::shared_ptr<coord::CoordinationService> coordination, sim::SimClockPtr clock,
       ScfsOptions options);

  // ---- POSIX-style operations (each advances the virtual clock) ----

  /// Creates an empty file; fails with kConflict if it already exists.
  /// Either outcome invalidates a cached kNotFound for the path.
  Result<Fd> create(const std::string& path);
  /// Opens an existing file, loading it from the staged write-back entry
  /// (read-your-writes), the validated cache, or the cloud-of-clouds.
  Result<Fd> open(const std::string& path);
  Result<Bytes> read(Fd fd, std::size_t offset, std::size_t length);
  Status write(Fd fd, std::size_t offset, BytesView data);
  /// Appends at the end of the file.
  Status append(Fd fd, BytesView data);
  Status truncate(Fd fd, std::size_t new_size);
  /// Consistency-on-close: uploads if dirty, then records metadata. With
  /// write-back enabled the content is staged instead and commits at the
  /// next flush trigger (deadline / dirty-bytes cap / flush() / unlock()).
  Status close(Fd fd);
  Status unlink(const std::string& path);
  Status rename(const std::string& from, const std::string& to);
  Result<FileStat> stat(const std::string& path);
  /// Paths under `prefix`, sorted.
  Result<std::vector<std::string>> readdir(const std::string& prefix);

  // ---- advisory locking: leases with fencing epochs (scfs/lease.h) ----

  /// Acquires (or renews) the lease on `path`. kConflict while another
  /// client's unexpired lease holds it; an EXPIRED lease is evicted — the
  /// dead holder loses the lock and the fencing epoch bumps, so its
  /// stragglers are fenced. Every fresh acquisition bumps the epoch.
  Status lock(const std::string& path);
  /// Releases the caller's lease, FLUSHING any staged write-back entry for
  /// the path first (close-to-open consistency across a lease handoff: the
  /// next holder must observe this holder's closes). kConflict when another
  /// client holds it, kNotFound when nobody does. The lease tuple survives
  /// in the released state: the epoch outlives the lock (monotonicity).
  Status unlock(const std::string& path);
  /// The lease epoch this client acquired for `path`, if it believes it
  /// holds the lock (stale after an eviction — which is the point).
  std::optional<std::uint64_t> held_epoch(const std::string& path) const;
  /// Current lease state of `path` (advances the clock).
  Result<std::optional<Lease>> lease(const std::string& path);

  // ---- write-back control (fsync-style) ----

  /// Commits the staged entry for `path` through the full close pipeline
  /// (intent → file put ∥ log append → inode). kFenced drops the entry and
  /// every cache tier for the path: a fenced writer's dirty data must never
  /// be served again. No-op when nothing is staged.
  Status flush(const std::string& path);
  /// Flushes every staged entry in sorted path order; returns the first
  /// non-ok status (remaining paths are still attempted).
  Status flush_all();
  /// Drops every staged entry WITHOUT committing (crash teardown,
  /// compromise response). Returns the number of entries discarded.
  std::size_t discard_dirty();
  std::size_t dirty_entries() const { return wb_.entries(); }

  // ---- sync-mode plumbing ----

  /// Close that reports the paper's Fig. 5 latency metric: the virtual time
  /// from close() until the coordination service has recorded the operation
  /// (for non-blocking mode this includes queued background uploads).
  sim::Timed<Status> close_timed(Fd fd);
  /// Flushes staged write-backs, then advances the clock until the
  /// background upload queue is empty.
  void drain_background();
  /// Virtual time at which the background queue drains.
  sim::SimClock::Micros background_complete_us() const noexcept { return bg_complete_us_; }

  // ---- RockFS integration ----

  /// Installs the transform. `drop_entries` clears the cache (the default:
  /// old representations are unreadable under an unrelated transform); the
  /// agent passes false when re-installing a transform keyed by the same
  /// session-key lineage, so a shared cache stays warm across re-logins —
  /// entries a rotated key cannot unseal fail open and refetch anyway.
  void set_cache_transform(std::shared_ptr<CacheTransform> transform,
                           bool drop_entries = true);
  void set_close_interceptor(CloseInterceptor interceptor);
  /// Write-ahead hook, same signature as the interceptor, run BEFORE the
  /// file upload: RockFS persists its log intent here so that every crash
  /// between the hook and the interceptor's commit is classifiable at the
  /// next login. Its delay is serialized ahead of the upload pipeline (one
  /// coordination round trip); a failure aborts the close.
  void set_close_intent_hook(CloseInterceptor hook);
  /// Crash points along the close path fire against this schedule
  /// (nullable). Crashes propagate as sim::ClientCrash — the agent layer
  /// catches them and drops the session.
  void set_crash_schedule(sim::CrashSchedulePtr crash) { crash_ = std::move(crash); }
  /// Drops every cached entry, all tiers (e.g., session key rotation).
  /// Staged write-back entries are NOT discarded (use discard_dirty()).
  void clear_cache();
  /// Direct cache inspection for tests and the attack driver.
  std::optional<Bytes> cached_raw(const std::string& path) const;
  void poke_cache(const std::string& path, Bytes raw);
  /// The shared cache handle (null = no cache).
  const cache::ClientCachePtr& cache() const noexcept { return cache_; }

  std::shared_ptr<depsky::DepSkyClient> storage() const noexcept { return storage_; }
  std::shared_ptr<coord::CoordinationService> coordination() const noexcept {
    return coordination_;
  }
  const std::vector<cloud::AccessToken>& storage_tokens() const noexcept {
    return storage_tokens_;
  }

 private:
  struct OpenFile {
    std::string path;
    Bytes content;        // plaintext working copy
    Bytes original;       // content as of open (for the close interceptor)
    std::uint64_t version = 0;
    std::uint64_t epoch = 0;   // file epoch observed at open (fencing floor)
    std::string base_owner;    // who wrote the version we opened
    bool dirty = false;
    bool created = false;
  };

  /// One write to commit through the close pipeline — built either from a
  /// dirty close (write-through) or a staged write-back entry (flush).
  struct CommitJob {
    std::string path;
    Bytes log_base;       // cross-user rule already applied
    Bytes content;
    std::uint64_t new_version = 0;
    std::uint64_t write_epoch = 0;  // fencing epoch, stamped into the inode
  };
  struct CommitResult {
    Status status;
    bool committed = false;             // the inode moved
    sim::SimClock::Micros local = 0;    // serialized client-side part
    sim::SimClock::Micros pipeline = 0; // parallel upload pipelines
    sim::SimClock::Micros meta = 0;     // inode replace round
  };
  /// The §2.5 pipeline: crash points, fence pre-flight, cache write-through,
  /// write-ahead intent, file put ∥ interceptor, inode replace. Composes
  /// delays without advancing the clock; the caller charges and reports.
  CommitResult commit_job(const CommitJob& job, obs::Span& span);

  sim::SimClock::Micros local_cost(std::size_t bytes) const;
  /// Cached stat gateway: dirty overlay → lease-validated meta entry →
  /// negative entry → coordination round (which refills meta/negative).
  Result<FileStat> stat_nocharge(const std::string& path, sim::SimClock::Micros* delay);
  /// Flushes the staged entry for `path` (advances the clock). The core of
  /// flush()/flush_all()/maybe_flush_due()/unlock().
  Status flush_path(const std::string& path);
  /// Flushes entries past their deadline, skipping currently-open paths.
  void maybe_flush_due();
  bool is_open_path(const std::string& path) const;

  std::shared_ptr<depsky::DepSkyClient> storage_;
  std::vector<cloud::AccessToken> storage_tokens_;
  std::shared_ptr<coord::CoordinationService> coordination_;
  sim::SimClockPtr clock_;
  ScfsOptions options_;
  std::shared_ptr<CacheTransform> transform_;
  CloseInterceptor interceptor_;
  CloseInterceptor intent_hook_;
  sim::CrashSchedulePtr crash_;

  cache::ClientCachePtr cache_;  // null = no cache
  cache::WriteBackQueue wb_;

  std::map<Fd, OpenFile> open_files_;
  /// Leases this client believes it holds: path -> acquired epoch. Local
  /// belief only — eviction happens behind our back, and the fencing check
  /// against the coordination service is what catches the divergence.
  std::map<std::string, std::uint64_t> held_leases_;
  Fd next_fd_ = 3;
  sim::SimClock::Micros bg_complete_us_ = 0;

  // Cached registry handles for the hot paths.
  obs::Counter* close_count_ = nullptr;
  obs::Counter* close_bytes_ = nullptr;
  obs::Counter* close_errors_ = nullptr;
  obs::Counter* close_fenced_ = nullptr;
  obs::Histogram* close_delay_us_ = nullptr;
  obs::Counter* data_hits_ = nullptr;
  obs::Counter* data_misses_ = nullptr;
  obs::Counter* unseal_fails_ = nullptr;
  obs::Counter* meta_hits_ = nullptr;
  obs::Counter* meta_misses_ = nullptr;
  obs::Counter* negative_hits_ = nullptr;
  obs::Counter* wb_dirty_serves_ = nullptr;
  obs::Counter* wb_flushes_ = nullptr;
  obs::Counter* wb_flush_bytes_ = nullptr;
  obs::Counter* wb_fenced_ = nullptr;
  obs::Counter* wb_flush_errors_ = nullptr;
  obs::Histogram* open_hit_us_ = nullptr;
  obs::Histogram* open_miss_us_ = nullptr;
};

}  // namespace rockfs::scfs
