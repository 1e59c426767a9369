// Write-back staging queue (ARCHITECTURE §13.3): close() with write-back
// enabled parks the new content here instead of running the commit pipeline;
// later closes of the same path COALESCE into the staged entry (content
// replaced, the committed base kept), so a burst of small writes commits as
// ONE DepSky upload + ONE log append when the entry flushes. Flush triggers
// (deadline, dirty-bytes high-water mark, explicit fsync-style flush(),
// lease release) live in scfs — this class is only the deterministic
// container: entries iterate in sorted path order, timestamps are virtual,
// and every method is mutex-guarded so the queue is safe to inspect from
// test threads while the coordinator stages.
//
// Crash consistency (PR 3) is preserved by WHERE the flush runs, not here:
// the flush executes the full close pipeline — write-ahead intent first,
// then file put ∥ log append, then the inode move — so a crash mid-flush is
// classifiable at the next login exactly like a crash mid-close. Until the
// flush, staged bytes are RAM only and die with the process, same as bytes
// an application had not yet close()d.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "obs/metrics.h"

namespace rockfs::cache {

/// Max virtual age of a staged entry before the next eligible operation
/// flushes it (measured from the FIRST close coalesced into the entry, so a
/// hot path cannot defer its commit forever).
inline constexpr std::int64_t kFlushDeadlineUs = 500'000;
/// High-water mark across all staged entries: exceeding it drains the queue
/// synchronously (bounds RAM and the crash-loss window).
inline constexpr std::size_t kDirtyBytesCap = 8u << 20;

/// One staged (uncommitted) write. The base fields freeze at the FIRST
/// staging and survive coalescing: the flush commits base_version + 1 with
/// log_base as the delta base, regardless of how many closes were absorbed.
struct DirtyEntry {
  Bytes content;
  Bytes log_base;                 // committed content the log entry diffs against
  std::uint64_t base_version = 0; // committed inode version underneath
  std::uint64_t write_epoch = 0;  // fencing epoch the flush commits under
  std::uint64_t stamp_epoch = 0;  // file epoch observed at open (stat/open overlay)
  std::int64_t first_dirty_us = 0;
  std::size_t coalesced = 0;      // closes absorbed beyond the first
};

class WriteBackQueue {
 public:
  /// `enabled` = false: closes commit immediately and nothing is staged.
  explicit WriteBackQueue(bool enabled);

  bool enabled() const noexcept { return enabled_; }

  /// Stages `content` for `path`. A fresh path adopts every field of
  /// `entry`; an existing entry keeps its base/first_dirty and only takes
  /// the new content + epochs (coalescing). Returns true when coalesced.
  bool stage(const std::string& path, DirtyEntry entry);
  /// Removes and returns the staged entry (the flush owns it from here; a
  /// failed flush may re-stage it).
  std::optional<DirtyEntry> take(const std::string& path);
  /// Puts a taken entry back (transient flush failure — retried at the next
  /// trigger). A concurrent re-stage wins: restage then coalesces into it.
  void restage(const std::string& path, DirtyEntry entry);
  /// Copy for read-your-writes serving (open/stat overlays).
  std::optional<DirtyEntry> snapshot(const std::string& path) const;
  bool contains(const std::string& path) const;
  /// Every staged path, sorted (deterministic flush order).
  std::vector<std::string> paths() const;
  /// Staged paths whose deadline has passed at `now_us`, sorted.
  std::vector<std::string> due_paths(std::int64_t now_us) const;
  /// Drops everything without flushing (crash teardown, revocation).
  /// Returns the number of entries discarded.
  std::size_t discard_all();

  std::size_t entries() const;
  std::size_t total_bytes() const;
  bool over_cap() const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::map<std::string, DirtyEntry> entries_;
  std::size_t total_bytes_ = 0;

  obs::Counter* staged_ = nullptr;
  obs::Counter* coalesced_ = nullptr;
  obs::Counter* discarded_ = nullptr;
};

}  // namespace rockfs::cache
