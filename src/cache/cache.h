// Client cache manager (ARCHITECTURE §13): the shared, capacity-bounded
// cache an agent keeps per USER (not per session — the handle survives
// re-logins, which is why revocation must drop it explicitly). Three tiers,
// all keyed by path and co-located in the same shard so one lock covers a
// path's whole cache state:
//
//   * data   — the sealed (CacheTransform-protected) file bytes of ONE
//              version per path, LRU-evicted under a byte budget split
//              across shards. The cache stores the representation opaquely;
//              sealing/unsealing stays above (scfs/rockfs), so this library
//              depends on nothing but common/obs/sim.
//   * meta   — the head version a client last observed for the path (the
//              inode tuple fields plus the lease epoch held at fill time).
//              Validation rule: the entry is served without any remote round
//              iff the client still holds the SAME lease epoch it held when
//              the entry was filled — nobody else can commit past a live
//              lease, so the entry cannot be stale. Any other hit degrades
//              to a one-round version check upstream.
//   * negative — recently observed kNotFound results, TTL-bounded and
//              invalidated the moment the owner creates the path or any
//              code path observes a coordination tuple for it.
//
// Thread-safety: every method is safe under concurrent callers (per-shard
// mutexes; counters are atomic). Nothing here consults wall-clock time —
// callers pass virtual `now_us` where TTLs apply — so seeded runs stay
// byte-identical at any thread count.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "obs/metrics.h"

namespace rockfs::cache {

struct CacheOptions {
  /// Shard count (lock striping). Shard choice hashes the path with FNV-1a,
  /// not std::hash, so placement is identical across platforms.
  std::size_t shards = 16;
  /// Byte budget for the DATA tier across all shards (each shard gets an
  /// equal slice; meta/negative entries are a few dozen bytes and uncounted).
  std::size_t capacity_bytes = 128u << 20;
  /// How long a cached kNotFound may be served before it must be re-proved
  /// against the coordination service (virtual time).
  std::int64_t negative_ttl_us = 2'000'000;
};

/// One sealed data entry: the transformed representation of exactly one
/// committed version of the path. The bytes are immutable and shared, so a
/// hit hands them out without copying; put_data and poke_raw swap in a new
/// buffer, and a reader still holding the old one keeps it alive.
struct DataEntry {
  std::shared_ptr<const Bytes> raw;
  std::uint64_t version = 0;
};

/// Head-version metadata observed for a path (the scfs-inode fields), plus
/// the validation anchor: the lease epoch the client held when it filled the
/// entry (0 = filled without holding the lease, never fast-path served).
struct MetaEntry {
  std::uint64_t version = 0;
  std::uint64_t size = 0;
  std::string owner;
  std::int64_t modified_us = 0;
  std::uint64_t file_epoch = 0;
  std::uint64_t lease_epoch = 0;
};

class ClientCache {
 public:
  explicit ClientCache(CacheOptions options = {});

  // ---- data tier ----

  /// The entry (its bytes shared, not copied), bumping it to MRU. The caller
  /// decides hit vs miss AFTER version validation + unseal, so this counts
  /// nothing.
  std::optional<DataEntry> get_data(const std::string& path);
  /// Inserts/replaces the path's entry and evicts LRU entries until the
  /// shard is back under budget (the new entry itself survives even when it
  /// alone exceeds the slice — a cache that refuses the working set is
  /// worse than a briefly over-budget one).
  void put_data(const std::string& path, Bytes raw, std::uint64_t version);
  void erase_data(const std::string& path);
  /// A copy of the raw bytes without an LRU bump (tests and the T3 attack
  /// driver).
  std::optional<Bytes> peek_raw(const std::string& path) const;
  /// Overwrites the raw representation keeping the version (attack driver:
  /// models on-disk tampering below the transform).
  void poke_raw(const std::string& path, Bytes raw);

  // ---- metadata tier ----

  std::optional<MetaEntry> get_meta(const std::string& path) const;
  void put_meta(const std::string& path, const MetaEntry& meta);

  // ---- negative tier ----

  /// True while a cached kNotFound for `path` is within its TTL.
  bool is_negative(const std::string& path, std::int64_t now_us) const;
  void note_missing(const std::string& path, std::int64_t now_us);
  /// Drops a cached kNotFound (same-client create, or any observation of a
  /// coordination tuple for the path). Counted when an entry actually died.
  void clear_negative(const std::string& path);

  // ---- lifecycle ----

  /// Drops every tier's entries for `path` (unlink/rename, fenced dirty
  /// write-back).
  void invalidate(const std::string& path);
  /// Drops EVERYTHING (all tiers, all shards): session-key rotation and
  /// credential revocation. Bumps drop_generation so tests can assert the
  /// drop happened exactly where required.
  void drop_all();
  std::uint64_t drop_generation() const noexcept {
    return drop_generation_.load(std::memory_order_relaxed);
  }

  // ---- introspection (tests, benches) ----

  std::size_t data_entries() const;
  std::size_t data_bytes() const;
  std::size_t meta_entries() const;
  std::size_t negative_entries() const;

 private:
  struct Shard {
    mutable std::mutex mu;
    /// LRU order, front = most recent. Values are the map keys; the map
    /// node keeps an iterator back into the list for O(1) touch/evict.
    std::list<std::string> lru;
    struct DataNode {
      DataEntry entry;
      std::list<std::string>::iterator lru_it;
    };
    std::map<std::string, DataNode> data;
    std::size_t data_bytes = 0;
    std::map<std::string, MetaEntry> meta;
    std::map<std::string, std::int64_t> negative;  // path -> noted_at_us
  };

  Shard& shard_for(const std::string& path);
  const Shard& shard_for(const std::string& path) const;
  /// Evicts LRU data entries (never `keep`) until the shard fits its slice.
  void evict_locked(Shard& shard, const std::string& keep);

  CacheOptions options_;
  std::size_t shard_budget_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> drop_generation_{0};

  obs::Counter* evictions_ = nullptr;
  obs::Counter* drops_ = nullptr;
  obs::Counter* negative_invalidations_ = nullptr;
};

using ClientCachePtr = std::shared_ptr<ClientCache>;

}  // namespace rockfs::cache
