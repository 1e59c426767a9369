// Lease-based advisory locking with fencing epochs (multi-client sessions).
//
// The bare lock tuple of stock SCFS wedges a file forever when its holder
// dies: nothing expires it and nothing stops the dead holder's in-flight
// close from landing after someone else "broke" the lock. The lease tuple
// fixes both:
//
//   ("scfs-lease", path, holder, session, expiry_us, epoch, state)
//
//   * expiry_us  — virtual-time lease expiry; lock() on an expired lease
//     evicts the dead holder instead of failing.
//   * epoch      — the fencing epoch, minted via coordination-service CAS
//     (first acquisition) or an exact-match take-and-replace (eviction /
//     takeover) and bumped on EVERY acquisition, so each holder's epoch is
//     strictly greater than every previous writer's. The close pipeline
//     stamps the writer's epoch into the file metadata and the log-entry
//     metadata lm_fu; a commit whose epoch is below the lease's current
//     epoch is refused with kFenced — a client that stalls mid-close (GC
//     pause, partition) past its lease can never fork the file or the log.
//   * state      — "held" or "released". Unlock keeps the tuple in the
//     released state rather than deleting it: the epoch must survive the
//     lock's lifetime or a later fresh acquisition would restart it at 1
//     and re-admit fenced writers.
//
// The tuple is quorum-replicated like everything in the coordination
// service, so a Byzantine replica lying about a lease read is outvoted and
// an f-replica outage does not block acquisition.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/result.h"
#include "coord/service.h"
#include "sim/timed.h"

namespace rockfs::scfs {

/// Sentinel epoch for LogService writes that hold no lease and must never be
/// fenced: the recovery admin's chain, the unlink ("delete") append and the
/// rotation record. check_fence admits it without reading the lease.
inline constexpr std::uint64_t kNoFenceEpoch = ~std::uint64_t{0};

struct Lease {
  std::string path;
  std::string holder;        // user id of the (last) holder
  std::string session;       // session id, distinguishes re-logins of one user
  std::int64_t expiry_us = 0;
  std::uint64_t epoch = 0;   // fencing epoch; monotone over the path's lifetime
  bool held = false;         // false = released tuple kept for epoch continuity
};

/// Tuple tag used for leases ("scfs-lease").
const char* lease_tag();

coord::Tuple lease_tuple(const Lease& l);
Result<Lease> parse_lease(const coord::Tuple& t);
/// Wildcard pattern matching any lease tuple for `path`.
coord::Template lease_pattern(const std::string& path);
/// Exact pattern matching one specific lease state (atomic take/replace arm).
coord::Template lease_exact(const Lease& l);

/// Current lease of `path`, nullopt when it has never been locked. Returns
/// the composed delay without advancing the clock.
sim::Timed<Result<std::optional<Lease>>> read_lease(coord::CoordinationService& coord,
                                                    const std::string& path);

/// Current fencing epoch of `path`: the lease tuple's epoch, or 0 when the
/// path has never been locked (nothing can have been evicted, so nothing can
/// be fenced).
sim::Timed<Result<std::uint64_t>> read_fence_epoch(coord::CoordinationService& coord,
                                                   const std::string& path);

/// The fence decision of the close and log-append pipelines: may a write
/// stamped `write_epoch` still commit to `path`? Ok at zero delay, without a
/// read, for kNoFenceEpoch; the read's own error when no quorum answers;
/// kFenced when the lease epoch has moved past `write_epoch`; Ok otherwise.
/// Each caller picks its own reaction to each outcome.
sim::Timed<Status> check_fence(coord::CoordinationService& coord, const std::string& path,
                               std::uint64_t write_epoch);

/// Administrative eviction of every lease `holder` currently holds (the
/// revocation flow: a compromised user's sessions must lose their locks
/// before rotation). Each held tuple is atomically swapped to the released
/// state with a bumped fencing epoch, so the evicted holder's in-flight
/// closes fence out exactly like a lease-expiry takeover. Returns the number
/// of leases evicted; a lease that changed concurrently is skipped (its new
/// holder re-minted the epoch already).
sim::Timed<Result<std::size_t>> evict_holder_leases(coord::CoordinationService& coord,
                                                    const std::string& holder);

}  // namespace rockfs::scfs
