// Multi-client soak harness: three agents sharing one deployment (one
// virtual clock, one coordination service, one cloud-of-clouds) hammer two
// shared paths through the lease/fencing machinery. Per-round dice pick
// an agent and a fate — a clean locked write, a crash at one of the close
// pipeline's crash points (the holder dies with the lease), or a mid-close
// hang long enough for a contender to evict the holder and write (the
// resumed close must then fence). The soak engine's ledger (soak.h) checks
// the outcome: every committed write's token MUST appear in the final
// content (no lost update), every fenced write's token MUST NOT (no zombie
// write), and a crashed write MAY (journal replay adopts durable intents).
// The report's digest covers the full outcome so two same-seed runs can be
// compared for determinism.
#pragma once

#include <cstdint>
#include <string>

#include "rockfs/soak.h"
#include "sim/clock.h"

namespace rockfs::core {

struct MultiClientOptions {
  std::size_t rounds = 40;        // write attempts across all agents
  std::uint64_t seed = 2018;      // deployment + dice seed
  std::int64_t lease_ttl_us = 5'000'000;
  /// Marks one coordination replica Byzantine for the whole soak (masked by
  /// the 3f+1 quorum; lease CAS must still never grant two holders).
  bool byzantine_coord_replica = false;
  /// Client cache (src/cache) on the agents. The converged content must be
  /// BYTE-IDENTICAL with the cache on or off (content_digest compares runs).
  bool client_cache = true;
  /// Write-back staging of closes. The harness flushes after every close
  /// (while the lease is held), so crash/fence fates fire inside the flush.
  bool write_back = false;
  /// Thread-pool size handed to the deployment (0 = inline). Barrier joins
  /// keep every digest identical at any value.
  std::size_t executor_threads = 0;
};

struct MultiClientReport : SoakTally {
  std::size_t writes_attempted = 0;
  std::size_t writes_committed = 0;  // close OK — token must survive
  std::size_t writes_fenced = 0;     // close kFenced — token must NOT survive
  std::size_t writes_crashed = 0;    // close kCrashed — token may survive
  std::size_t evictions = 0;         // contender took over an expired lease
  std::size_t lock_waits = 0;        // acquisitions that had to spin on kConflict
  sim::SimClock::Micros max_blocked_us = 0;  // longest spin (wedge bound)
  std::string digest;  // sha256 over counters + final contents (determinism)

  bool converged() const {
    return lost_updates == 0 && zombie_updates == 0 && divergent_reads == 0;
  }
};

/// Runs the soak to completion (including a settle pass that commits one
/// clean write per path, then a cross-agent read-back). Deterministic per
/// options: same options => identical report, digest included.
MultiClientReport run_multiclient_soak(const MultiClientOptions& options);

}  // namespace rockfs::core
