// Deterministic, sim-clock-driven fault injection. One FaultSchedule models
// the time-varying health of a single component (a cloud provider or a
// coordination replica): scheduled outage windows, transient error bursts,
// tail-latency storms, partial-write truncation and intermittent read
// corruption. Components consult the schedule on every operation; decisions
// are drawn from the schedule's own seeded RNG stream, so a fixed seed and
// operation sequence reproduce the exact same fault trace on any machine.
//
// The legacy static fault flags (CloudProvider::set_available /
// set_byzantine, CoordinationService::set_replica_down) are one-line
// wrappers over the schedule's permanent `down` / `byzantine` entries, so
// all existing call sites keep their behavior.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "sim/clock.h"

namespace rockfs::sim {

/// Operation class a component reports when consulting its schedule.
enum class FaultOp {
  kRead,     // data download (eligible for read corruption)
  kWrite,    // data upload (eligible for partial-write truncation)
  kControl,  // metadata / RPC round-trips
};

/// What the faulty environment does to one operation.
struct FaultActions {
  /// kOk = the operation proceeds; kUnavailable / kTimeout = it fails.
  ErrorCode fail = ErrorCode::kOk;
  const char* reason = "";       // human-readable cause for error messages
  double latency_factor = 1.0;   // >1 during a tail-latency storm
  bool corrupt_payload = false;  // reads: bit-flip the returned bytes
  bool truncate_payload = false; // writes: store only a prefix, then fail
};

/// Half-open interval of virtual time during which the component is down.
struct OutageWindow {
  SimClock::Micros start_us = 0;
  SimClock::Micros end_us = 0;
};

// ---------------------------------------------------- adversarial serving
//
// Crash/omission faults above make a cloud *unavailable*; adversarial modes
// make it *lie* while staying perfectly available. The provider keeps every
// response well-formed and correctly signed (signatures travel with the
// stored bytes), which is exactly what makes these attacks invisible to the
// digest checks and detectable only by freshness/accountability machinery
// (depsky version witness + misbehavior quarantine).
//
// The spec is pure configuration: consulting it draws NOTHING from the
// schedule's RNG stream, so arming an adversary never perturbs the fault
// trace of the probabilistic knobs.

enum class AdversarialMode {
  kNone = 0,
  /// Serve every reader the view frozen at arming time: the highest version
  /// whose write completed before the freeze, signatures intact. Writes are
  /// still acked (and recorded) — they just never become visible.
  kRollback,
  /// Partition readers by authenticated identity: one group sees the fresh
  /// view, the other the frozen one. Both views are valid and signed —
  /// divergence across sessions is the only evidence.
  kEquivocate,
  /// Metadata served honestly; data-share objects answer kNotFound.
  kWithholdShares,
  /// Serve the view as of (now - window_us): a sliding rollback that lags
  /// the truth by a fixed interval instead of freezing outright.
  kReplayWindow,
};

const char* adversarial_mode_name(AdversarialMode m);

struct AdversarialSpec {
  AdversarialMode mode = AdversarialMode::kNone;
  SimClock::Micros freeze_us = 0;      // rollback/equivocate cutoff (arming time)
  SimClock::Micros window_us = 0;      // replay lag (kReplayWindow only)
  std::uint64_t partition_salt = 0;    // equivocation group assignment
};

/// Which side of an equivocation partition `user_id` lands on (true = the
/// stale/frozen view). FNV-1a, so provider and tests agree on any machine.
bool adversarial_stale_group(const std::string& user_id, std::uint64_t salt);

class FaultSchedule {
 public:
  FaultSchedule(SimClockPtr clock, std::uint64_t seed);

  // ---- permanent entries (back the legacy static flags) ----

  void set_down(bool down) noexcept { down_ = down; }
  bool down() const noexcept { return down_; }
  void set_byzantine(bool byzantine) noexcept { byzantine_ = byzantine; }
  bool byzantine() const noexcept { return byzantine_; }

  // ---- time-varying knobs ----

  /// Adds an outage window [start_us, end_us) in virtual time.
  void add_outage(SimClock::Micros start_us, SimClock::Micros end_us);
  /// Probability that any single operation fails with kUnavailable.
  void set_transient_error_prob(double p) noexcept { transient_error_prob_ = p; }
  /// Probability that any single operation fails with kTimeout.
  void set_timeout_prob(double p) noexcept { timeout_prob_ = p; }
  /// With probability `prob`, an operation's delay is multiplied by `factor`.
  void set_tail_latency(double prob, double factor) noexcept {
    tail_latency_prob_ = prob;
    tail_latency_factor_ = factor;
  }
  /// Probability that a read returns silently corrupted bytes.
  void set_read_corruption_prob(double p) noexcept { read_corruption_prob_ = p; }
  /// Probability that a write stores a truncated prefix and reports failure
  /// (a connection dropped mid-upload).
  void set_partial_write_prob(double p) noexcept { partial_write_prob_ = p; }

  // ---- adversarial serving (no RNG draws; pure configuration) ----

  /// Turns the component malicious from the current virtual instant on.
  /// kRollback / kEquivocate freeze the cutoff at now; kReplayWindow serves
  /// a view lagging by `window_us`. `partition_salt` seeds the equivocation
  /// group split.
  void set_adversarial(AdversarialMode mode, SimClock::Micros window_us = 0,
                       std::uint64_t partition_salt = 0);
  const AdversarialSpec& adversarial() const noexcept { return adversarial_; }
  bool adversarial_active() const noexcept {
    return adversarial_.mode != AdversarialMode::kNone;
  }

  /// Forgets every knob and outage window (permanent entries included).
  void clear();

  bool in_outage(SimClock::Micros now_us) const;

  /// Consults the schedule for one operation at the current virtual time.
  /// Draws from the schedule's private RNG stream; deterministic per seed.
  FaultActions on_operation(FaultOp op);

  /// Number of on_operation consultations so far (for tests / debugging).
  std::uint64_t decisions() const noexcept { return decisions_; }

 private:
  SimClockPtr clock_;
  Rng rng_;
  std::vector<OutageWindow> outages_;
  double transient_error_prob_ = 0.0;
  double timeout_prob_ = 0.0;
  double tail_latency_prob_ = 0.0;
  double tail_latency_factor_ = 1.0;
  double read_corruption_prob_ = 0.0;
  double partial_write_prob_ = 0.0;
  bool down_ = false;
  bool byzantine_ = false;
  AdversarialSpec adversarial_;
  std::uint64_t decisions_ = 0;
};

using FaultSchedulePtr = std::shared_ptr<FaultSchedule>;

// ---------------------------------------------------------------- crashes
//
// Client-side process death, as opposed to the cloud-side faults above. A
// CrashSchedule is shared by every layer of one client stack (Scfs close
// path, LogService::append, RecoveryService); each layer announces the named
// point it has just passed via maybe_crash(). When the armed point is hit,
// maybe_crash throws ClientCrash: the in-flight operation unwinds through
// the stack and the owner (agent / recovery service) drops all in-RAM state,
// exactly as a kill -9 between two durable steps would.

/// Named instants of the close / append / recovery pipelines at which the
/// client process can die. The order within one close() is the declaration
/// order: intent journal, file put, log payload put, metadata append.
enum class CrashPoint {
  kBeforeFilePut = 0,   // close(): nothing durable yet (not even the intent)
  kAfterLogIntent,      // intent journaled; neither file nor payload uploaded
  kAfterFilePut,        // file object durable; log pipeline not started
  kAfterLogPayloadPut,  // log payload durable; metadata not committed
  kAfterMetaAppend,     // record tuple committed; aggregates still stale
  kMidRecoverAll,       // recover_all(): between two files
  // Compromise-response pipeline (revocation + keystore rotation). These
  // model the admin workstation dying mid-response; every step before the
  // crash is durable (coordination tuples / cloud floors) and the retried
  // pipeline must converge without double-applying.
  kAfterRevocationFloor,   // floor quorum-committed; no cloud told yet
  kMidFloorPropagation,    // some clouds enforce the floor, others do not
  kAfterRotationRecord,    // rotate record in the chain; keystore still old
  kAfterKeystoreReseal,    // fresh deal published; session key not re-registered
  // Cloud-set reconfiguration pipeline (quarantine -> spare migration). The
  // admin dies between durable steps; the resumed pipeline must converge to
  // bit-identical unit contents on the new cloud set.
  kAfterMembershipManifest,  // new membership CAS-published; no share migrated
  kMidShareMigration,        // some units migrated + stamped, others not
};
inline constexpr std::size_t kCrashPointCount = 12;
/// The close / append / recovery prefix of the enum. The generic crash soak
/// (crash_test, bench_crash_resilience) arms each of these against the
/// standard close workload; the rotation points only fire inside the
/// compromise-response pipeline and have their own soak.
inline constexpr std::size_t kClosePathCrashPointCount = 6;

/// Human-readable name ("after_file_put", ...) for logs and bench output.
const char* crash_point_name(CrashPoint p);

/// Thrown by CrashSchedule::maybe_crash. Deliberately NOT derived from
/// std::exception: generic catch(const std::exception&) blocks must never
/// swallow a simulated process death.
struct ClientCrash {
  CrashPoint point;
};

/// One-shot crash trigger. arm() selects the point (and how many hits of it
/// to let pass first); the matching maybe_crash() call throws ClientCrash
/// and disarms, so the restarted client replays cleanly.
///
/// Hangs model the other way a client goes dark mid-pipeline: a GC pause, a
/// network partition, a stalled VM. arm_hang() stalls the client at a point
/// instead of killing it — the bound clock jumps forward by the hang
/// duration and the pipeline then CONTINUES, oblivious that the world moved
/// on (leases expire, contenders evict). The optional hang hook runs while
/// the client is stalled; multi-client tests use it to interleave a
/// contender's actions (eviction, a competing write) into the hang window.
class CrashSchedule {
 public:
  CrashSchedule() = default;

  /// Arms the schedule: the (skip_hits+1)-th consultation of `point` throws.
  void arm(CrashPoint point, std::uint64_t skip_hits = 0);
  void disarm() noexcept { armed_ = false; }
  bool armed() const noexcept { return armed_; }

  /// Arms a one-shot hang: the (skip_hits+1)-th consultation of `point`
  /// advances the bound clock by `duration_us` and keeps going. Requires
  /// bind_clock() first (throws std::logic_error when it fires unbound).
  void arm_hang(CrashPoint point, SimClock::Micros duration_us,
                std::uint64_t skip_hits = 0);
  void disarm_hang() noexcept { hang_armed_ = false; }
  /// Clock the hang advances. The schedule keeps only a reference; one
  /// schedule serves every client of one deployment, which shares one clock.
  void bind_clock(SimClockPtr clock) noexcept { clock_ = std::move(clock); }
  /// Runs while a fired hang stalls the client, after the clock jump:
  /// everything the rest of the world did during the stall.
  void set_hang_hook(std::function<void()> hook) { hang_hook_ = std::move(hook); }

  /// Consults the schedule; throws ClientCrash when the armed crash fires.
  /// A fired hang advances the clock (and runs the hook) instead. Counts
  /// every consultation, armed or not (for tests and benches).
  void maybe_crash(CrashPoint point);

  /// Crashes fired so far / the point of the most recent one.
  std::uint64_t crashes() const noexcept { return crashes_; }
  CrashPoint last_crash() const noexcept { return last_crash_; }
  /// Hangs fired so far.
  std::uint64_t hangs() const noexcept { return hangs_; }
  /// Consultations of `point` so far (for choosing skip_hits).
  std::uint64_t hits(CrashPoint point) const;

 private:
  bool armed_ = false;
  CrashPoint armed_point_ = CrashPoint::kBeforeFilePut;
  std::uint64_t skip_remaining_ = 0;
  bool hang_armed_ = false;
  CrashPoint hang_point_ = CrashPoint::kBeforeFilePut;
  SimClock::Micros hang_duration_us_ = 0;
  std::uint64_t hang_skip_remaining_ = 0;
  SimClockPtr clock_;
  std::function<void()> hang_hook_;
  std::uint64_t hit_counts_[kCrashPointCount] = {};
  std::uint64_t crashes_ = 0;
  std::uint64_t hangs_ = 0;
  CrashPoint last_crash_ = CrashPoint::kBeforeFilePut;
};

using CrashSchedulePtr = std::shared_ptr<CrashSchedule>;

}  // namespace rockfs::sim
