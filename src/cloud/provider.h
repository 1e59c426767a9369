// Simulated cloud object-storage provider (the Amazon-S3 stand-in).
//
// One instance models one provider/bucket: a flat key -> object map with
// token-enforced access control, a WAN latency model, per-byte traffic
// accounting, and fault injection (outage, corruption, Byzantine responses).
// Operations never advance the shared clock; they return sim::Timed results
// that callers compose (see sim/timed.h).
//
// Namespace convention (enforced, not advisory):
//   keys starting with "logs/"  — append-only recovery log objects
//   everything else             — regular file objects
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "cloud/token.h"
#include "common/result.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "sim/faults.h"
#include "sim/network.h"
#include "sim/timed.h"

namespace rockfs::cloud {

/// Prefix of the append-only log namespace.
inline constexpr const char* kLogPrefix = "logs/";

struct ObjectStat {
  std::string key;
  std::size_t size = 0;
  std::int64_t modified_us = 0;
  std::string writer;
};

class CloudProvider {
 public:
  CloudProvider(std::string name, sim::SimClockPtr clock, sim::LinkProfile profile,
                std::uint64_t seed);

  const std::string& name() const noexcept { return name_; }

  // ---- token management (provider side) ----

  /// Issues a token; `validity_us` 0 means no expiry. The token is stamped
  /// with the user's current issuance epoch (>= any applied revocation floor).
  AccessToken issue_token(const std::string& user_id, const std::string& fs_id,
                          TokenScope scope, std::int64_t validity_us = 0);
  /// Revoked tokens fail verification from now on.
  void revoke_token(const AccessToken& token);

  // ---- epoch revocation (compromise response) ----
  //
  // Each user has a monotone revocation floor, raised by the admin after a
  // compromise: every operation presenting a token whose epoch is below the
  // floor fails kRevoked, regardless of MAC validity or expiry. The floor is
  // quorum-stored at the coordination service and pushed to each cloud
  // individually, so a cloud in outage simply has not learned it yet — the
  // admin retries the push after recovery and the cloud enforces from then
  // on (fail-closed: stale tokens never regain validity).

  /// Admin control op raising `user_id`'s revocation floor to at least
  /// `floor`. Subject to the fault schedule: a cloud in outage returns
  /// kUnavailable and the caller must retry once it recovers. Also bumps the
  /// issuance epoch so replacement tokens minted afterwards survive the floor.
  sim::Timed<Status> apply_revocation_floor(const AccessToken& admin_token,
                                            const std::string& user_id,
                                            std::uint64_t floor);
  /// Rotation-time replacement issuance: like issue_token but subject to the
  /// fault schedule (an unreachable cloud cannot mint) and stamped at
  /// max(current issuance epoch, floor_hint), so the token outlives a floor
  /// of `floor_hint` even when that floor has not reached this cloud yet.
  sim::Timed<Result<AccessToken>> reissue_token(const AccessToken& admin_token,
                                                const std::string& user_id,
                                                TokenScope scope, std::uint64_t floor_hint,
                                                std::int64_t validity_us = 0);
  /// The floor this cloud currently enforces for `user_id` (0 = never revoked).
  std::uint64_t revocation_floor(const std::string& user_id) const;
  /// The epoch the next issue_token for `user_id` would carry.
  std::uint64_t token_epoch(const std::string& user_id) const;

  // ---- object operations (each returns payload + simulated delay) ----

  sim::Timed<Status> put(const AccessToken& token, const std::string& key, BytesView data);
  sim::Timed<Result<Bytes>> get(const AccessToken& token, const std::string& key);
  sim::Timed<Status> remove(const AccessToken& token, const std::string& key);
  sim::Timed<Result<std::vector<ObjectStat>>> list(const AccessToken& token,
                                                   const std::string& prefix);

  // ---- introspection / accounting ----

  bool exists(const std::string& key) const { return objects_.contains(key); }
  /// Total bytes currently stored (the Fig. 6 storage metric).
  std::uint64_t stored_bytes() const noexcept;
  sim::TrafficMeter& traffic() noexcept { return traffic_; }
  const sim::TrafficMeter& traffic() const noexcept { return traffic_; }

  // ---- fault injection ----

  /// Time-varying fault schedule consulted on every operation: outage
  /// windows, transient errors, timeouts, tail-latency storms, partial
  /// writes and read corruption (sim/faults.h). The legacy flags below are
  /// one-line wrappers over its permanent entries.
  sim::FaultSchedule& faults() noexcept { return *faults_; }
  const sim::FaultSchedule& faults() const noexcept { return *faults_; }

  /// While unavailable every operation fails with kUnavailable.
  void set_available(bool available) noexcept { faults_->set_down(!available); }
  bool available() const noexcept { return !faults_->down(); }
  /// While Byzantine, get() returns corrupted payloads (but claims success).
  void set_byzantine(bool byzantine) noexcept { faults_->set_byzantine(byzantine); }
  /// Flips bits of a stored object in place (silent data corruption).
  Status corrupt_object(const std::string& key);
  /// Deletes an object bypassing access control (models provider-side loss).
  Status lose_object(const std::string& key);

  // ---- cold storage tier (Amazon-Glacier-like; paper footnote 3) ----
  //
  // The snapshot/compaction mechanism moves old log-entry payloads here:
  // they stop counting against hot storage but remain retrievable (slowly).
  // Archival is admin-only; it is the sanctioned way to shrink the log
  // without violating its append-only guarantee.

  /// Moves a hot object into the cold tier (admin token required).
  sim::Timed<Status> archive(const AccessToken& token, const std::string& key);
  /// Retrieves a cold object (hours-scale simulated delay).
  sim::Timed<Result<Bytes>> restore_from_cold(const AccessToken& token,
                                              const std::string& key);
  bool archived(const std::string& key) const { return cold_.contains(key); }
  std::uint64_t cold_bytes() const noexcept;

  const sim::SimClockPtr& clock() const noexcept { return clock_; }

 private:
  struct Object {
    Bytes data;
    std::int64_t modified_us = 0;
    std::string writer;
  };

  /// One accepted mutation of a key, in acceptance order. The history feeds
  /// adversarial serving (sim::AdversarialMode): a malicious provider keeps
  /// accepting and acking writes like an honest one but answers reads from a
  /// reconstructed old view — every byte it serves is something it really
  /// stored, so signatures and digests verify.
  struct HistoryEntry {
    Bytes data;
    std::int64_t modified_us = 0;
    std::string writer;
    bool removed = false;
  };

  Status authorize(const AccessToken& token, const std::string& key, bool write,
                   bool remove) const;
  Status check_token(const AccessToken& token) const;

  /// The operation classes the checked-entry helper distinguishes.
  enum class OpKind { kGet, kPut, kRemove, kList, kArchive, kRestore };
  static constexpr std::size_t kOpKinds = 6;

  /// Cached registry handles, one set per OpKind: registry lookups happen
  /// once in the constructor, op wrappers touch only atomics (hot path).
  struct OpMetrics {
    obs::Counter* count = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Histogram* delay_us = nullptr;
  };
  OpMetrics& op_metrics(OpKind kind) { return op_metrics_[static_cast<std::size_t>(kind)]; }
  /// Records span fields + cached counters for one finished operation.
  void observe_op(OpKind kind, ErrorCode outcome, std::uint64_t bytes,
                  sim::SimClock::Micros delay_us);

  sim::Timed<Status> put_impl(const AccessToken& token, const std::string& key,
                              BytesView data);
  sim::Timed<Result<Bytes>> get_impl(const AccessToken& token, const std::string& key);
  sim::Timed<Status> remove_impl(const AccessToken& token, const std::string& key);
  sim::Timed<Result<std::vector<ObjectStat>>> list_impl(const AccessToken& token,
                                                        const std::string& prefix);
  sim::Timed<Status> archive_impl(const AccessToken& token, const std::string& key);
  sim::Timed<Result<Bytes>> restore_impl(const AccessToken& token, const std::string& key);

  /// Shared preamble of every object operation: consults the fault schedule,
  /// then runs the token/authorization checks appropriate for `kind`. A
  /// non-ok status means the operation must fail with it; `actions` carries
  /// the fault side-effects (latency factor, corruption, truncation).
  struct OpGate {
    Status status;
    sim::FaultActions actions;
  };
  OpGate enter_op(const AccessToken& token, const std::string& key, OpKind kind);

  /// Applies a fault-schedule latency factor (and the timeout stall) to a
  /// base delay.
  sim::SimClock::Micros charge(sim::SimClock::Micros base_us,
                               const sim::FaultActions& actions) const;

  /// Cutoff instant of the adversarially-served view for `viewer`, or -1
  /// when this viewer gets the live view (honest provider, equivocation
  /// fresh group).
  std::int64_t adversarial_cutoff(const std::string& viewer) const;
  /// Latest surviving mutation of `key` at or before `cutoff_us`; nullptr if
  /// the key did not exist (or was removed) in that view.
  const HistoryEntry* view_at(const std::string& key, std::int64_t cutoff_us) const;
  /// Records one accepted mutation in the serving history.
  void record_history(const std::string& key, const Object& obj, bool removed);

  std::string name_;
  sim::SimClockPtr clock_;
  sim::NetworkModel net_;
  Rng rng_;
  Bytes token_secret_;
  std::map<std::string, Object> objects_;
  std::map<std::string, std::vector<HistoryEntry>> history_;
  std::map<std::string, Object> cold_;
  std::set<std::uint64_t> revoked_nonces_;
  std::map<std::string, std::uint64_t> token_epochs_;       // next-issuance epoch
  std::map<std::string, std::uint64_t> revocation_floors_;  // enforced floor
  sim::TrafficMeter traffic_;
  sim::FaultSchedulePtr faults_;
  OpMetrics op_metrics_[kOpKinds];
};

using CloudProviderPtr = std::shared_ptr<CloudProvider>;

/// Provider "cloud-<index>": an S3-like profile with mild heterogeneity
/// (rtt and uplink grow with the index, as in a real cloud-of-clouds) and
/// seed `seed + 1000 * index`. Spare providers continue the index past the
/// initial fleet, so a reconfigured deployment stays in-family.
CloudProviderPtr make_provider(const sim::SimClockPtr& clock, std::size_t index,
                               std::uint64_t seed);
/// Providers 0..count-1 (make_provider).
std::vector<CloudProviderPtr> make_provider_fleet(const sim::SimClockPtr& clock,
                                                  std::size_t count, std::uint64_t seed);

}  // namespace rockfs::cloud
