// Assembles a complete simulated RockFS deployment: the virtual clock, the
// cloud-of-clouds fleet (n = 3f+1 providers with S3-like WAN profiles), the
// BFT coordination service, and per-user state (tokens, keystore, PVSS share
// holders, FssAgg setup keys). This mirrors the paper's §6 testbed — 4
// Amazon S3 buckets + 4 DepSpace replicas on GCE + one client VM — and is
// the entry point used by the examples, tests and benchmarks.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "depsky/reconfig.h"
#include "rockfs/agent.h"
#include "rockfs/recovery.h"
#include "rockfs/scrub.h"

namespace rockfs::core {

struct DeploymentOptions {
  std::size_t f = 1;  // clouds and coordination replicas are both 3f+1
  std::uint64_t seed = 2018;
  std::string fs_id = "rockfs";
  AgentOptions agent;  // what add_user(id) gives every user it adds
  /// > 0: the deployment owns one shared thread pool of this many workers
  /// and hands it to every agent, the admin storage and the scrubber, so
  /// the whole stack (including the SCFS close path) fans out for real.
  /// 0 (default) keeps everything inline. Seeded runs are byte-identical
  /// at any value (no latency is emulated, so quorum joins are barriers).
  std::size_t executor_threads = 0;
};

class Deployment {
 public:
  explicit Deployment(DeploymentOptions options = {});

  const sim::SimClockPtr& clock() const noexcept { return clock_; }
  const std::vector<cloud::CloudProviderPtr>& clouds() const noexcept { return clouds_; }
  const std::shared_ptr<coord::CoordinationService>& coordination() const noexcept {
    return coordination_;
  }

  /// Provisions a user end-to-end (paper setup flow): issues t_u/t_l at
  /// every cloud, generates PR_U and the FssAgg keys, builds and seals the
  /// keystore among {device, coordination, external} holders (k = 2 of 3),
  /// stores the sealed keystore, and logs the agent in. Either overload
  /// wires the agent to this deployment (RockFsAgent's constructor); only
  /// the caller's choices come from `options` (default: DeploymentOptions::agent).
  RockFsAgent& add_user(const std::string& user_id);
  RockFsAgent& add_user(const std::string& user_id, const AgentOptions& options);

  RockFsAgent& agent(const std::string& user_id);

  /// Administrator-side recovery service for a user's files. Shares the
  /// deployment's crash schedule (crash_schedule()) for fault injection.
  RecoveryService make_recovery_service(const std::string& user_id);

  /// Administrator-side anti-entropy scrubber over a user's log chains
  /// (scrub.h): detects entries whose share redundancy decayed and restores
  /// them to full n-share redundancy.
  LogScrubber make_scrubber(const std::string& user_id, ScrubOptions options = {});

  /// Deployment-wide crash schedule: every agent and recovery service
  /// consults it. Tests arm one crash point on it and drive the workload.
  const sim::CrashSchedulePtr& crash_schedule() const noexcept { return crash_; }
  /// Shared fan-out pool (null when executor_threads == 0).
  const std::shared_ptr<common::Executor>& executor() const noexcept { return executor_; }

  // ---- client-device modelling (for the T2/T3 attack scenarios) ----

  /// Simulated persistent stores for the PVSS holder keys.
  struct UserSecrets {
    SealedKeystore sealed;                 // public; also kept in coordination
    ShareHolder device_holder;             // key on the client disk
    ShareHolder coordination_holder;       // key held by the coordination svc
    ShareHolder external_holder;           // key on the USB stick / smartcard
    std::vector<crypto::Point> holder_pubs;
    fssagg::FssAggKeys chain_keys;         // admin's copy of (A_1, B_1)
    /// PU_U, prepared for DepSky metadata checks: every peer agent and
    /// admin storage of this deployment checks the user's signatures with it.
    crypto::PreparedKeyPtr user_signer;
    bool device_share_destroyed = false;

    /// Every PVSS holder, in share order: device, coordination, external.
    std::vector<ShareHolder> holders() const {
      return {device_holder, coordination_holder, external_holder};
    }

    // ---- credential-revocation state (revocation.h) ----

    /// Epoch of the rotated keystore currently published ("rockks" tuple);
    /// 0 = the setup keystore.
    std::uint64_t keystore_epoch = 0;
    /// Epoch stamped into the tokens the current keystore holds.
    std::uint64_t token_epoch = 0;
    /// Clouds (by index) that still owe a floor push (they were in outage
    /// when the admin propagated the revocation) → the floor to re-apply.
    /// propagate_revocations drains this map; until a cloud gets its floor it
    /// counts as faulty for the lockout property (fail-closed on recovery).
    std::map<std::size_t, std::uint64_t> pending_floor;
    /// Fresh chain keys of every completed rotation, epoch order (the admin's
    /// durable copies; the audit matches them to published manifests).
    std::vector<ChainRotationKeys> rotations;
    /// In-flight rotation, staged on the admin's disk BEFORE the manifest CAS
    /// so a crash after publication can never lose the fresh keys the chain
    /// already depends on. Cleared when the rotation completes.
    struct PendingRotation {
      bool active = false;
      KeystoreRotation rotation;
      RotationManifest manifest;
      std::uint64_t base_count = 0;  // chain index the fresh stream starts at
    };
    PendingRotation pending_rotation;
  };
  UserSecrets& secrets(const std::string& user_id);

  /// Ransomware wipes the device share; subsequent default logins must fail
  /// until the external share is produced (threat T2).
  void destroy_device_share(const std::string& user_id);

  /// Re-login helpers (the agent is logged in by add_user already).
  Status login_default(const std::string& user_id);        // device + coord
  Status login_with_external(const std::string& user_id);  // external + coord

  /// Admin tokens, one per cloud.
  std::vector<cloud::AccessToken> admin_tokens();

  // ---- compromise response (revocation + live keystore rotation) ----

  /// What one respond_to_compromise accomplished.
  struct CompromiseResponse {
    std::uint64_t floor = 0;               // committed revocation floor
    std::size_t clouds_enforcing = 0;      // clouds that applied it now
    std::vector<std::size_t> clouds_pending;  // clouds in outage, floor owed
    std::size_t leases_evicted = 0;
    bool rotated = false;
    std::uint64_t rotation_epoch = 0;
    /// Virtual time from response start to the floor's quorum commit — once
    /// it elapses no pre-rotation credential is accepted anywhere non-faulty.
    sim::SimClock::Micros lockout_latency_us = 0;
    /// Virtual time of the rotation itself (reissue → reseal → re-login).
    sim::SimClock::Micros rotation_us = 0;
  };

  /// The full §4.1 response pipeline for one compromised user: commit the
  /// revocation floor at the coordination quorum, push it to every reachable
  /// cloud (unreachable ones are parked in pending_floor, fail-closed), evict
  /// the user's leases (PR 4 fencing), rotate the keystore — fresh tokens at
  /// the new epoch, fresh S_U, fresh FssAgg chain keys with a signed rotation
  /// record in the log, resealed under a fresh PVSS deal — and log the honest
  /// client back in from the new deal.
  ///
  /// Crash-resumable: every durable step lands in coordination tuples, cloud
  /// state, or the UserSecrets staging area before the next crash point, so
  /// re-invoking after kCrashed converges without double-applying. Returns
  /// kCrashed when the armed crash schedule fires mid-pipeline.
  Result<CompromiseResponse> respond_to_compromise(const std::string& user_id);

  /// Anti-entropy: retries every pending floor push (clouds that were in
  /// outage when their user was revoked). Returns the number applied.
  std::size_t propagate_revocations();

  /// Outcome of apply_audit_verdict.
  struct VerdictOutcome {
    std::set<std::string> implicated;   // users responded to
    std::set<std::string> overridden;   // flagged but manually cleared
    std::map<std::string, CompromiseResponse> responses;
  };

  /// Wires the intrusion detector's verdict (audit.h) into the response: the
  /// author of every flagged record is revoked and rotated, except users the
  /// administrator manually cleared (`manual_overrides` — the human veto over
  /// a false positive).
  Result<VerdictOutcome> apply_audit_verdict(
      const std::vector<LogRecord>& records, const std::set<std::uint64_t>& flagged_seqs,
      const std::set<std::string>& manual_overrides = {});

  /// Public half of the admin keypair (verifies rotation manifests).
  Bytes admin_public_key() const;
  /// The same key prepared for DepSky metadata checks, shared by every agent
  /// (recovered files carry the admin's signature).
  const crypto::PreparedKeyPtr& admin_signer() const noexcept { return admin_signer_; }

  // ---- malicious-cloud resilience (depsky/reconfig.h) ----

  /// Deployment-wide freshness witness: every client session (agents, admin
  /// storage, scrubbers) records into and checks against the same instance,
  /// so a cloud that answers one session below what it told another is
  /// caught as equivocating.
  const depsky::VersionWitnessPtr& witness() const noexcept { return witness_; }

  /// Cloud-set membership epoch currently in force (0 = the initial fleet).
  std::uint64_t membership_epoch() const noexcept { return membership_epoch_; }

  /// The cloud slot some client session has quarantined for proven
  /// misbehavior, or npos when every cloud is still in good standing.
  /// (Quarantine is per-client; any client's verdict is grounds to
  /// reconfigure, since it is backed by a provable contradiction.)
  static constexpr std::size_t kNoCloud = static_cast<std::size_t>(-1);
  std::size_t quarantined_cloud() const;

  /// What one reconfigure_cloud invocation accomplished.
  struct ReconfigurationReport {
    std::uint64_t epoch = 0;            // membership epoch now in force
    std::size_t replaced_index = 0;
    std::string old_cloud;              // provider name evicted
    std::string new_cloud;              // spare provider name
    std::size_t units_total = 0;        // units found on the retained clouds
    std::size_t units_migrated = 0;     // migrated by THIS invocation
    std::size_t units_resumed = 0;      // already done-marked (crash resume)
    std::size_t shares_rebuilt = 0;     // shares re-created on the new set
    std::size_t metas_stamped = 0;      // file units re-signed at the epoch
    sim::SimClock::Micros duration_us = 0;
  };

  /// Replaces the cloud at `replaced_index` with a freshly provisioned spare:
  /// publishes an admin-signed MembershipManifest (CAS, one winner per
  /// epoch), mints tokens for every user at the spare and reseals their
  /// keystores, swaps the fleet slot, then migrates every unit found on the
  /// retained clouds — DepSky repair rebuilds the replaced cloud's share on
  /// the spare, file units get the new epoch stamped into their metadata —
  /// recording a per-unit done-marker so a crashed migration resumes where
  /// it died. Finishes by re-logging every agent in at the new epoch.
  ///
  /// Crash-resumable like respond_to_compromise: kAfterMembershipManifest
  /// and kMidShareMigration fire here; re-invoking after kCrashed converges
  /// without double-applying.
  Result<ReconfigurationReport> reconfigure_cloud(std::size_t replaced_index);

 private:
  /// DepSky client writing as the admin and trusting `trusted_writers`;
  /// `session` names it to the freshness witness. Recovery, rotation and
  /// reconfiguration use {user_signers(), "admin"}, the scrubber
  /// {its user's signer, "scrub"}.
  std::shared_ptr<depsky::DepSkyClient> make_admin_storage(
      std::vector<crypto::PreparedKeyPtr> trusted_writers, std::string session);
  /// Every user's DepSky signer, in user-id order.
  std::vector<crypto::PreparedKeyPtr> user_signers() const;

  /// login_default, falling back to login_with_external.
  Status relogin(const std::string& user_id);
  /// Writes the user's "rockks" tuple: the sealed keystore at `epoch`.
  Status publish_keystore(const std::string& user_id, std::uint64_t epoch,
                          const SealedKeystore& sealed);
  /// Unseals the user's keystore admin-side, from the coordination and
  /// external holders.
  Result<Keystore> admin_unseal(const UserSecrets& us);

  /// Mints tokens for every user at the spare and reseals their keystores
  /// with the slot's tokens replaced (same holders, same keystore epoch).
  Status adopt_spare_tokens(std::size_t slot, const cloud::CloudProviderPtr& spare);

  /// Every unit name present on the retained clouds (union of listings,
  /// `<unit>.meta` / `<unit>.v<V>.s<I>` keys collapsed) — the scrubber's
  /// orphan-walk idiom widened to the whole namespace.
  std::vector<std::string> enumerate_units(std::size_t skip_index);

  DeploymentOptions options_;
  sim::SimClockPtr clock_;
  /// Shared fan-out pool (executor_threads > 0), handed to every agent and
  /// admin-side DepSky client. Declared before the agents map so workers
  /// outlive nothing that might still queue onto them.
  std::shared_ptr<common::Executor> executor_;
  std::vector<cloud::CloudProviderPtr> clouds_;
  std::shared_ptr<coord::CoordinationService> coordination_;
  crypto::Drbg setup_drbg_;
  crypto::KeyPair admin_keys_;  // PU_A/PR_A: signs recovered file versions
  crypto::PreparedKeyPtr admin_signer_;  // PU_A, prepared
  sim::CrashSchedulePtr crash_;
  std::map<std::string, std::unique_ptr<RockFsAgent>> agents_;
  std::map<std::string, UserSecrets> secrets_;

  // ---- malicious-cloud resilience state ----
  depsky::VersionWitnessPtr witness_;
  std::uint64_t membership_epoch_ = 0;
  std::size_t next_spare_ = 0;  // suffix of the next spare provider name
  /// In-flight reconfiguration, staged before the manifest CAS so a crashed
  /// pipeline resumes the same epoch/spare instead of minting fresh ones.
  struct PendingReconfiguration {
    bool active = false;
    depsky::MembershipManifest manifest;
    cloud::CloudProviderPtr spare;
  };
  PendingReconfiguration pending_reconfig_;
};

}  // namespace rockfs::core
