// The RockFS agent (paper §2.3/§2.4): the client-side middleware that sits
// between the user and the cloud-backed file system. It owns
//   * the keystore lifecycle — login reconstructs the keystore in RAM from
//     PVSS shares (device + coordination service by default, external memory
//     for recovery) and nothing secret ever touches the simulated disk,
//   * the SCFS instance, with the encrypting cache transform installed,
//   * the per-user client cache, built once here and handed to every
//     session's SCFS (it outlives logouts; revocation drops its contents),
//   * the log service, wired into SCFS's close path so that the log upload
//     runs in parallel with the file upload.
// Every file call goes through one guard: no session → kPermissionDenied,
// and a crash point fired anywhere beneath it tears the session down and
// reports kCrashed. The fleet, crash schedule, pool, freshness witness and
// membership epoch come from the Deployment that builds the agent;
// AgentOptions holds only the caller's choices.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "rockfs/cache_security.h"
#include "rockfs/keystore.h"
#include "rockfs/logservice.h"
#include "scfs/scfs.h"

namespace rockfs::core {

class Deployment;

struct AgentOptions {
  scfs::SyncMode sync_mode = scfs::SyncMode::kNonBlocking;
  depsky::Protocol protocol = depsky::Protocol::kCA;
  bool enable_logging = true;        // false = plain SCFS (the paper's baseline)
  bool enable_cache_crypto = true;   // false = plaintext cache (stock SCFS)
  bool compress_log = false;         // LZ-compress ld_fu payloads (§6.2 extension)
  std::int64_t session_key_validity_us = 3'600'000'000;  // 1 virtual hour
  /// Lease TTL for advisory locks (scfs/lease.h); an expired lease is
  /// evictable by any contender.
  std::int64_t lease_ttl_us = 30'000'000;
  /// Client cache (src/cache, ARCHITECTURE §13). On disables all three tiers.
  bool enable_cache = true;
  /// Sizing/TTL knobs of the per-user cache the agent builds.
  cache::CacheOptions cache_config;
  /// Write-back staging of close()s (off = write-through, the PR ≤9 path).
  bool write_back = false;
};

/// Where the agent finds PVSS share-holder keys at login time. The device
/// holder key models the share on the client disk; the external holder key
/// models the USB stick / smart card (paper Fig. 2).
struct LoginMaterial {
  std::optional<ShareHolder> device;
  std::optional<ShareHolder> coordination;
  std::optional<ShareHolder> external;
};

class RockFsAgent {
 public:
  using Fd = scfs::Scfs::Fd;

  /// Takes the deployment's wiring — fleet (f derives from n = 3f+1),
  /// coordination service, clock, crash schedule, pool, freshness witness,
  /// membership epoch, and the admin key as the first trusted writer — and
  /// builds the per-user cache when `options.enable_cache` is set.
  RockFsAgent(const Deployment& deployment, std::string user_id, AgentOptions options,
              std::vector<crypto::Point> holder_pubs, std::size_t holder_threshold);

  // ---- session lifecycle (paper §4.1) ----

  /// Reconstructs the keystore from >= k of the supplied holders and brings
  /// up the file-system stack. Fails with kIntegrity on tampered shares.
  Status login(const SealedKeystore& sealed, const LoginMaterial& material);
  void logout();
  bool logged_in() const noexcept { return fs_ != nullptr; }

  // ---- file API (valid only while logged in) ----

  Result<Fd> create(const std::string& path);
  Result<Fd> open(const std::string& path);
  Result<Bytes> read(Fd fd, std::size_t offset, std::size_t length);
  Status write(Fd fd, std::size_t offset, BytesView data);
  Status append(Fd fd, BytesView data);
  Status truncate(Fd fd, std::size_t size);
  Status close(Fd fd);
  sim::Timed<Status> close_timed(Fd fd);
  Status unlink(const std::string& path);
  Result<scfs::FileStat> stat(const std::string& path);
  Result<std::vector<std::string>> readdir(const std::string& prefix);
  void drain_background();

  // ---- write-back control (cache/writeback.h; no-ops when wb is off) ----

  /// fsync semantics: commit the staged write-back for `path` now.
  Status flush(const std::string& path);
  /// Commit every staged write-back (called by logout automatically).
  Status flush_all();

  // ---- advisory locking (lease + fencing epoch, scfs/lease.h) ----

  Status lock(const std::string& path);
  Status unlock(const std::string& path);
  /// Lease epoch this session believes it holds for `path` (stale after an
  /// eviction — the fencing check is what catches the divergence).
  std::optional<std::uint64_t> held_epoch(const std::string& path) const;

  /// Trusts `key` as a DepSky metadata signer, now and for future logins:
  /// required for reading files last written by another user of a shared
  /// namespace. Every session checks with this one handle.
  void trust_writer(crypto::PreparedKeyPtr key);

  // ---- cloud-set reconfiguration (depsky/reconfig.h) ----

  /// Swaps the provider at `index` (a reconfiguration replaced a quarantined
  /// cloud). Takes effect at the next login, which rebuilds the storage
  /// stack over the new set.
  void replace_cloud(std::size_t index, cloud::CloudProviderPtr cloud);
  /// Adopts a newer membership epoch, now and for future logins; the live
  /// storage client (if any) starts fencing against it immediately.
  void set_membership_epoch(std::uint64_t epoch);
  /// The live DepSky client, or null when logged out (tests inspect its
  /// per-cloud quarantine state).
  std::shared_ptr<depsky::DepSkyClient> storage() const noexcept { return storage_; }

  /// Convenience: create-or-open + overwrite content + close.
  Status write_file(const std::string& path, BytesView content);
  /// Convenience: open + read-all + close.
  Result<Bytes> read_file(const std::string& path);

  // ---- introspection ----

  const std::string& user_id() const noexcept { return user_id_; }
  scfs::Scfs& fs();
  const Keystore& keystore() const;
  /// The session key S_U currently held in RAM (minted on the spot if the
  /// cache has not forced one yet). Attack drivers use this: a compromised
  /// device reads the key straight out of the agent's memory (threat T3).
  Bytes current_session_key();
  /// Sequence number of the next log entry (== entries logged so far).
  std::uint64_t log_seq() const;
  /// The per-user cache handle (null when disabled). Outlives sessions:
  /// logout keeps it, revocation drops its contents.
  const cache::ClientCachePtr& cache() const noexcept { return cache_; }
  /// Drops every cache tier for this user (compromise response / tests).
  void drop_cache();

 private:
  /// Runs one file call against the live session: kPermissionDenied
  /// without one, and a crash point fired inside `call` lands as kCrashed
  /// (crash_landing). Every public file call goes through here.
  template <typename Call>
  std::invoke_result_t<Call&, scfs::Scfs&> guarded(Call&& call);
  /// Turns a fired crash point into the dead-client outcome: the session is
  /// torn down (all in-RAM state dropped) and the call reports kCrashed.
  Error crash_landing(const sim::ClientCrash& crash);

  std::string user_id_;
  AgentOptions options_;
  std::vector<cloud::CloudProviderPtr> clouds_;
  std::shared_ptr<coord::CoordinationService> coordination_;
  sim::SimClockPtr clock_;
  /// Crash points along the close path consult it; a fired crash tears the
  /// session down exactly like a dead client process.
  sim::CrashSchedulePtr crash_;
  std::shared_ptr<common::Executor> executor_;
  depsky::VersionWitnessPtr witness_;
  /// DepSky signers this agent trusts: the admin key (so recovered files
  /// verify), then every peer of the shared namespace in the order added.
  /// Prepared keys, handed to every session, so a key's comb is built on its
  /// first check and kept across logins.
  std::vector<crypto::PreparedKeyPtr> trusted_writers_;
  /// This user's own public key, prepared at the first login and reused by
  /// every later one (a login every 32 ops must not rebuild its comb).
  crypto::PreparedKeyPtr own_key_;
  /// Cloud-set membership epoch this agent believes current (depsky/
  /// reconfig.h). Writes fail closed (kFenced) against newer-epoch metadata.
  std::uint64_t membership_epoch_;
  std::vector<crypto::Point> holder_pubs_;
  std::size_t holder_threshold_;
  /// Login counter: each login is a distinct session ("u-s1", "u-s2", ...),
  /// so a relogin after a crash cannot silently reuse its predecessor's
  /// lease — it must renew through the normal eviction path.
  std::uint64_t logins_ = 0;

  // Populated by login(), torn down by logout(). The keystore lives here,
  // in "RAM", only.
  std::unique_ptr<Keystore> keystore_;
  std::shared_ptr<crypto::Drbg> drbg_;
  std::shared_ptr<depsky::DepSkyClient> storage_;
  std::unique_ptr<scfs::Scfs> fs_;
  std::unique_ptr<LogService> log_;
  std::shared_ptr<SessionKeyManager> session_keys_;
  /// Built once, from options_.cache_config, and handed to every login's
  /// SCFS: survives logout/login cycles (the whole point of sealing
  /// entries); only drop_cache(), key rotation, or compromise response
  /// empty it.
  cache::ClientCachePtr cache_;
};

}  // namespace rockfs::core
