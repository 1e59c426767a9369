#include "rockfs/deployment.h"

#include "obs/metrics.h"
#include "obs/trace.h"

#include <algorithm>
#include <stdexcept>

#include "common/hex.h"

namespace rockfs::core {

Deployment::Deployment(DeploymentOptions options)
    : options_(std::move(options)),
      clock_(std::make_shared<sim::SimClock>()),
      executor_(options_.executor_threads > 0
                    ? std::make_shared<common::ThreadPool>(options_.executor_threads)
                    : nullptr),
      clouds_(cloud::make_provider_fleet(clock_, 3 * options_.f + 1, options_.seed)),
      coordination_(std::make_shared<coord::CoordinationService>(clock_, options_.f,
                                                                 options_.seed ^ 0xC0C0)),
      setup_drbg_(to_bytes("rockfs.deployment"), to_bytes(std::to_string(options_.seed))),
      admin_keys_(crypto::generate_keypair(setup_drbg_)),
      admin_signer_(std::make_shared<const crypto::PreparedKey>(admin_keys_.public_key)),
      crash_(std::make_shared<sim::CrashSchedule>()),
      witness_(std::make_shared<depsky::VersionWitness>()),
      next_spare_(clouds_.size()) {
  // Spans across this deployment's stack stamp their start times from the
  // deployment's virtual clock.
  obs::tracer().bind_clock(clock_);
  // Hangs (arm_hang) advance this clock; crashes need no clock.
  crash_->bind_clock(clock_);
}

RockFsAgent& Deployment::add_user(const std::string& user_id) {
  return add_user(user_id, options_.agent);
}

RockFsAgent& Deployment::add_user(const std::string& user_id, const AgentOptions& options) {
  if (agents_.contains(user_id)) {
    throw std::invalid_argument("Deployment::add_user: duplicate user " + user_id);
  }

  UserSecrets us;

  // Cloud providers issue the two token families (Table 1: t_u, t_l).
  Keystore ks;
  ks.user_id = user_id;
  const crypto::KeyPair user_keys = crypto::generate_keypair(setup_drbg_);
  ks.user_private_key = user_keys.private_key.to_bytes_be();
  us.user_signer = std::make_shared<const crypto::PreparedKey>(user_keys.public_key);
  for (auto& c : clouds_) {
    ks.file_tokens.push_back(
        c->issue_token(user_id, options_.fs_id, cloud::TokenScope::kFiles));
    ks.log_tokens.push_back(
        c->issue_token(user_id, options_.fs_id, cloud::TokenScope::kLogAppend));
  }

  // Administrator exchanges the FssAgg setup keys (A_1, B_1) — the agent
  // carries the current evolving copies in its keystore, the admin keeps the
  // originals for verification (§3.2).
  us.chain_keys = fssagg::fssagg_keygen(setup_drbg_);
  ks.fssagg_key_a = us.chain_keys.a1;
  ks.fssagg_key_b = us.chain_keys.b1;

  // Session key: generated lazily by the SessionKeyManager at first use.
  ks.session_key = {};
  ks.session_key_expiry_us = 0;

  // PVSS holders: device, coordination service, external memory (k = 2 of 3,
  // the paper's default split).
  us.device_holder = {"device", crypto::generate_keypair(setup_drbg_)};
  us.coordination_holder = {"coordination", crypto::generate_keypair(setup_drbg_)};
  us.external_holder = {"external", crypto::generate_keypair(setup_drbg_)};
  for (const auto& holder : us.holders()) us.holder_pubs.push_back(holder.keys.public_key);
  us.sealed = seal_keystore(ks, us.holders(), /*k=*/2, setup_drbg_, /*password=*/{},
                            executor_.get());
  publish_keystore(user_id, /*epoch=*/0, us.sealed).expect("store sealed keystore");

  // The agent takes the deployment's wiring itself; `options` are only the
  // caller's choices.
  auto agent = std::make_unique<RockFsAgent>(*this, user_id, options, us.holder_pubs,
                                             /*threshold=*/2);
  secrets_[user_id] = std::move(us);
  agents_[user_id] = std::move(agent);

  // Shared-namespace writer roster: every user trusts every other user's
  // DepSky signer, so a file last written by a peer verifies at read time.
  for (auto& [other_id, other_agent] : agents_) {
    if (other_id == user_id) continue;
    other_agent->trust_writer(secrets_[user_id].user_signer);
    agents_[user_id]->trust_writer(secrets_[other_id].user_signer);
  }

  if (auto st = login_default(user_id); !st.ok()) {
    throw std::runtime_error("Deployment::add_user: login failed: " + st.error().message);
  }
  return *agents_[user_id];
}

RockFsAgent& Deployment::agent(const std::string& user_id) {
  const auto it = agents_.find(user_id);
  if (it == agents_.end()) {
    throw std::invalid_argument("Deployment::agent: unknown user " + user_id);
  }
  return *it->second;
}

Deployment::UserSecrets& Deployment::secrets(const std::string& user_id) {
  const auto it = secrets_.find(user_id);
  if (it == secrets_.end()) {
    throw std::invalid_argument("Deployment::secrets: unknown user " + user_id);
  }
  return it->second;
}

void Deployment::destroy_device_share(const std::string& user_id) {
  secrets(user_id).device_share_destroyed = true;
}

Status Deployment::login_default(const std::string& user_id) {
  auto& us = secrets(user_id);
  LoginMaterial material;
  if (!us.device_share_destroyed) material.device = us.device_holder;
  material.coordination = us.coordination_holder;
  return agent(user_id).login(us.sealed, material);
}

Status Deployment::login_with_external(const std::string& user_id) {
  auto& us = secrets(user_id);
  LoginMaterial material;
  material.coordination = us.coordination_holder;
  material.external = us.external_holder;
  return agent(user_id).login(us.sealed, material);
}

Status Deployment::relogin(const std::string& user_id) {
  auto st = login_default(user_id);
  if (!st.ok()) st = login_with_external(user_id);
  return st;
}

Status Deployment::publish_keystore(const std::string& user_id, std::uint64_t epoch,
                                    const SealedKeystore& sealed) {
  // The sealed keystore (public) is kept in the coordination service so any
  // of the user's devices can fetch it. The third field is the keystore
  // epoch: 0 at setup, bumped by every rotation.
  auto stored = coordination_->replace(
      coord::Template::of({"rockks", user_id, "*", "*"}),
      {"rockks", user_id, std::to_string(epoch), base64_encode(sealed.serialize())});
  clock_->advance_us(stored.delay);
  if (!stored.value.ok()) return Status{stored.value.error()};
  return Status::Ok();
}

Result<Keystore> Deployment::admin_unseal(const UserSecrets& us) {
  // The admin holds the coordination and external holder keys; the device
  // share may be gone (threat T2).
  return unseal_keystore(us.sealed, {us.coordination_holder, us.external_holder},
                         us.holder_pubs, /*k=*/2, setup_drbg_);
}

std::vector<cloud::AccessToken> Deployment::admin_tokens() {
  std::vector<cloud::AccessToken> tokens;
  tokens.reserve(clouds_.size());
  for (auto& c : clouds_) {
    tokens.push_back(c->issue_token("admin", options_.fs_id, cloud::TokenScope::kAdmin));
  }
  return tokens;
}

std::shared_ptr<depsky::DepSkyClient> Deployment::make_admin_storage(
    std::vector<crypto::PreparedKeyPtr> trusted_writers, std::string session) {
  depsky::DepSkyConfig storage_cfg;
  storage_cfg.clouds = clouds_;
  storage_cfg.f = options_.f;
  storage_cfg.protocol = options_.agent.protocol;
  storage_cfg.writer = admin_keys_;
  storage_cfg.trusted_writers = std::move(trusted_writers);
  storage_cfg.executor = executor_;
  storage_cfg.witness = witness_;
  storage_cfg.session = std::move(session);
  storage_cfg.membership_epoch = membership_epoch_;
  return std::make_shared<depsky::DepSkyClient>(std::move(storage_cfg),
                                                setup_drbg_.generate(32));
}

std::vector<crypto::PreparedKeyPtr> Deployment::user_signers() const {
  std::vector<crypto::PreparedKeyPtr> signers;
  for (const auto& [user_id, us] : secrets_) {
    (void)user_id;
    signers.push_back(us.user_signer);
  }
  return signers;
}

RecoveryService Deployment::make_recovery_service(const std::string& user_id) {
  auto& us = secrets(user_id);
  RecoveryConfig cfg;
  cfg.user_chain_keys = us.chain_keys;
  cfg.admin_tokens = admin_tokens();
  // The admin holds every user's setup keys: recover_shared_file audits and
  // merges all writers' chains over a shared file.
  for (const auto& [other_id, other_secrets] : secrets_) {
    if (other_id != user_id) cfg.peer_chain_keys[other_id] = other_secrets.chain_keys;
  }
  // Rotation metadata: the audit switches key streams at every admin-signed
  // rotation manifest (revocation.h).
  cfg.admin_public_key = admin_public_key();
  cfg.chain_rotations = us.rotations;
  for (const auto& [other_id, other_secrets] : secrets_) {
    if (other_id != user_id) cfg.peer_chain_rotations[other_id] = other_secrets.rotations;
  }

  RecoveryService service(user_id, std::move(cfg), make_admin_storage(user_signers(), "admin"),
                          coordination_, clock_);
  service.set_crash_schedule(crash_);
  return service;
}

Bytes Deployment::admin_public_key() const {
  return crypto::point_encode(admin_keys_.public_key);
}

Result<Deployment::CompromiseResponse> Deployment::respond_to_compromise(
    const std::string& user_id) {
  auto& us = secrets(user_id);
  CompromiseResponse out;
  const auto t0 = clock_->now_us();
  try {
    // 1. Commit the revocation floor at the coordination quorum. This is THE
    //    lockout instant: from here on, no non-faulty cloud that has seen (or
    //    will see, on recovery) the floor accepts the stolen token epoch, and
    //    everything below is propagation and replacement. Monotone and
    //    idempotent, so a crashed response re-commits harmlessly.
    const std::uint64_t floor = us.token_epoch + 1;
    auto committed = commit_revocation_floor(*coordination_, user_id, floor);
    clock_->advance_us(committed.delay);
    if (!committed.value.ok()) return Error{committed.value.error()};
    out.floor = floor;
    out.lockout_latency_us = static_cast<sim::SimClock::Micros>(clock_->now_us() - t0);
    if (crash_) crash_->maybe_crash(sim::CrashPoint::kAfterRevocationFloor);

    // 2. Push the floor to every cloud. A cloud in outage owes it: parked in
    //    pending_floor and retried by propagate_revocations — fail-closed,
    //    the cloud applies the floor on recovery before any stale token can
    //    be accepted there again.
    const auto admin = admin_tokens();
    bool first_cloud = true;
    for (std::size_t i = 0; i < clouds_.size(); ++i) {
      auto applied = clouds_[i]->apply_revocation_floor(admin[i], user_id, floor);
      clock_->advance_us(applied.delay);
      if (applied.value.ok()) {
        us.pending_floor.erase(i);
        ++out.clouds_enforcing;
      } else {
        us.pending_floor[i] = floor;
        out.clouds_pending.push_back(i);
      }
      if (first_cloud) {
        first_cloud = false;
        if (crash_) crash_->maybe_crash(sim::CrashPoint::kMidFloorPropagation);
      }
    }

    // 3. Evict every lease the compromised user holds: stolen sessions lose
    //    their locks and their in-flight closes fence out (scfs/lease.h).
    auto evicted = scfs::evict_holder_leases(*coordination_, user_id);
    clock_->advance_us(evicted.delay);
    if (!evicted.value.ok()) return Error{evicted.value.error()};
    out.leases_evicted = *evicted.value;

    // 3b. Drop the user's client cache — every tier. A compromised device
    //     must not keep serving pre-revocation state (file bytes, head
    //     versions, cached misses), and staged write-backs from the stolen
    //     session are discarded, never flushed. Done BEFORE the logout below,
    //     whose voluntary flush would otherwise commit them.
    if (const auto it = agents_.find(user_id); it != agents_.end()) {
      it->second->drop_cache();
    }

    // 4. Rotate the keystore. The honest client's live session also holds
    //    pre-floor credentials — tear it down before replacing its keystore.
    const auto rot_start = clock_->now_us();
    if (const auto it = agents_.find(user_id); it != agents_.end()) it->second->logout();

    // Resume the user's chain admin-side: the rotate record is appended with
    // admin credentials (the old tokens are dying; the new ones belong inside
    // the not-yet-published keystore).
    const fssagg::FssAggKeys& stream_keys =
        us.rotations.empty() ? us.chain_keys : us.rotations.back().keys;
    LogServiceOptions log_opts;
    log_opts.key_base_count = us.rotations.empty() ? 0 : us.rotations.back().at_seq + 1;
    auto log = make_resumed_log_service(user_id, make_admin_storage(user_signers(), "admin"),
                                        admin, coordination_, clock_, stream_keys, log_opts);

    auto aggs = read_aggregates(*coordination_, user_id);
    clock_->advance_us(aggs.delay);
    std::uint64_t chain_count = 0;
    if (aggs.value.ok()) {
      chain_count = aggs.value->count;
    } else if (aggs.value.code() != ErrorCode::kNotFound) {
      return Error{aggs.value.error()};
    }

    auto published = read_rotation_manifests(*coordination_, user_id);
    clock_->advance_us(published.delay);
    if (!published.value.ok()) return Error{published.value.error()};
    std::uint64_t next_epoch = us.keystore_epoch + 1;
    for (const auto& m : *published.value) {
      next_epoch = std::max(next_epoch, m.rotation_epoch + 1);
    }

    // A crashed previous response may have staged (and possibly published,
    // possibly even chain-committed) a rotation. Resume it if the chain still
    // matches; otherwise the staging is stale and a fresh mint replaces it.
    bool manifest_published = false;
    bool record_committed = false;
    if (us.pending_rotation.active) {
      const auto& pm = us.pending_rotation.manifest;
      for (const auto& m : *published.value) {
        if (m.rotation_epoch == pm.rotation_epoch && m.signature == pm.signature) {
          manifest_published = true;
          break;
        }
      }
      if (chain_count == us.pending_rotation.base_count) {
        auto recs = read_log_records(*coordination_, user_id);
        clock_->advance_us(recs.delay);
        if (recs.value.ok() && !recs.value->empty() &&
            recs.value->back().op == rotation_record_op() &&
            recs.value->back().version == pm.rotation_epoch) {
          record_committed = true;
        }
      }
      const bool chain_unmoved = us.pending_rotation.base_count == chain_count + 1;
      if (!record_committed && !chain_unmoved) us.pending_rotation = {};
    }

    if (!us.pending_rotation.active) {
      // Fresh mint. Reissue both token families at the new epoch; a cloud
      // that cannot reissue (outage) keeps its old token in the keystore —
      // DepSky masks up to f such clouds and the next rotation refreshes.
      auto old_ks = admin_unseal(us);
      if (!old_ks.ok()) return Error{old_ks.error()};

      std::vector<cloud::AccessToken> file_tokens;
      std::vector<cloud::AccessToken> log_tokens;
      for (std::size_t i = 0; i < clouds_.size(); ++i) {
        auto ft = clouds_[i]->reissue_token(admin[i], user_id,
                                            cloud::TokenScope::kFiles, floor);
        clock_->advance_us(ft.delay);
        auto lt = clouds_[i]->reissue_token(admin[i], user_id,
                                            cloud::TokenScope::kLogAppend, floor);
        clock_->advance_us(lt.delay);
        file_tokens.push_back(ft.value.ok() ? *ft.value : old_ks->file_tokens[i]);
        log_tokens.push_back(lt.value.ok() ? *lt.value : old_ks->log_tokens[i]);
      }

      const std::int64_t session_expiry =
          clock_->now_us() + options_.agent.session_key_validity_us;
      us.pending_rotation.rotation = rotate_keystore(
          *old_ks, std::move(file_tokens), std::move(log_tokens),
          setup_drbg_.generate_key(), session_expiry, chain_count + 1, us.holders(),
          /*k=*/2, setup_drbg_);
      us.pending_rotation.manifest =
          make_rotation_manifest(user_id, next_epoch, log->next_seq(),
                                 us.pending_rotation.rotation.chain_keys, admin_keys_);
      us.pending_rotation.base_count = chain_count + 1;
      us.pending_rotation.active = true;  // staged durably BEFORE the CAS
    }

    // 5. Linearize against concurrent rotations: the manifest CAS admits
    //    exactly one winner per (user, epoch); a loser re-signs at the next
    //    free epoch and tries again.
    if (!manifest_published) {
      for (int attempt = 0;; ++attempt) {
        auto won = publish_rotation_manifest(*coordination_, us.pending_rotation.manifest);
        clock_->advance_us(won.delay);
        if (!won.value.ok()) return Error{won.value.error()};
        if (*won.value) break;
        if (attempt >= 8) {
          return Error{ErrorCode::kConflict,
                       "rotation: could not win an epoch for " + user_id};
        }
        auto again = read_rotation_manifests(*coordination_, user_id);
        clock_->advance_us(again.delay);
        if (!again.value.ok()) return Error{again.value.error()};
        for (const auto& m : *again.value) {
          next_epoch = std::max(next_epoch, m.rotation_epoch + 1);
        }
        us.pending_rotation.manifest =
            make_rotation_manifest(user_id, next_epoch, log->next_seq(),
                                   us.pending_rotation.rotation.chain_keys, admin_keys_);
      }
    }
    const RotationManifest manifest = us.pending_rotation.manifest;
    const std::uint64_t epoch = manifest.rotation_epoch;

    // 6. The signed rotation record goes into the user's own log, MAC'd with
    //    the OUTGOING key stream — verify_chain spans the key change because
    //    the record pins where the fresh stream begins.
    if (!record_committed) {
      Bytes payload = manifest.signing_payload();
      append_lp(payload, manifest.signature);
      auto appended =
          log->append(rotation_record_path(), {}, payload, epoch, rotation_record_op());
      clock_->advance_us(appended.delay);
      if (!appended.value.ok()) return Error{appended.value.error()};
    }
    if (crash_) crash_->maybe_crash(sim::CrashPoint::kAfterRotationRecord);

    // 7. Publish the resealed keystore (fresh PVSS deal: new polynomial,
    //    same holders, old shares useless) and the fresh session key digest
    //    (the stolen S_U stops validating).
    if (auto st = publish_keystore(user_id, epoch, us.pending_rotation.rotation.sealed);
        !st.ok()) {
      return Error{st.error()};
    }
    if (crash_) crash_->maybe_crash(sim::CrashPoint::kAfterKeystoreReseal);

    auto session = publish_session_key(
        *coordination_, user_id, us.pending_rotation.rotation.keystore.session_key,
        us.pending_rotation.rotation.keystore.session_key_expiry_us);
    clock_->advance_us(session.delay);
    if (!session.value.ok()) return Error{session.value.error()};

    // Durable adoption on the admin's disk; the staged plaintext is wiped.
    us.rotations.push_back(
        {epoch, us.pending_rotation.base_count - 1, us.pending_rotation.rotation.chain_keys});
    us.sealed = us.pending_rotation.rotation.sealed;
    us.keystore_epoch = epoch;
    us.token_epoch = floor;
    us.pending_rotation = {};
    out.rotated = true;
    out.rotation_epoch = epoch;

    // 8. The honest client logs back in from the new deal (the holder keys
    //    are unchanged — only the shares were refreshed).
    if (agents_.contains(user_id)) {
      if (auto st = relogin(user_id); !st.ok()) return Error{st.error()};
    }
    out.rotation_us = static_cast<sim::SimClock::Micros>(clock_->now_us() - rot_start);
    return out;
  } catch (const sim::ClientCrash& crash) {
    return Error{ErrorCode::kCrashed,
                 std::string("compromise response crashed at ") +
                     sim::crash_point_name(crash.point)};
  }
}

std::size_t Deployment::propagate_revocations() {
  std::size_t applied = 0;
  const auto admin = admin_tokens();
  for (auto& [user_id, us] : secrets_) {
    for (auto it = us.pending_floor.begin(); it != us.pending_floor.end();) {
      auto r = clouds_[it->first]->apply_revocation_floor(admin[it->first], user_id,
                                                         it->second);
      clock_->advance_us(r.delay);
      if (r.value.ok()) {
        ++applied;
        it = us.pending_floor.erase(it);
      } else {
        ++it;
      }
    }
  }
  return applied;
}

Result<Deployment::VerdictOutcome> Deployment::apply_audit_verdict(
    const std::vector<LogRecord>& records, const std::set<std::uint64_t>& flagged_seqs,
    const std::set<std::string>& manual_overrides) {
  VerdictOutcome out;
  for (const auto& r : records) {
    if (!flagged_seqs.contains(r.seq)) continue;
    if (manual_overrides.contains(r.user)) {
      out.overridden.insert(r.user);
      continue;
    }
    if (secrets_.contains(r.user)) out.implicated.insert(r.user);
  }
  for (const auto& user : out.implicated) {
    auto response = respond_to_compromise(user);
    if (!response.ok()) return Error{response.error()};
    out.responses[user] = *response;
  }
  return out;
}

LogScrubber Deployment::make_scrubber(const std::string& user_id, ScrubOptions options) {
  // The scrubber reads (and repairs) units written by the user and by the
  // admin chain: trust both signers.
  auto storage = make_admin_storage({secrets(user_id).user_signer}, "scrub");
  return LogScrubber(user_id, std::move(storage), admin_tokens(), coordination_, clock_,
                     options);
}

std::size_t Deployment::quarantined_cloud() const {
  for (const auto& [user_id, agent] : agents_) {
    (void)user_id;
    const auto storage = agent->storage();
    if (!storage) continue;
    for (std::size_t i = 0; i < storage->n(); ++i) {
      if (storage->cloud_health(i).quarantined()) return i;
    }
  }
  return kNoCloud;
}

Status Deployment::adopt_spare_tokens(std::size_t slot,
                                      const cloud::CloudProviderPtr& spare) {
  const auto spare_admin =
      spare->issue_token("admin", options_.fs_id, cloud::TokenScope::kAdmin);
  for (auto& [user_id, us] : secrets_) {
    // The spare enforces the user's current revocation floor from its first
    // moment (fail-closed: a pre-rotation token stolen earlier is dead here
    // too), and the fresh tokens are minted at an epoch that survives it.
    if (us.token_epoch > 0) {
      auto floored = spare->apply_revocation_floor(spare_admin, user_id, us.token_epoch);
      clock_->advance_us(floored.delay);
      if (!floored.value.ok()) return Status{floored.value.error()};
    }
    auto ks = admin_unseal(us);
    if (!ks.ok()) return Status{ks.error()};
    ks->file_tokens[slot] =
        spare->issue_token(user_id, options_.fs_id, cloud::TokenScope::kFiles);
    ks->log_tokens[slot] =
        spare->issue_token(user_id, options_.fs_id, cloud::TokenScope::kLogAppend);
    us.sealed = seal_keystore(*ks, us.holders(), /*k=*/2, setup_drbg_, /*password=*/{},
                              executor_.get());
    if (auto st = publish_keystore(user_id, us.keystore_epoch, us.sealed); !st.ok()) return st;
  }
  return Status::Ok();
}

std::vector<std::string> Deployment::enumerate_units(std::size_t skip_index) {
  // The scrubber's orphan-walk idiom over the whole key space: every
  // DepSky key collapses to its unit name.
  std::set<std::string> units;
  const auto admin = admin_tokens();
  for (std::size_t i = 0; i < clouds_.size(); ++i) {
    if (i == skip_index) continue;
    auto listed = clouds_[i]->list(admin[i], "");
    clock_->advance_us(listed.delay);
    if (!listed.value.ok()) continue;  // an unreachable cloud cannot widen the union
    for (const auto& obj : *listed.value) {
      if (auto unit = depsky::DepSkyClient::unit_of_key(obj.key)) {
        units.insert(std::move(*unit));
      }
    }
  }
  return {units.begin(), units.end()};
}

Result<Deployment::ReconfigurationReport> Deployment::reconfigure_cloud(
    std::size_t replaced_index) {
  if (replaced_index >= clouds_.size()) {
    return Error{ErrorCode::kInvalidArgument,
                 "reconfigure_cloud: no cloud at index " + std::to_string(replaced_index)};
  }
  ReconfigurationReport out;
  const auto t0 = clock_->now_us();
  obs::Span span = obs::tracer().span("reconfig");
  try {
    // 1. Stage the manifest and the spare (durably, on the admin's disk) so
    //    a crashed pipeline resumes the same epoch instead of re-minting.
    if (!pending_reconfig_.active) {
      auto spare = cloud::make_provider(clock_, next_spare_++, options_.seed);
      std::vector<std::string> old_names;
      old_names.reserve(clouds_.size());
      for (const auto& c : clouds_) old_names.push_back(c->name());
      std::vector<std::string> new_names = old_names;
      new_names[replaced_index] = spare->name();
      auto published = depsky::read_membership_manifests(*coordination_);
      clock_->advance_us(published.delay);
      if (!published.value.ok()) return Error{published.value.error()};
      std::uint64_t epoch = membership_epoch_ + 1;
      for (const auto& m : *published.value) epoch = std::max(epoch, m.epoch + 1);
      pending_reconfig_.manifest = depsky::make_membership_manifest(
          epoch, std::move(old_names), std::move(new_names), replaced_index, admin_keys_);
      pending_reconfig_.spare = std::move(spare);
      pending_reconfig_.active = true;
    }
    if (pending_reconfig_.manifest.replaced_index != replaced_index) {
      return Error{ErrorCode::kConflict,
                   "reconfigure_cloud: a reconfiguration of another slot is in flight"};
    }

    // 2. Publish via CAS: one winner per epoch. Losing to our own manifest
    //    (a resumed pipeline) is a win; losing to a different one bumps the
    //    epoch and retries.
    for (int attempt = 0;; ++attempt) {
      auto won = depsky::publish_membership_manifest(*coordination_,
                                                     pending_reconfig_.manifest);
      clock_->advance_us(won.delay);
      if (!won.value.ok()) return Error{won.value.error()};
      if (*won.value) break;
      auto again = depsky::read_membership_manifests(*coordination_);
      clock_->advance_us(again.delay);
      if (!again.value.ok()) return Error{again.value.error()};
      bool ours = false;
      std::uint64_t next = pending_reconfig_.manifest.epoch + 1;
      for (const auto& m : *again.value) {
        if (m.epoch == pending_reconfig_.manifest.epoch &&
            m.signature == pending_reconfig_.manifest.signature) {
          ours = true;
        }
        next = std::max(next, m.epoch + 1);
      }
      if (ours) break;
      if (attempt >= 8) {
        return Error{ErrorCode::kConflict,
                     "reconfigure_cloud: could not win a membership epoch"};
      }
      pending_reconfig_.manifest = depsky::make_membership_manifest(
          next, pending_reconfig_.manifest.old_clouds, pending_reconfig_.manifest.new_clouds,
          replaced_index, admin_keys_);
    }
    const std::uint64_t epoch = pending_reconfig_.manifest.epoch;
    out.epoch = epoch;
    out.replaced_index = replaced_index;
    out.old_cloud = pending_reconfig_.manifest.old_clouds[replaced_index];
    out.new_cloud = pending_reconfig_.manifest.new_clouds[replaced_index];
    if (crash_) crash_->maybe_crash(sim::CrashPoint::kAfterMembershipManifest);

    // 3. Mint every user's tokens at the spare, reseal their keystores, and
    //    swap the fleet slot. Skipped when a resumed pipeline already did it.
    if (clouds_[replaced_index]->name() != out.new_cloud) {
      if (auto st = adopt_spare_tokens(replaced_index, pending_reconfig_.spare); !st.ok()) {
        return Error{st.error()};
      }
      clouds_[replaced_index] = pending_reconfig_.spare;
      for (auto& [user_id, agent] : agents_) {
        (void)user_id;
        agent->replace_cloud(replaced_index, pending_reconfig_.spare);
      }
    }

    // 4. Migrate every unit onto the new set: DepSky repair rebuilds the
    //    evicted cloud's share on the (empty) spare, file units get the new
    //    epoch stamped into their metadata, and a per-unit done-marker makes
    //    the walk crash-resumable. Both repair and stamp are idempotent, so
    //    a unit interrupted between steps converges on the re-run.
    auto storage = make_admin_storage(user_signers(), "admin");
    const auto admin = admin_tokens();
    const auto units = enumerate_units(replaced_index);
    out.units_total = units.size();
    bool first_migration = true;
    for (const auto& unit : units) {
      auto done = depsky::unit_migrated(*coordination_, epoch, unit);
      clock_->advance_us(done.delay);
      if (!done.value.ok()) return Error{done.value.error()};
      if (*done.value) {
        ++out.units_resumed;
        continue;
      }
      auto fixed = storage->repair(admin, unit);
      clock_->advance_us(fixed.delay);
      if (!fixed.value.ok()) return Error{fixed.value.error()};
      out.shares_rebuilt += fixed.value->shares_repaired;
      if (!unit.starts_with(cloud::kLogPrefix)) {
        // Log units are append-only (their metadata cannot be overwritten,
        // by design); the epoch fence protects the mutable file namespace.
        auto stamped = storage->stamp_membership_epoch(admin, unit, epoch);
        clock_->advance_us(stamped.delay);
        if (!stamped.value.ok()) return Error{stamped.value.error()};
        ++out.metas_stamped;
      }
      auto marked = depsky::mark_unit_migrated(*coordination_, epoch, unit);
      clock_->advance_us(marked.delay);
      if (!marked.value.ok()) return Error{marked.value.error()};
      ++out.units_migrated;
      if (first_migration) {
        first_migration = false;
        if (crash_) crash_->maybe_crash(sim::CrashPoint::kMidShareMigration);
      }
    }

    // 5. Adopt the epoch everywhere and bring every agent back up over the
    //    new fleet (their next writes carry — and fence on — the new epoch).
    membership_epoch_ = epoch;
    for (auto& [user_id, agent] : agents_) {
      agent->set_membership_epoch(epoch);
      if (agent->logged_in()) agent->logout();
      if (auto st = relogin(user_id); !st.ok()) return Error{st.error()};
    }
    pending_reconfig_ = {};
    out.duration_us = static_cast<sim::SimClock::Micros>(clock_->now_us() - t0);
    auto& reg = obs::metrics();
    reg.counter("reconfig.completed").add();
    reg.counter("reconfig.units.migrated").add(out.units_migrated);
    reg.counter("reconfig.shares.rebuilt").add(out.shares_rebuilt);
    span.set_duration(static_cast<std::uint64_t>(out.duration_us));
    return out;
  } catch (const sim::ClientCrash& crash) {
    span.set_outcome(ErrorCode::kCrashed);
    return Error{ErrorCode::kCrashed, std::string("reconfiguration crashed at ") +
                                          sim::crash_point_name(crash.point)};
  }
}

}  // namespace rockfs::core
