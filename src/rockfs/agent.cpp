#include "rockfs/agent.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "common/logging.h"
#include "rockfs/deployment.h"

namespace rockfs::core {

RockFsAgent::RockFsAgent(const Deployment& deployment, std::string user_id,
                         AgentOptions options, std::vector<crypto::Point> holder_pubs,
                         std::size_t holder_threshold)
    : user_id_(std::move(user_id)),
      options_(std::move(options)),
      clouds_(deployment.clouds()),
      coordination_(deployment.coordination()),
      clock_(deployment.clock()),
      crash_(deployment.crash_schedule()),
      executor_(deployment.executor()),
      witness_(deployment.witness()),
      trusted_writers_{deployment.admin_signer()},
      membership_epoch_(deployment.membership_epoch()),
      holder_pubs_(std::move(holder_pubs)),
      holder_threshold_(holder_threshold),
      cache_(options_.enable_cache
                 ? std::make_shared<cache::ClientCache>(options_.cache_config)
                 : nullptr) {}

Status RockFsAgent::login(const SealedKeystore& sealed, const LoginMaterial& material) {
  // Gather whatever holders are available; k of them suffice.
  std::vector<ShareHolder> holders;
  if (material.device.has_value()) holders.push_back(*material.device);
  if (material.coordination.has_value()) holders.push_back(*material.coordination);
  if (material.external.has_value()) holders.push_back(*material.external);

  crypto::Drbg login_drbg(to_bytes("rockfs.login." + user_id_),
                          to_bytes(std::to_string(clock_->now_us())));
  auto ks = unseal_keystore(sealed, holders, holder_pubs_, holder_threshold_, login_drbg);
  if (!ks.ok()) return Status{ks.error()};

  keystore_ = std::make_unique<Keystore>(std::move(*ks));
  const std::string session_id = user_id_ + "-s" + std::to_string(++logins_);
  // The session id and the login time are this instantiation's nonce (SP
  // 800-90A): seeded from the user's key alone, every session would
  // draw the same bytes, so a re-login would re-mint the last session's S_U
  // and repeat its cache IVs, and GCM gives up its hash subkey to anyone
  // holding two boxes under one key and one IV.
  drbg_ = std::make_shared<crypto::Drbg>(
      keystore_->user_private_key,
      to_bytes("rockfs.agent." + session_id + "@" + std::to_string(clock_->now_us())));

  // Storage stack: DepSky over the cloud fleet, writing as PR_U.
  depsky::DepSkyConfig cfg;
  cfg.clouds = clouds_;
  cfg.f = (clouds_.size() - 1) / 3;  // n = 3f+1
  cfg.protocol = options_.protocol;
  cfg.writer = crypto::keypair_from_private(keystore_->user_private_key);
  if (!own_key_ || own_key_->point() != cfg.writer.public_key) {
    own_key_ = std::make_shared<const crypto::PreparedKey>(cfg.writer.public_key);
  }
  cfg.trusted_writers = trusted_writers_;
  cfg.trusted_writers.push_back(own_key_);
  cfg.executor = executor_;
  cfg.witness = witness_;
  cfg.session = session_id;
  cfg.membership_epoch = membership_epoch_;
  storage_ = std::make_shared<depsky::DepSkyClient>(std::move(cfg), drbg_->generate(32));

  // Every session shares the per-USER cache, so sealed entries survive
  // re-logins (a rotated key just makes the stale ones fail open on hit).
  scfs::ScfsOptions fs_opts;
  fs_opts.sync_mode = options_.sync_mode;
  fs_opts.user_id = user_id_;
  fs_opts.session_id = session_id;
  fs_opts.lease_ttl_us = options_.lease_ttl_us;
  fs_opts.cache = cache_;
  fs_opts.write_back = options_.write_back;
  fs_ = std::make_unique<scfs::Scfs>(storage_, keystore_->file_tokens, coordination_,
                                     clock_, fs_opts);

  if (options_.enable_cache_crypto) {
    session_keys_ = std::make_shared<SessionKeyManager>(
        user_id_, coordination_, clock_, options_.session_key_validity_us);
    if (!keystore_->session_key.empty()) {
      // Adopt the rotated S_U stored in the keystore. Its expiry is enforced:
      // once past, the first cache operation mints a fresh key and every entry
      // sealed under the stale one fails open and is refetched (§4.2.1).
      session_keys_->seed(keystore_->session_key, keystore_->session_key_expiry_us);
    }
    // A rotation must leave zero servable cache state: sealed data entries
    // would fail open anyway, but meta/negative entries carry no seal.
    session_keys_->set_rotation_hook([this] {
      if (cache_) cache_->drop_all();
    });
    // drop_entries=false: entries sealed under a still-valid S_U (from the
    // previous session of this user) stay warm across the re-login.
    fs_->set_cache_transform(std::make_shared<SecureCacheTransform>(session_keys_, drbg_),
                             /*drop_entries=*/false);
  }

  fs_->set_crash_schedule(crash_);

  if (options_.enable_logging) {
    // Resume the chain where a previous session left off (the aggregates
    // tuple records how far the keys have evolved). This is also where a
    // crashed previous session is repaired: the write-ahead intent journal
    // (journal.h) is replayed before the first new append.
    log_ = make_resumed_log_service(
        user_id_, storage_, keystore_->log_tokens, coordination_, clock_,
        fssagg::FssAggKeys{keystore_->fssagg_key_a, keystore_->fssagg_key_b},
        LogServiceOptions{/*enable_journal=*/true, crash_,
                          keystore_->fssagg_base_count});
    log_->set_compression(options_.compress_log);
    fs_->set_close_intent_hook(
        [this](const std::string& path, const Bytes& old_content, const Bytes& new_content,
               std::uint64_t version, std::uint64_t epoch) {
          return log_->journal_intent(path, old_content, new_content, version,
                                      version == 1 ? "create" : "update", epoch);
        });
    fs_->set_close_interceptor(
        [this](const std::string& path, const Bytes& old_content, const Bytes& new_content,
               std::uint64_t version, std::uint64_t epoch) {
          return log_->append(path, old_content, new_content, version,
                              version == 1 ? "create" : "update", epoch);
        });
  }
  LOG_INFO("agent " << user_id_ << " logged in (logging="
                    << (options_.enable_logging ? "on" : "off") << ")");
  return {};
}

void RockFsAgent::logout() {
  if (fs_) {
    try {
      // Voluntary logout syncs staged write-backs (fsync-on-logout); a crash
      // landing clears the queue first, so this never double-commits.
      (void)fs_->flush_all();
    } catch (const sim::ClientCrash&) {
      // Died mid-flush: staged RAM is lost; the intent journal repairs the
      // committed prefix at the next login.
      fs_->discard_dirty();
    }
  }
  log_.reset();
  fs_.reset();
  storage_.reset();
  session_keys_.reset();
  drbg_.reset();
  keystore_.reset();  // the in-RAM keystore is wiped
}

template <typename Call>
std::invoke_result_t<Call&, scfs::Scfs&> RockFsAgent::guarded(Call&& call) {
  if (!fs_) return Error{ErrorCode::kPermissionDenied, "agent: not logged in"};
  // Any SCFS call can hit an armed crash point (namespace operations and
  // opens piggyback a due write-back flush), and every one lands the same way.
  try {
    return call(*fs_);
  } catch (const sim::ClientCrash& crash) {
    return crash_landing(crash);
  }
}

Error RockFsAgent::crash_landing(const sim::ClientCrash& crash) {
  // The simulated client process died mid-operation: everything in RAM —
  // keystore, signer state, open files, cache — is gone. The next login
  // replays the intent journal and repairs whatever the crash left behind.
  LOG_WARN("agent " << user_id_ << " crashed at "
                    << sim::crash_point_name(crash.point));
  if (fs_) fs_->discard_dirty();  // a dead process cannot flush its RAM
  logout();
  return Error{ErrorCode::kCrashed,
               std::string("client crashed at ") + sim::crash_point_name(crash.point)};
}

scfs::Scfs& RockFsAgent::fs() {
  if (!fs_) throw std::logic_error("RockFsAgent::fs: not logged in");
  return *fs_;
}

const Keystore& RockFsAgent::keystore() const {
  if (!keystore_) throw std::logic_error("RockFsAgent::keystore: not logged in");
  return *keystore_;
}

std::uint64_t RockFsAgent::log_seq() const { return log_ ? log_->next_seq() : 0; }

Bytes RockFsAgent::current_session_key() {
  if (!session_keys_ || !drbg_) return {};
  return session_keys_->current(*drbg_).key;
}

Result<RockFsAgent::Fd> RockFsAgent::create(const std::string& path) {
  return guarded([&](scfs::Scfs& fs) { return fs.create(path); });
}

Result<RockFsAgent::Fd> RockFsAgent::open(const std::string& path) {
  return guarded([&](scfs::Scfs& fs) { return fs.open(path); });
}

Result<Bytes> RockFsAgent::read(Fd fd, std::size_t offset, std::size_t length) {
  return guarded([&](scfs::Scfs& fs) { return fs.read(fd, offset, length); });
}

Status RockFsAgent::write(Fd fd, std::size_t offset, BytesView data) {
  return guarded([&](scfs::Scfs& fs) { return fs.write(fd, offset, data); });
}

Status RockFsAgent::append(Fd fd, BytesView data) {
  return guarded([&](scfs::Scfs& fs) { return fs.append(fd, data); });
}

Status RockFsAgent::truncate(Fd fd, std::size_t size) {
  return guarded([&](scfs::Scfs& fs) { return fs.truncate(fd, size); });
}

Status RockFsAgent::close(Fd fd) {
  return guarded([&](scfs::Scfs& fs) { return fs.close(fd); });
}

sim::Timed<Status> RockFsAgent::close_timed(Fd fd) {
  sim::SimClock::Micros delay = 0;  // stays 0 when the close never ran
  Status st = guarded([&](scfs::Scfs& fs) {
    auto closed = fs.close_timed(fd);
    delay = closed.delay;
    return closed.value;
  });
  return {std::move(st), delay};
}

namespace {

/// open + read-all + close. The whole opened version: a second coordination
/// round to learn its size could fail or see a peer's newer, shorter version.
Result<Bytes> read_whole(scfs::Scfs& fs, const std::string& path) {
  auto fd = fs.open(path);
  if (!fd.ok()) return Error{fd.error()};
  auto content = fs.read(*fd, 0, SIZE_MAX);
  const Status closed = fs.close(*fd);
  if (!content.ok()) return content;
  if (!closed.ok()) return Error{closed.error()};
  return content;
}

}  // namespace

Status RockFsAgent::unlink(const std::string& path) {
  return guarded([&](scfs::Scfs& fs) {
    // An unlink is a logged operation too: record a delete entry so recovery
    // can resurrect the file (threat T1 includes malicious deletion). The
    // read runs inside this guard, so a crash in it ends the unlink as well.
    Bytes old_content;
    if (log_) {
      if (auto current = read_whole(fs, path); current.ok()) old_content = std::move(*current);
    }
    if (auto st = fs.unlink(path); !st.ok() || !log_) return st;
    auto logged = log_->append(path, old_content, {}, 0, "delete");
    clock_->advance_us(logged.delay);
    return logged.value;
  });
}

Result<scfs::FileStat> RockFsAgent::stat(const std::string& path) {
  return guarded([&](scfs::Scfs& fs) { return fs.stat(path); });
}

Result<std::vector<std::string>> RockFsAgent::readdir(const std::string& prefix) {
  return guarded([&](scfs::Scfs& fs) { return fs.readdir(prefix); });
}

void RockFsAgent::drain_background() {
  (void)guarded([](scfs::Scfs& fs) {
    fs.drain_background();
    return Status::Ok();
  });
}

Status RockFsAgent::flush(const std::string& path) {
  return guarded([&](scfs::Scfs& fs) { return fs.flush(path); });
}

Status RockFsAgent::flush_all() {
  return guarded([](scfs::Scfs& fs) { return fs.flush_all(); });
}

void RockFsAgent::drop_cache() {
  if (cache_) cache_->drop_all();
  if (fs_) fs_->discard_dirty();  // revoked writers do not get to flush
}

Status RockFsAgent::lock(const std::string& path) {
  return guarded([&](scfs::Scfs& fs) { return fs.lock(path); });
}

Status RockFsAgent::unlock(const std::string& path) {
  return guarded([&](scfs::Scfs& fs) { return fs.unlock(path); });
}

std::optional<std::uint64_t> RockFsAgent::held_epoch(const std::string& path) const {
  if (!fs_) return std::nullopt;
  return fs_->held_epoch(path);
}

void RockFsAgent::replace_cloud(std::size_t index, cloud::CloudProviderPtr cloud) {
  clouds_.at(index) = std::move(cloud);
}

void RockFsAgent::set_membership_epoch(std::uint64_t epoch) {
  if (epoch > membership_epoch_) membership_epoch_ = epoch;
  if (storage_) storage_->set_membership_epoch(epoch);
}

void RockFsAgent::trust_writer(crypto::PreparedKeyPtr key) {
  const auto same = [&](const crypto::PreparedKeyPtr& w) { return w->encoded() == key->encoded(); };
  if (std::none_of(trusted_writers_.begin(), trusted_writers_.end(), same)) {
    trusted_writers_.push_back(key);
  }
  if (storage_) storage_->add_trusted_writer(std::move(key));
}

Status RockFsAgent::write_file(const std::string& path, BytesView content) {
  return guarded([&](scfs::Scfs& fs) {
    auto fd = fs.create(path);
    if (!fd.ok() && fd.code() == ErrorCode::kConflict) fd = fs.open(path);
    if (!fd.ok()) return Status{fd.error()};
    if (auto st = fs.truncate(*fd, 0); !st.ok()) return st;
    if (auto st = fs.write(*fd, 0, content); !st.ok()) return st;
    return fs.close(*fd);
  });
}

Result<Bytes> RockFsAgent::read_file(const std::string& path) {
  return guarded([&](scfs::Scfs& fs) { return read_whole(fs, path); });
}

}  // namespace rockfs::core
