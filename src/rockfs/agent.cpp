#include "rockfs/agent.h"

#include <cstdint>
#include <stdexcept>

#include "common/logging.h"

namespace rockfs::core {

RockFsAgent::RockFsAgent(std::string user_id, std::vector<cloud::CloudProviderPtr> clouds,
                         std::shared_ptr<coord::CoordinationService> coordination,
                         sim::SimClockPtr clock, AgentOptions options,
                         std::vector<crypto::Point> holder_pubs,
                         std::size_t holder_threshold)
    : user_id_(std::move(user_id)),
      clouds_(std::move(clouds)),
      coordination_(std::move(coordination)),
      clock_(std::move(clock)),
      options_(std::move(options)),
      holder_pubs_(std::move(holder_pubs)),
      holder_threshold_(holder_threshold) {}

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
  drbg_ = std::make_shared<crypto::Drbg>(keystore_->user_private_key,
                                         to_bytes("rockfs.agent." + user_id_));

  const std::string session_id = user_id_ + "-s" + std::to_string(++logins_);

  // Storage stack: DepSky over the cloud fleet, writing as PR_U.
  depsky::DepSkyConfig cfg;
  cfg.clouds = clouds_;
  cfg.f = options_.f;
  cfg.protocol = options_.protocol;
  cfg.writer = crypto::keypair_from_private(keystore_->user_private_key);
  cfg.trusted_writers = options_.trusted_writers;
  cfg.executor = options_.executor;
  cfg.witness = options_.witness;
  cfg.session = session_id;
  cfg.membership_epoch = options_.membership_epoch;
  storage_ = std::make_shared<depsky::DepSkyClient>(std::move(cfg), drbg_->generate(32));

  if (options_.enable_cache && !cache_) {
    // First login mints the per-USER cache; later sessions reuse the handle
    // so sealed entries survive re-logins (a rotated key just makes the
    // stale ones fail open on hit).
    cache_ = options_.cache ? options_.cache
                            : std::make_shared<cache::ClientCache>(options_.cache_config);
  }

  scfs::ScfsOptions fs_opts;
  fs_opts.sync_mode = options_.sync_mode;
  fs_opts.user_id = user_id_;
  fs_opts.session_id = session_id;
  fs_opts.lease_ttl_us = options_.lease_ttl_us;
  fs_opts.use_cache = options_.enable_cache;
  fs_opts.cache = cache_;
  fs_opts.writeback = options_.writeback;
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

  fs_->set_crash_schedule(options_.crash);

  if (options_.enable_logging) {
    // Resume the chain where a previous session left off (the aggregates
    // tuple records how far the keys have evolved). This is also where a
    // crashed previous session is repaired: the write-ahead intent journal
    // (journal.h) is replayed before the first new append.
    log_ = make_resumed_log_service(
        user_id_, storage_, keystore_->log_tokens, coordination_, clock_,
        fssagg::FssAggKeys{keystore_->fssagg_key_a, keystore_->fssagg_key_b},
        LogServiceOptions{/*enable_journal=*/true, options_.crash,
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

namespace {
Status not_logged_in() { return {ErrorCode::kPermissionDenied, "agent: not logged in"}; }
}  // namespace

Status RockFsAgent::crash_landing(const sim::ClientCrash& crash) {
  // The simulated client process died mid-operation: everything in RAM —
  // keystore, signer state, open files, cache — is gone. The next login
  // replays the intent journal and repairs whatever the crash left behind.
  LOG_WARN("agent " << user_id_ << " crashed at "
                    << sim::crash_point_name(crash.point));
  if (fs_) fs_->discard_dirty();  // a dead process cannot flush its RAM
  logout();
  return Status{ErrorCode::kCrashed,
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
  if (!fs_) return Error{not_logged_in().error()};
  // Namespace operations can piggyback a due write-back flush, so any of
  // them can hit an armed crash point — same dead-client landing as close.
  try {
    return fs_->create(path);
  } catch (const sim::ClientCrash& crash) {
    return Error{crash_landing(crash).error()};
  }
}

Result<RockFsAgent::Fd> RockFsAgent::open(const std::string& path) {
  if (!fs_) return Error{not_logged_in().error()};
  try {
    return fs_->open(path);
  } catch (const sim::ClientCrash& crash) {
    return Error{crash_landing(crash).error()};
  }
}

Result<Bytes> RockFsAgent::read(Fd fd, std::size_t offset, std::size_t length) {
  if (!fs_) return Error{not_logged_in().error()};
  return fs_->read(fd, offset, length);
}

Status RockFsAgent::write(Fd fd, std::size_t offset, BytesView data) {
  if (!fs_) return not_logged_in();
  return fs_->write(fd, offset, data);
}

Status RockFsAgent::append(Fd fd, BytesView data) {
  if (!fs_) return not_logged_in();
  return fs_->append(fd, data);
}

Status RockFsAgent::truncate(Fd fd, std::size_t size) {
  if (!fs_) return not_logged_in();
  return fs_->truncate(fd, size);
}

Status RockFsAgent::close(Fd fd) {
  if (!fs_) return not_logged_in();
  try {
    return fs_->close(fd);
  } catch (const sim::ClientCrash& crash) {
    return crash_landing(crash);
  }
}

sim::Timed<Status> RockFsAgent::close_timed(Fd fd) {
  if (!fs_) return {not_logged_in(), 0};
  try {
    return fs_->close_timed(fd);
  } catch (const sim::ClientCrash& crash) {
    return {crash_landing(crash), 0};
  }
}

Status RockFsAgent::unlink(const std::string& path) {
  if (!fs_) return not_logged_in();
  // An unlink is a logged operation too: record a delete entry so recovery
  // can resurrect the file (threat T1 includes malicious deletion).
  Bytes old_content;
  if (options_.enable_logging) {
    auto current = read_file(path);
    if (current.ok()) old_content = std::move(*current);
  }
  auto st = fs_->unlink(path);
  if (!st.ok()) return st;
  if (options_.enable_logging && log_) {
    try {
      auto logged = log_->append(path, old_content, {}, 0, "delete");
      clock_->advance_us(logged.delay);
      if (!logged.value.ok()) return logged.value;
    } catch (const sim::ClientCrash& crash) {
      return crash_landing(crash);
    }
  }
  return {};
}

Result<scfs::FileStat> RockFsAgent::stat(const std::string& path) {
  if (!fs_) return Error{not_logged_in().error()};
  try {
    return fs_->stat(path);
  } catch (const sim::ClientCrash& crash) {
    return Error{crash_landing(crash).error()};
  }
}

Result<std::vector<std::string>> RockFsAgent::readdir(const std::string& prefix) {
  if (!fs_) return Error{not_logged_in().error()};
  try {
    return fs_->readdir(prefix);
  } catch (const sim::ClientCrash& crash) {
    return Error{crash_landing(crash).error()};
  }
}

void RockFsAgent::drain_background() {
  if (!fs_) return;
  try {
    fs_->drain_background();
  } catch (const sim::ClientCrash& crash) {
    (void)crash_landing(crash);
  }
}

Status RockFsAgent::flush(const std::string& path) {
  if (!fs_) return not_logged_in();
  try {
    return fs_->flush(path);
  } catch (const sim::ClientCrash& crash) {
    return crash_landing(crash);
  }
}

Status RockFsAgent::flush_all() {
  if (!fs_) return not_logged_in();
  try {
    return fs_->flush_all();
  } catch (const sim::ClientCrash& crash) {
    return crash_landing(crash);
  }
}

void RockFsAgent::drop_cache() {
  if (cache_) cache_->drop_all();
  if (fs_) fs_->discard_dirty();  // revoked writers do not get to flush
}

Status RockFsAgent::lock(const std::string& path) {
  if (!fs_) return not_logged_in();
  try {
    return fs_->lock(path);
  } catch (const sim::ClientCrash& crash) {
    return crash_landing(crash);
  }
}

Status RockFsAgent::unlock(const std::string& path) {
  if (!fs_) return not_logged_in();
  try {
    return fs_->unlock(path);
  } catch (const sim::ClientCrash& crash) {
    return crash_landing(crash);
  }
}

std::optional<std::uint64_t> RockFsAgent::held_epoch(const std::string& path) const {
  if (!fs_) return std::nullopt;
  return fs_->held_epoch(path);
}

void RockFsAgent::replace_cloud(std::size_t index, cloud::CloudProviderPtr cloud) {
  clouds_.at(index) = std::move(cloud);
}

void RockFsAgent::set_membership_epoch(std::uint64_t epoch) {
  if (epoch > options_.membership_epoch) options_.membership_epoch = epoch;
  if (storage_) storage_->set_membership_epoch(epoch);
}

void RockFsAgent::trust_writer(const Bytes& public_key) {
  for (const auto& w : options_.trusted_writers) {
    if (w == public_key) {
      if (storage_) storage_->add_trusted_writer(public_key);
      return;
    }
  }
  options_.trusted_writers.push_back(public_key);
  if (storage_) storage_->add_trusted_writer(public_key);
}

Status RockFsAgent::write_file(const std::string& path, BytesView content) {
  if (!fs_) return not_logged_in();
  auto fd = fs_->create(path);
  if (!fd.ok() && fd.code() == ErrorCode::kConflict) fd = fs_->open(path);
  if (!fd.ok()) return Status{fd.error()};
  if (auto st = fs_->truncate(*fd, 0); !st.ok()) return st;
  if (auto st = fs_->write(*fd, 0, content); !st.ok()) return st;
  try {
    return fs_->close(*fd);
  } catch (const sim::ClientCrash& crash) {
    return crash_landing(crash);
  }
}

Result<Bytes> RockFsAgent::read_file(const std::string& path) {
  if (!fs_) return Error{not_logged_in().error()};
  auto fd = fs_->open(path);
  if (!fd.ok()) return Error{fd.error()};
  // The whole opened version: a second coordination round to learn its size
  // could fail or see a peer's newer, shorter version.
  auto content = fs_->read(*fd, 0, SIZE_MAX);
  const Status closed = fs_->close(*fd);
  if (!content.ok()) return content;
  if (!closed.ok()) return Error{closed.error()};
  return content;
}

}  // namespace rockfs::core
