#include "rockfs/cache_security.h"

#include "common/hex.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace rockfs::core {

namespace {
constexpr const char* kSessionTag = "rocksession";

// A 256-bit IV drawn per seal from the agent's DRBG, which every login
// instantiates with its own nonce: a session that adopts a stored S_U does
// not replay an earlier session's IVs under it. 32 bytes keep the box at
// plaintext + 48 bytes (IV + 16-byte tag), the size the cache budget and
// Scfs::local_cost charge.
constexpr std::size_t kCacheIvSize = 32;

// The AAD binds both the path and the inode version: a sealed entry replayed
// after the file changed fails authentication even under the same session key.
Bytes cache_aad(const std::string& path, std::uint64_t version) {
  return to_bytes("rockfs.cache.v1|" + path + "|" + std::to_string(version));
}

Bytes cache_key(BytesView session_key) {
  return crypto::hkdf_sha256(session_key, {}, to_bytes("rockfs.cache.gcm"), 32);
}
}  // namespace

SessionKeyManager::SessionKeyManager(std::string user_id,
                                     std::shared_ptr<coord::CoordinationService> coord,
                                     sim::SimClockPtr clock, std::int64_t validity_us)
    : user_id_(std::move(user_id)),
      coord_(std::move(coord)),
      clock_(std::move(clock)),
      validity_us_(validity_us) {}

SessionKeyManager::~SessionKeyManager() { secure_zero(key_); }

void SessionKeyManager::seed(Bytes key, std::int64_t expiry_us) {
  secure_zero(key_);
  key_ = std::move(key);
  expiry_us_ = key_.empty() ? -1 : expiry_us;
}

void SessionKeyManager::register_key(BytesView key) {
  auto r = publish_session_key(*coord_, user_id_, key, expiry_us_);
  clock_->advance_us(r.delay);
  r.value.expect("session key registration");
}

SessionKeyManager::Current SessionKeyManager::current(crypto::Drbg& drbg) {
  if (expiry_us_ >= 0 && clock_->now_us() < expiry_us_ && !key_.empty()) {
    return {key_, false};
  }
  key_ = drbg.generate_key();
  expiry_us_ = clock_->now_us() + validity_us_;
  register_key(key_);
  if (rotation_hook_) rotation_hook_();
  return {key_, true};
}

bool SessionKeyManager::valid(BytesView key) const {
  if (expiry_us_ < 0 || clock_->now_us() >= expiry_us_) return false;
  auto r = session_key_registered(*coord_, user_id_, key);
  clock_->advance_us(r.delay);
  return r.value;
}

sim::Timed<Status> publish_session_key(coord::CoordinationService& coord,
                                       const std::string& user_id, BytesView key,
                                       std::int64_t expiry_us) {
  // Only a digest of S_U goes to the coordination service — enough to pin
  // the currently-valid key without disclosing it.
  const std::string key_id = hex_encode(crypto::sha256(key));
  auto r = coord.replace(coord::Template::of({kSessionTag, user_id, "*", "*"}),
                         {kSessionTag, user_id, key_id, std::to_string(expiry_us)});
  if (!r.value.ok()) return {Status{r.value.error()}, r.delay};
  return {Status::Ok(), r.delay};
}

sim::Timed<bool> session_key_registered(coord::CoordinationService& coord,
                                        const std::string& user_id, BytesView key) {
  const std::string key_id = hex_encode(crypto::sha256(key));
  auto r = coord.rdp(coord::Template::of({kSessionTag, user_id, key_id, "*"}));
  return {r.value.ok() && r.value->has_value(), r.delay};
}

SecureCacheTransform::SecureCacheTransform(std::shared_ptr<SessionKeyManager> keys,
                                           std::shared_ptr<crypto::Drbg> drbg)
    : keys_(std::move(keys)), drbg_(std::move(drbg)) {}

Bytes SecureCacheTransform::protect(const std::string& path, std::uint64_t version,
                                    BytesView plaintext) {
  const auto current = keys_->current(*drbg_);
  return crypto::gcm_seal(cache_key(current.key), drbg_->generate(kCacheIvSize), plaintext,
                          cache_aad(path, version));
}

Result<Bytes> SecureCacheTransform::unprotect(const std::string& path,
                                              std::uint64_t version, BytesView cached) {
  const auto current = keys_->current(*drbg_);
  if (current.rotated) {
    // The key under which this entry was sealed has expired; per §4.2.1 the
    // cached file is discarded and refetched.
    return Error{ErrorCode::kExpired, "cache: session key rotated"};
  }
  return crypto::gcm_open(cache_key(current.key), cached, cache_aad(path, version),
                          kCacheIvSize);
}

}  // namespace rockfs::core
