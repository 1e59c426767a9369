// Local-cache protection (paper §4.2, Fig. 4): RockFS's CacheTransform for
// SCFS. Every cached file is stored sealed — AES-256-GCM under a key derived
// from the session key S_U (HKDF-SHA256, "rockfs.cache.gcm"), a 256-bit IV
// from the agent's DRBG (instantiated per login with its own nonce, so no IV
// comes back in a later session), and an AAD binding the file path and
// version. The AEAD's tag subsumes the paper's "hash value h_fu encrypted
// together with the file": the same tamper-evidence from a standard
// construction. The box is IV(32) || ciphertext || tag(16), 48 bytes over
// the file. On open, a failed verification makes SCFS discard the cache
// entry and refetch from the cloud, exactly the §4.2.2 flow.
//
// S_U is short-lived: its identifier and expiry are registered in the
// coordination service so an attacker cannot keep using an old key after
// rotation (§4.2.1). When the key expires the whole cache is discarded.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/result.h"
#include "coord/service.h"
#include "crypto/drbg.h"
#include "scfs/scfs.h"

namespace rockfs::core {

/// Manages the session key lifecycle against the coordination service.
class SessionKeyManager {
 public:
  SessionKeyManager(std::string user_id, std::shared_ptr<coord::CoordinationService> coord,
                    sim::SimClockPtr clock, std::int64_t validity_us);
  ~SessionKeyManager();

  /// Adopts the keystore's stored S_U and its expiry (login flow). An
  /// already-expired seed is kept but never served: the first current() call
  /// mints a fresh key and reports a rotation, so every cache entry sealed
  /// under the expired key fails open and is refetched from the cloud.
  void seed(Bytes key, std::int64_t expiry_us);

  /// Current key, rotating (and registering) a fresh one if expired.
  /// The returned flag says whether a rotation happened (cache must drop).
  struct Current {
    Bytes key;
    bool rotated = false;
  };
  Current current(crypto::Drbg& drbg);

  /// True if the given key is the registered, unexpired session key.
  bool valid(BytesView key) const;

  std::int64_t expiry_us() const noexcept { return expiry_us_; }

  /// Invoked after every rotation (fresh key minted + registered). The agent
  /// hangs the cache drop here: a rotation must leave ZERO servable entries —
  /// sealed data would fail open anyway, but metadata and negative entries
  /// carry no seal, so only an explicit drop evicts them (§4.2.1).
  void set_rotation_hook(std::function<void()> hook) { rotation_hook_ = std::move(hook); }

 private:
  void register_key(BytesView key);

  std::string user_id_;
  std::shared_ptr<coord::CoordinationService> coord_;
  sim::SimClockPtr clock_;
  std::int64_t validity_us_;
  Bytes key_;
  std::int64_t expiry_us_ = -1;
  std::function<void()> rotation_hook_;
};

/// Registers `key`'s digest as the user's one currently-valid session key,
/// replacing any previous registration (rotation-side: a stolen S_U stops
/// validating the moment the rotated key is published).
sim::Timed<Status> publish_session_key(coord::CoordinationService& coord,
                                       const std::string& user_id, BytesView key,
                                       std::int64_t expiry_us);

/// Whether `key` is the user's currently registered session key.
sim::Timed<bool> session_key_registered(coord::CoordinationService& coord,
                                        const std::string& user_id, BytesView key);

/// The encrypting CacheTransform installed into SCFS.
class SecureCacheTransform final : public scfs::CacheTransform {
 public:
  SecureCacheTransform(std::shared_ptr<SessionKeyManager> keys,
                       std::shared_ptr<crypto::Drbg> drbg);

  Bytes protect(const std::string& path, std::uint64_t version,
                BytesView plaintext) override;
  Result<Bytes> unprotect(const std::string& path, std::uint64_t version,
                          BytesView cached) override;

 private:
  std::shared_ptr<SessionKeyManager> keys_;
  std::shared_ptr<crypto::Drbg> drbg_;
};

}  // namespace rockfs::core
