// Signed, versioned metadata for DepSky data units (paper §5.1). Every unit
// stores, next to its data shares, a metadata object carrying the version
// number and the digest of each cloud's share, signed by the writer. Readers
// accept the highest-version metadata with a valid signature, then accept
// only shares whose digests match — which is how a Byzantine cloud's lies
// are filtered out.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/signature.h"

namespace rockfs::depsky {

enum class Protocol : std::uint8_t {
  kA = 0,   // availability: full replication on every cloud
  kCA = 1,  // confidentiality + availability: AES + secret-shared key + erasure codes
};

const char* protocol_name(Protocol p);

struct UnitMetadata {
  std::string unit;
  std::uint64_t version = 0;
  Protocol protocol = Protocol::kCA;
  std::uint64_t data_size = 0;        // plaintext size
  /// Cloud-set membership epoch this unit was last written/migrated under
  /// (depsky/reconfig.h). 0 = the initial cloud set. Writers fail closed when
  /// their configured epoch is older than the one stamped here.
  std::uint64_t membership_epoch = 0;
  std::vector<Bytes> share_digests;   // SHA-256 of the blob stored at cloud i
  Bytes writer_pub;                   // encoded public key of the signer
  Bytes signature;                    // Schnorr over signing_payload()

  /// Canonical bytes covered by the signature.
  Bytes signing_payload() const;

  Bytes serialize() const;
  static Result<UnitMetadata> deserialize(BytesView b);

  /// Signs with the writer's key (fills writer_pub and signature).
  void sign(const crypto::KeyPair& writer);
  /// Whether `expected_writer` is the signer (writer_pub is its encoding)
  /// and the signature checks under it.
  bool verify(const crypto::PreparedKey& expected_writer) const;
};

// ------------------------------------------------------- version witness
//
// Deployment-wide freshness memory. Signatures prove *authenticity* of unit
// metadata but not *freshness*: a malicious cloud can serve an old version
// whose signature is perfectly valid (rollback), or different valid versions
// to different sessions (equivocation). The witness closes that gap with
// accountability: it records, per (unit, cloud), the highest version the
// cloud has provably known — because it acked the share/metadata upload of
// that version, or because it served that version itself. A cloud later
// answering *below its own mark* is caught lying, with zero false positives:
// an honest cloud that merely missed a write (outage, lost ack) never has a
// mark above what it stores.
//
// One witness instance is shared by every client of a deployment (it is
// thread-safe), so session B's reads are checked against what the cloud told
// session A — which is exactly how equivocation becomes visible.

class VersionWitness {
 public:
  struct Mark {
    std::uint64_t version = 0;
    std::string session;  // session that witnessed it (attribution in alarms)
  };

  /// Cloud acked or served `unit`'s metadata at `version` (monotone max).
  void record_meta(const std::string& unit, const std::string& cloud,
                   std::uint64_t version, const std::string& session);
  /// Cloud acked the upload of `unit`'s data share at `version`.
  void record_share(const std::string& unit, const std::string& cloud,
                    std::uint64_t version);
  /// A quorum confirmed `unit` at `version` (unit-level high-water mark).
  void record_unit(const std::string& unit, std::uint64_t version,
                   const std::string& session);

  /// Highest metadata version `cloud` provably knows for `unit`.
  std::optional<Mark> meta_mark(const std::string& unit, const std::string& cloud) const;
  /// Highest version whose share upload `cloud` acked for `unit`.
  std::optional<std::uint64_t> share_mark(const std::string& unit,
                                          const std::string& cloud) const;
  /// Quorum-confirmed high-water mark of `unit`.
  std::optional<Mark> unit_mark(const std::string& unit) const;

  /// Forgets a unit after a sanctioned remove, so a later recreate starting
  /// over at version 1 is not misread as a rollback.
  void forget_unit(const std::string& unit);

 private:
  mutable std::mutex mu_;
  std::map<std::pair<std::string, std::string>, Mark> meta_marks_;
  std::map<std::pair<std::string, std::string>, std::uint64_t> share_marks_;
  std::map<std::string, Mark> unit_marks_;
};

using VersionWitnessPtr = std::shared_ptr<VersionWitness>;

}  // namespace rockfs::depsky
