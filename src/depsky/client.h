// DepSky cloud-of-clouds storage client (paper §5.1, after Bessani et al.
// EuroSys'11). Stores each *data unit* across n = 3f+1 clouds so that it
// survives f cloud failures or corruptions:
//
//   protocol A  — full replica at every cloud (n x storage)
//   protocol CA — data encrypted under a fresh AES-256 key, the key split
//                 with Shamir (f+1 of n), the ciphertext erasure-coded with
//                 Reed-Solomon (k = f+1 of n)  =>  n/k = 2x storage for f=1
//
// Every unit carries signed, versioned metadata (metadata.h). Writes push
// shares to all clouds in parallel and complete at the (n-f)-th ack; reads
// accept the highest-version valid metadata and the fastest f+1 digest-valid
// shares, or, when the caller already holds an authenticated digest of the
// content, the highest-version well-formed metadata and only content that
// matches that digest. Like every simulated component, operations return
// sim::Timed and never advance the clock themselves.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cloud/provider.h"
#include "common/executor.h"
#include "common/result.h"
#include "common/retry.h"
#include "crypto/drbg.h"
#include "crypto/signature.h"
#include "depsky/health.h"
#include "depsky/metadata.h"
#include "obs/metrics.h"
#include "sim/timed.h"

namespace rockfs::depsky {

struct DepSkyConfig {
  std::vector<cloud::CloudProviderPtr> clouds;  // n = 3f+1 providers
  std::size_t f = 1;
  Protocol protocol = Protocol::kCA;
  crypto::KeyPair writer;  // signs unit metadata
  /// Readers accept metadata from these signers (the writer's own public key
  /// is always trusted; the client prepares it when no entry encodes it).
  /// RockFS adds the administrator here so that files re-uploaded during
  /// recovery remain readable by the user. Each key's comb is built on its
  /// first check and kept by the key, so a holder that reuses the handles
  /// across clients (an agent across its sessions) builds it once.
  std::vector<crypto::PreparedKeyPtr> trusted_writers;
  /// Per-cloud retry of transient failures (backoff charged to virtual time).
  RetryPolicy retry;
  /// Per-cloud circuit-breaker thresholds (health.h).
  HealthOptions health;
  /// Fan-out branches (per-cloud gets/puts, share encode, digesting) run
  /// here; null means inline on the caller's thread. The same quorum-join
  /// code path executes either way, so seeded runs produce byte-identical
  /// metadata, digests and trace dumps at any thread count.
  std::shared_ptr<common::Executor> executor;
  /// Optional wall-clock emulation: invoked inside each per-cloud branch
  /// with the branch's virtual delay, typically sleeping a scaled-down real
  /// amount. Must honor the cancel token (return early once cancelled).
  /// Setting it together with a multi-thread executor makes quorum joins
  /// first-quorum: they freeze at the goal-th wall-clock success and cancel
  /// the stragglers. Every other setup joins as a barrier (every branch
  /// included, completion composed from virtual delays).
  std::function<void(sim::SimClock::Micros, const common::CancelToken&)> emulate_latency;
  /// Shared freshness witness (metadata.h). Every client of one deployment
  /// should share one instance so a cloud contradicting what it told another
  /// session is caught (equivocation); null means a private witness.
  VersionWitnessPtr witness;
  /// Session identifier recorded with witness marks. A cloud serving below a
  /// mark this same session witnessed is rolling back; below another
  /// session's mark, it is equivocating.
  std::string session = "local";
  /// Cloud-set membership epoch this client believes current
  /// (depsky/reconfig.h). Writes fail closed (kFenced) when a unit's head
  /// metadata carries a newer epoch — the client's cloud set is stale.
  std::uint64_t membership_epoch = 0;
};

/// What a read's caller already knows the content must be, from a record
/// an authenticated structure binds (a FssAgg-audited log record carries
/// its payload's size and SHA-256 inside its MAC).
struct ExpectedContent {
  std::uint64_t size = 0;
  Bytes sha256;
};

class DepSkyClient {
 public:
  DepSkyClient(DepSkyConfig config, BytesView drbg_seed);

  std::size_t n() const noexcept { return config_.clouds.size(); }
  const DepSkyConfig& config() const noexcept { return config_; }
  /// Adds a metadata signer the reader will accept (idempotent). Multi-client
  /// sharing: each user trusts the other writers of the shared namespace, so
  /// a unit last written by a peer stays readable. The roster only ever
  /// grows, which is why a remembered "authentic" verdict (the accepted
  /// heads below) can never go stale; a future removal must clear that map.
  /// `key` is not null.
  void add_trusted_writer(crypto::PreparedKeyPtr key) {
    for (const auto& w : config_.trusted_writers) {
      if (w->encoded() == key->encoded()) return;
    }
    config_.trusted_writers.push_back(std::move(key));
  }
  std::size_t f() const noexcept { return config_.f; }
  /// Erasure/secret-sharing threshold: f+1 shares reconstruct.
  std::size_t k() const noexcept { return config_.f + 1; }
  Protocol protocol() const noexcept { return config_.protocol; }

  /// Writes a new version of `unit`. `tokens[i]` authenticates at cloud i.
  sim::Timed<Status> write(const std::vector<cloud::AccessToken>& tokens,
                           const std::string& unit, BytesView data);

  /// Reads the latest version of `unit`. With `expected`, the content is
  /// bound to it instead of to a metadata signature: the metadata round
  /// takes every well-formed copy as a candidate without checking it (and
  /// none feeds the witness, the accepted heads or the misbehavior ledger),
  /// and the read returns only content of that size and SHA-256. When that
  /// attempt fails or its content differs, the checked read runs once and
  /// its delay is added, so a forged copy costs one retry; content the
  /// checked read returns must match too (kIntegrity otherwise).
  sim::Timed<Result<Bytes>> read(
      const std::vector<cloud::AccessToken>& tokens, const std::string& unit,
      const std::optional<ExpectedContent>& expected = std::nullopt);

  /// Reads a unit whose shares were moved to cold storage (admin-only,
  /// Glacier-class latency). Metadata must still be hot. `expected` as for
  /// read().
  sim::Timed<Result<Bytes>> read_archived(
      const std::vector<cloud::AccessToken>& tokens, const std::string& unit,
      const std::optional<ExpectedContent>& expected = std::nullopt);

  /// Reads the unit's current version number (0 = does not exist).
  sim::Timed<Result<std::uint64_t>> head_version(
      const std::vector<cloud::AccessToken>& tokens, const std::string& unit);

  /// Deletes all objects of `unit` (files only; the log namespace refuses).
  sim::Timed<Status> remove(const std::vector<cloud::AccessToken>& tokens,
                            const std::string& unit);

  // ---- freshness / membership ----

  /// The freshness witness this client records into and checks against.
  VersionWitness& witness() noexcept { return *witness_; }
  std::uint64_t membership_epoch() const noexcept { return config_.membership_epoch; }
  /// Adopts a newer cloud-set membership epoch (after a reconfiguration this
  /// client has learned about); never lowers the current one.
  void set_membership_epoch(std::uint64_t epoch) noexcept {
    if (epoch > config_.membership_epoch) config_.membership_epoch = epoch;
  }
  /// Re-signs and re-publishes `unit`'s current metadata carrying `epoch`
  /// (same version number, this client's signature — the migration pipeline
  /// runs it with the admin's writer key). Idempotent: a unit already at
  /// `epoch` or newer is left untouched, so a crashed migration can re-run.
  sim::Timed<Status> stamp_membership_epoch(const std::vector<cloud::AccessToken>& tokens,
                                            const std::string& unit,
                                            std::uint64_t epoch);

  /// Proactive redundancy repair: verifies every share of `unit` against the
  /// metadata digests and re-creates missing or corrupt ones from the valid
  /// k. In the append-only log namespace, *lost* shares can be re-created
  /// (a create is an append) but corrupt ones cannot be overwritten — they
  /// are reported instead.
  struct RepairReport {
    std::size_t shares_ok = 0;
    std::size_t shares_repaired = 0;
    std::size_t shares_unrepairable = 0;  // corrupt but not overwritable
    std::size_t meta_repaired = 0;        // metadata replicas re-created
    std::size_t meta_unrepairable = 0;    // metadata re-put denied
  };
  sim::Timed<Result<RepairReport>> repair(const std::vector<cloud::AccessToken>& tokens,
                                          const std::string& unit);

  /// Per-cloud survivorship of `unit`'s current version, cheaper than a full
  /// read: which clouds hold a digest-valid hot share, which moved it to
  /// cold storage, and how many metadata replicas survive. The anti-entropy
  /// scrubber (rockfs/scrub.h) compares valid_count() against k + margin to
  /// decide degradation without downloading payload-sized data.
  struct ShareInventory {
    std::uint64_t version = 0;
    std::size_t meta_replicas = 0;     // clouds holding valid current metadata
    /// Clouds holding valid-signed metadata of an OLD version: stale-but-
    /// authentic replicas (what a rolled-back cloud serves). They never count
    /// toward meta_replicas.
    std::size_t meta_stale = 0;
    std::vector<bool> share_valid;     // hot object matching the meta digest
    std::vector<bool> share_present;   // some hot object exists (maybe corrupt)
    std::vector<bool> share_archived;  // share moved to cold storage
    /// Current-version share gone but the previous version's share still
    /// held: the cloud is serving stale data, not missing data.
    std::vector<bool> share_stale;
    /// Surviving shares: digest-valid hot plus archived (cold objects are
    /// immutable once moved, so they count as redundancy).
    std::size_t valid_count() const;
  };
  sim::Timed<Result<ShareInventory>> share_inventory(
      const std::vector<cloud::AccessToken>& tokens, const std::string& unit);

  // ---- resilience introspection ----

  /// Circuit breaker guarding cloud i (open clouds are skipped when a
  /// quorum is reachable without them; see health.h).
  HealthTracker& cloud_health(std::size_t i) { return *health_.at(i); }
  const HealthTracker& cloud_health(std::size_t i) const { return *health_.at(i); }

  struct ResilienceStats {
    std::uint64_t attempts = 0;        // per-cloud requests actually issued
    std::uint64_t retries = 0;         // attempts beyond each first try
    std::uint64_t breaker_skips = 0;   // requests not sent (breaker open)
    std::uint64_t forced_probes = 0;   // open clouds conscripted for quorum
    std::uint64_t deadline_hits = 0;   // retry loops stopped by the deadline
  };
  /// Snapshot (fan-out branches mutate the stats concurrently).
  ResilienceStats resilience_stats() const {
    std::lock_guard<std::mutex> lk(stats_mu_);
    return stats_;
  }

  /// Size of the per-cloud blob a write of `data_size` bytes stores at each
  /// cloud: the payload itself (protocol A) or erasure shard + key share
  /// (protocol CA). Derived independently of the write path (a dummy
  /// encode), so tests can check byte-conservation invariants against the
  /// per-cloud put counters without circularity.
  std::size_t encoded_blob_size(std::size_t data_size) const;

  // ---- object key layout ----

  /// `<unit>.meta`: the unit's metadata replica at each cloud.
  static std::string metadata_key(const std::string& unit);
  /// `<unit>.v<version>.s<cloud_index>`: one cloud's share of one version.
  static std::string share_key(const std::string& unit, std::uint64_t version,
                               std::size_t cloud_index);
  /// The unit a stored key belongs to: the key minus a `.meta` suffix or a
  /// `.v<digits>.s<digits>` suffix. Any other key has no unit.
  static std::optional<std::string> unit_of_key(const std::string& key);

 private:
  struct MetadataFetch {
    Result<UnitMetadata> metadata;
    sim::SimClock::Micros delay = 0;
  };

  /// Highest-version valid metadata over an (n-f) quorum. `bound`: the
  /// caller checks the content against an expected digest, so every
  /// well-formed copy is a candidate without authentic(), and neither the
  /// witness nor the accepted heads learn anything from the round.
  MetadataFetch fetch_metadata(const std::vector<cloud::AccessToken>& tokens,
                               const std::string& unit, bool bound = false);
  /// Whether the metadata is signed by a trusted writer: checked with the
  /// prepared key whose encoding is its writer_pub.
  bool trusted(const UnitMetadata& meta) const;
  /// Signature verdicts reached within one pass over the clouds' copies of
  /// a unit's metadata (one quorum round, one repair or inventory sweep),
  /// keyed by the exact serialized bytes.
  using Verdicts = std::vector<std::pair<Bytes, bool>>;
  /// The one trust decision for a metadata copy: `raw` as served, `meta`
  /// its deserialization (already shape-checked). A copy byte-identical to
  /// the unit's accepted head, or to one in `decided`, reuses that verdict;
  /// any other copy runs trusted() once and joins `decided`.
  bool authentic(const std::string& unit, BytesView raw, const UnitMetadata& meta,
                 Verdicts& decided) const;
  /// Shared body of read / read_archived.
  sim::Timed<Result<Bytes>> read_impl(const std::vector<cloud::AccessToken>& tokens,
                                      const std::string& unit, bool cold,
                                      const std::optional<ExpectedContent>& expected);

  /// Cloud indices to contact for one quorum phase: every cloud whose
  /// breaker admits requests, padded with open-breaker clouds (forced
  /// probes) until an (n-f) quorum is reachable. Ascending order.
  std::vector<std::size_t> contact_set();

  /// get/put against cloud i with per-cloud retry; records the outcome in
  /// the cloud's circuit breaker and the resilience stats. Thread-safe (fan
  /// out branches call these concurrently for distinct clouds). The backoff
  /// jitter seed is pre-drawn by the coordinator in contact order so the
  /// stream is identical at any thread count; `cancel` interrupts the
  /// optional wall-clock latency emulation.
  sim::Timed<Result<Bytes>> guarded_get(std::size_t i, const cloud::AccessToken& token,
                                        const std::string& key, std::uint64_t backoff_seed,
                                        const common::CancelToken& cancel);
  sim::Timed<Status> guarded_put(std::size_t i, const cloud::AccessToken& token,
                                 const std::string& key, BytesView data,
                                 std::uint64_t backoff_seed,
                                 const common::CancelToken& cancel);

  /// The one quorum round every phase runs: probe(cloud, jitter_seed, cancel)
  /// fans out over contact_set() on the executor, and the included results
  /// go to ingest(cloud, Probe&&) in ascending cloud order. If fewer than
  /// `goal` of them pass ok(probe) and the breaker held clouds back, those
  /// (never quarantined ones) are probed as forced probes after round one,
  /// their delays offset by its completion. Returns the delay of every
  /// ingested probe, in ingestion order; callers compose completion from it.
  template <typename ProbeFn, typename OkFn, typename IngestFn>
  std::vector<sim::SimClock::Micros> quorum_round(std::size_t goal, ProbeFn&& probe,
                                                  OkFn&& ok, IngestFn&& ingest);

  /// One write quorum phase: puts keys[i]/blobs[i] at every contactable
  /// cloud, falling back to skipped clouds if the first round misses the
  /// (n-f) quorum. Reports per-cloud failure detail for error messages.
  struct QuorumPutResult {
    std::size_t acks = 0;
    sim::SimClock::Micros delay = 0;  // completion of the quorum (or of all tries)
    std::string failure_detail;       // "cloud-1=timeout, cloud-2=unavailable"
    std::vector<bool> acked;          // per cloud index (feeds the witness)
  };
  /// `phase` labels the quorum span and selects the per-cloud byte
  /// accounting: the "data" phase records depsky.put.data.{bytes,acks}.
  QuorumPutResult quorum_put(const std::vector<cloud::AccessToken>& tokens,
                             const std::vector<std::string>& keys,
                             const std::vector<BytesView>& blobs, const char* phase);

  void record_outcome(std::size_t cloud, const RetryOutcome& outcome, ErrorCode final);

  /// Books one proven misbehavior incident against cloud i's ledger and
  /// alarms through metrics + a span (the quarantine decision lives in the
  /// HealthTracker).
  void flag_misbehavior(std::size_t cloud, MisbehaviorKind kind, const std::string& unit);

  /// Registry handles resolved once at construction (hot-path friendly).
  struct ObsHandles {
    obs::Counter* attempts = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* deadline_hits = nullptr;
    obs::Counter* breaker_skips = nullptr;
    obs::Counter* forced_probes = nullptr;
    obs::Counter* meta_verified = nullptr;  // metadata signature checks run
    obs::Counter* meta_reused = nullptr;    // copies accepted by byte equality
    std::vector<obs::Counter*> put_data_bytes;  // per cloud, acked data puts
    std::vector<obs::Counter*> put_data_acks;   // per cloud
  };

  DepSkyConfig config_;
  VersionWitnessPtr witness_;
  crypto::Drbg drbg_;
  // unique_ptr: HealthTracker owns a mutex and cannot live in a resizable
  // vector by value.
  std::vector<std::unique_ptr<HealthTracker>> health_;  // one breaker per cloud
  Rng backoff_rng_;                    // jitter stream for retry backoff
  mutable std::mutex stats_mu_;        // guards stats_ (branches update it)
  ResilienceStats stats_;
  ObsHandles obs_;
  /// unit -> serialized head metadata the last successful checked
  /// fetch_metadata selected, or that this client's last write or stamp of
  /// the unit published to a quorum. Every entry passed trusted() in this
  /// client or was signed by its own writer key, which is on its roster
  /// (own_writes_trusted_), so an unchanged head costs a byte comparison
  /// instead of a signature check. Touched only on the coordinator thread
  /// (ingest runs there, never in branches).
  std::map<std::string, Bytes> accepted_heads_;
  /// Whether this client's writer key is on its roster, so that metadata it
  /// signs would pass trusted(): false only for the identity key.
  bool own_writes_trusted_ = false;
};

}  // namespace rockfs::depsky
