#include "depsky/client.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "crypto/aes.h"
#include "crypto/sha256.h"
#include "erasure/reed_solomon.h"
#include "obs/trace.h"
#include "secretshare/shamir.h"

namespace rockfs::depsky {

namespace {

// Per-cloud share blob for protocol CA: erasure shard + Shamir key share,
// lp(shard) ‖ lp(key_share.serialize()), built at its final size so the
// shard is copied once into one allocation.
Bytes encode_ca_blob(BytesView shard, const secretshare::ShamirShare& key_share) {
  const std::size_t share_size = 1 + key_share.y.size();  // x ‖ y
  Bytes out;
  out.reserve(4 + shard.size() + 4 + share_size);
  append_lp(out, shard);
  append_u32(out, static_cast<std::uint32_t>(share_size));
  out.push_back(key_share.x);
  append(out, key_share.y);
  return out;
}

struct CaBlob {
  Bytes shard;
  secretshare::ShamirShare key_share;
};

Result<CaBlob> decode_ca_blob(BytesView blob) {
  try {
    std::size_t off = 0;
    CaBlob out;
    out.shard = read_lp(blob, &off);
    auto share = secretshare::ShamirShare::deserialize(read_lp(blob, &off));
    if (!share.ok()) return share.error();
    out.key_share = std::move(*share);
    if (off != blob.size()) return Error{ErrorCode::kCorrupted, "ca blob: trailing bytes"};
    return out;
  } catch (const std::exception& e) {
    return Error{ErrorCode::kCorrupted, std::string("ca blob: ") + e.what()};
  }
}

// Whether `blob` is the share the metadata names for cloud `i`: every fetched
// or rebuilt share is checked here against its signed digest.
bool share_matches(const UnitMetadata& meta, std::size_t i, BytesView blob) {
  return ct_equal(crypto::sha256(blob), meta.share_digests[i]);
}

}  // namespace

DepSkyClient::DepSkyClient(DepSkyConfig config, BytesView drbg_seed)
    : config_(std::move(config)),
      witness_(config_.witness ? config_.witness : std::make_shared<VersionWitness>()),
      drbg_(drbg_seed, to_bytes("depsky-client")),
      // Fixed seed: the jitter stream must not consume from drbg_ (that would
      // shift the AES key schedule) and need not vary between clients — the
      // per-cloud providers already decorrelate timing.
      backoff_rng_(0x5DEECE66DULL) {
  if (config_.clouds.size() < 3 * config_.f + 1) {
    throw std::invalid_argument("DepSkyClient: need n >= 3f+1 clouds");
  }
  health_.reserve(config_.clouds.size());
  for (const auto& cloud : config_.clouds) {
    health_.push_back(
        std::make_unique<HealthTracker>(cloud->clock(), config_.health, cloud->name()));
  }
  auto& reg = obs::metrics();
  obs_.attempts = &reg.counter("depsky.attempts");
  obs_.retries = &reg.counter("depsky.retries");
  obs_.deadline_hits = &reg.counter("depsky.deadline_hits");
  obs_.breaker_skips = &reg.counter("depsky.breaker.skips");
  obs_.forced_probes = &reg.counter("depsky.forced_probes");
  obs_.meta_verified = &reg.counter("depsky.meta.verified");
  obs_.meta_reused = &reg.counter("depsky.meta.reused");
  for (const auto& cloud : config_.clouds) {
    obs_.put_data_bytes.push_back(
        &reg.counter(obs::metric_key("depsky.put.data.bytes", cloud->name())));
    obs_.put_data_acks.push_back(
        &reg.counter(obs::metric_key("depsky.put.data.acks", cloud->name())));
  }
  const Bytes own = config_.writer.public_bytes();
  bool has_own = false;
  for (const auto& w : config_.trusted_writers) has_own = has_own || ct_equal(w->encoded(), own);
  // A client built without a writer key (the identity) trusts no own key:
  // nothing verifies under the identity.
  own_writes_trusted_ = !config_.writer.public_key.infinity;
  if (!has_own && own_writes_trusted_) {
    config_.trusted_writers.push_back(
        std::make_shared<const crypto::PreparedKey>(config_.writer.public_key));
  }
}

std::vector<std::size_t> DepSkyClient::contact_set() {
  std::vector<std::size_t> allowed;
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < n(); ++i) {
    // Quarantined clouds are out of the quorum entirely: unlike breaker-open
    // clouds they are never conscripted, because a proven liar answering a
    // forced probe is worse than no answer at all.
    if (health_[i]->quarantined()) continue;
    if (health_[i]->allow_request()) {
      allowed.push_back(i);
    } else {
      open.push_back(i);
    }
  }
  // The breaker is only an optimization: if skipping open clouds would make
  // an (n-f) quorum unreachable, conscript them as forced probes so the
  // breaker can never cause a failure that would not otherwise happen.
  const std::size_t quorum = n() - f();
  std::size_t probes = 0;
  for (std::size_t j = 0; allowed.size() < quorum && j < open.size(); ++j) {
    allowed.push_back(open[j]);
    ++probes;
    obs_.forced_probes->add();
  }
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.forced_probes += probes;
    stats_.breaker_skips += n() - allowed.size();
  }
  obs_.breaker_skips->add(n() - allowed.size());
  std::sort(allowed.begin(), allowed.end());
  return allowed;
}

void DepSkyClient::record_outcome(std::size_t cloud, const RetryOutcome& outcome,
                                  ErrorCode final) {
  {
    std::lock_guard<std::mutex> lk(stats_mu_);
    stats_.attempts += static_cast<std::uint64_t>(outcome.attempts);
    stats_.retries += static_cast<std::uint64_t>(outcome.attempts - 1);
    if (outcome.deadline_exhausted) ++stats_.deadline_hits;
  }
  obs_.attempts->add(static_cast<std::uint64_t>(outcome.attempts));
  obs_.retries->add(static_cast<std::uint64_t>(outcome.attempts - 1));
  if (outcome.deadline_exhausted) obs_.deadline_hits->add();
  // Only transport-class failures count against the breaker: kNotFound,
  // kPermissionDenied etc. mean the cloud answered and is healthy.
  if (final == ErrorCode::kUnavailable || final == ErrorCode::kTimeout) {
    health_[cloud]->record_failure();
  } else {
    health_[cloud]->record_success();
  }
}

void DepSkyClient::flag_misbehavior(std::size_t cloud, MisbehaviorKind kind,
                                    const std::string& unit) {
  health_[cloud]->record_misbehavior(kind);
  obs::metrics()
      .counter(obs::metric_key(std::string("depsky.detect.") + misbehavior_kind_name(kind),
                               config_.clouds[cloud]->name()))
      .add();
  obs::Span span = obs::tracer().span("depsky.misbehavior");
  span.set_label(config_.clouds[cloud]->name() + ":" + misbehavior_kind_name(kind) +
                 ":" + unit);
  span.set_outcome(kind == MisbehaviorKind::kEquivocation ? ErrorCode::kEquivocation
                                                          : ErrorCode::kStaleVersion);
}

sim::Timed<Result<Bytes>> DepSkyClient::guarded_get(std::size_t i,
                                                    const cloud::AccessToken& token,
                                                    const std::string& key,
                                                    std::uint64_t backoff_seed,
                                                    const common::CancelToken& cancel) {
  obs::Span span = obs::tracer().span("depsky.get");
  span.set_label(config_.clouds[i]->name());
  RetryOutcome outcome;
  auto timed = retry_timed(
      config_.retry, backoff_seed,
      [&] { return config_.clouds[i]->get(token, key); }, &outcome);
  if (config_.emulate_latency) config_.emulate_latency(timed.delay, cancel);
  record_outcome(i, outcome, timed.value.code());
  span.set_duration(static_cast<std::uint64_t>(timed.delay));
  // Provider attempts are this span's serial children; only the retry
  // backoff pauses are this layer's own (exclusive) time.
  span.charge_child(static_cast<std::uint64_t>(timed.delay - outcome.backoff_us));
  span.set_retries(static_cast<std::uint32_t>(outcome.attempts - 1));
  span.set_outcome(timed.value.code());
  return timed;
}

sim::Timed<Status> DepSkyClient::guarded_put(std::size_t i, const cloud::AccessToken& token,
                                             const std::string& key, BytesView data,
                                             std::uint64_t backoff_seed,
                                             const common::CancelToken& cancel) {
  obs::Span span = obs::tracer().span("depsky.put");
  span.set_label(config_.clouds[i]->name());
  RetryOutcome outcome;
  auto timed = retry_timed(
      config_.retry, backoff_seed,
      [&] { return config_.clouds[i]->put(token, key, data); }, &outcome);
  if (config_.emulate_latency) config_.emulate_latency(timed.delay, cancel);
  record_outcome(i, outcome, timed.value.code());
  span.set_duration(static_cast<std::uint64_t>(timed.delay));
  span.charge_child(static_cast<std::uint64_t>(timed.delay - outcome.backoff_us));
  span.set_retries(static_cast<std::uint32_t>(outcome.attempts - 1));
  span.set_bytes(data.size());
  span.set_outcome(timed.value.code());
  return timed;
}

template <typename ProbeFn, typename OkFn, typename IngestFn>
std::vector<sim::SimClock::Micros> DepSkyClient::quorum_round(std::size_t goal,
                                                              ProbeFn&& probe, OkFn&& ok,
                                                              IngestFn&& ingest) {
  using Probe = std::invoke_result_t<ProbeFn&, std::size_t, std::uint64_t,
                                     const common::CancelToken&>;
  std::vector<sim::SimClock::Micros> delays;
  std::size_t successes = 0;
  const auto take = [&](std::size_t i, Probe&& result) {
    delays.push_back(result.delay);
    if (ok(result)) ++successes;
    ingest(i, std::move(result));
  };

  const auto contacted = contact_set();
  // Jitter seeds pre-drawn in contact order: the stream consumed is the same
  // whether the branches then run inline or on N pool threads.
  std::vector<std::uint64_t> seeds;
  seeds.reserve(contacted.size());
  for (std::size_t j = 0; j < contacted.size(); ++j) seeds.push_back(backoff_rng_.next_u64());

  // Round one. Per-branch spans land in TaskTrace buffers spliced back in
  // branch order after the join, so a seeded trace dump is byte-identical at
  // any thread count. The join freezes at the goal-th wall-clock success
  // (cancelling stragglers) only when latency is emulated on a multi-thread
  // pool — the one setup where waiting costs real time; everywhere else it
  // is a barrier and completion is composed from virtual delays alone.
  common::Executor* pool = config_.executor.get();
  const bool pooled = pool != nullptr && pool->concurrency() > 1;
  common::InlineExecutor inline_exec;
  common::Executor& where = pooled ? *pool : inline_exec;
  std::vector<obs::TaskTrace> traces;
  traces.reserve(contacted.size());
  for (std::size_t j = 0; j < contacted.size(); ++j) traces.push_back(obs::tracer().make_task());
  common::QuorumJoin<Probe> join(contacted.size(),
                                 pooled && config_.emulate_latency ? goal : 0);
  for (std::size_t j = 0; j < contacted.size(); ++j) {
    join.launch(
        where, j,
        [&, j](const common::CancelToken& cancel) {
          obs::TaskBinding bind(&traces[j]);
          return probe(contacted[j], seeds[j], cancel);
        },
        ok);
  }
  auto round = join.wait();
  obs::tracer().splice(traces);
  for (const std::exception_ptr& err : round.errors) {
    if (err) std::rethrow_exception(err);
  }
  // Ingest in ascending contact order, counting only included branches — a
  // straggler landing after a first-quorum freeze contributes nothing (no
  // ack, no put.data.{bytes,acks}: the double-count property's invariant).
  for (std::size_t j = 0; j < contacted.size(); ++j) {
    if (round.included[j] && round.results[j].has_value()) {
      take(contacted[j], std::move(*round.results[j]));
    }
  }

  // Degraded fallback: if round one missed the goal and the breaker held
  // clouds back, conscript them as forced probes, one at a time after round
  // one completes. Quarantined clouds are never conscripted.
  if (successes < goal && contacted.size() < n()) {
    const auto round1 = sim::parallel_delay(delays);
    const common::CancelToken no_cancel;
    for (std::size_t i = 0; i < n(); ++i) {
      if (std::find(contacted.begin(), contacted.end(), i) != contacted.end()) continue;
      if (health_[i]->quarantined()) continue;
      {
        std::lock_guard<std::mutex> lk(stats_mu_);
        ++stats_.forced_probes;
      }
      obs_.forced_probes->add();
      auto result = probe(i, backoff_rng_.next_u64(), no_cancel);
      result.delay += round1;
      take(i, std::move(result));
    }
  }
  return delays;
}

DepSkyClient::QuorumPutResult DepSkyClient::quorum_put(
    const std::vector<cloud::AccessToken>& tokens, const std::vector<std::string>& keys,
    const std::vector<BytesView>& blobs, const char* phase) {
  obs::Span group = obs::tracer().span("depsky.put_quorum", {.fanout = true});
  group.set_label(phase);
  const bool data_phase = std::string_view(phase) == "data";
  QuorumPutResult result;
  result.acked.assign(n(), false);
  std::vector<std::pair<std::size_t, ErrorCode>> failures;
  const auto ingest = [&](std::size_t i, sim::Timed<Status>&& put) {
    if (put.value.ok()) {
      ++result.acks;
      result.acked[i] = true;
      if (data_phase) {
        // Acked data puts feed the byte-conservation invariant checked by
        // the property tests: sum(bytes) == blob size x sum(acks).
        obs_.put_data_bytes[i]->add(blobs[i].size());
        obs_.put_data_acks[i]->add();
      }
    } else {
      failures.emplace_back(i, put.value.code());
    }
  };

  const std::size_t quorum = n() - f();
  const auto delays = quorum_round(
      quorum,
      [&](std::size_t i, std::uint64_t seed, const common::CancelToken& cancel) {
        return guarded_put(i, tokens[i], keys[i], blobs[i], seed, cancel);
      },
      [](const sim::Timed<Status>& put) { return put.value.ok(); }, ingest);
  result.delay = delays.size() >= quorum ? sim::quorum_delay(delays, quorum)
                                         : sim::parallel_delay(delays);
  group.set_duration(static_cast<std::uint64_t>(result.delay));
  std::sort(failures.begin(), failures.end());
  for (const auto& [i, code] : failures) {
    if (!result.failure_detail.empty()) result.failure_detail += ", ";
    result.failure_detail += "cloud-" + std::to_string(i) + "=" + error_code_name(code);
  }
  return result;
}

bool DepSkyClient::trusted(const UnitMetadata& meta) const {
  for (const crypto::PreparedKeyPtr& w : config_.trusted_writers) {
    if (meta.verify(*w)) return true;
  }
  return false;
}

bool DepSkyClient::authentic(const std::string& unit, BytesView raw,
                             const UnitMetadata& meta, Verdicts& decided) const {
  const auto same = [&](const Bytes& copy) { return std::ranges::equal(copy, raw); };
  if (const auto head = accepted_heads_.find(unit);
      head != accepted_heads_.end() && same(head->second)) {
    obs_.meta_reused->add();
    return true;
  }
  for (const auto& [copy, verdict] : decided) {
    if (!same(copy)) continue;
    if (verdict) obs_.meta_reused->add();
    return verdict;
  }
  obs_.meta_verified->add();
  const bool ok = trusted(meta);
  decided.emplace_back(Bytes(raw.begin(), raw.end()), ok);
  return ok;
}

std::string DepSkyClient::metadata_key(const std::string& unit) { return unit + ".meta"; }

std::string DepSkyClient::share_key(const std::string& unit, std::uint64_t version,
                                    std::size_t cloud_index) {
  return unit + ".v" + std::to_string(version) + ".s" + std::to_string(cloud_index);
}

std::optional<std::string> DepSkyClient::unit_of_key(const std::string& key) {
  if (key.ends_with(".meta")) return key.substr(0, key.size() - 5);
  // [from, to) is a non-empty run of decimal digits.
  const auto digits = [&](std::size_t from, std::size_t to) {
    return from < to && key.find_first_not_of("0123456789", from) >= to;
  };
  const auto share = key.rfind(".s");
  if (share == std::string::npos || !digits(share + 2, key.size())) return std::nullopt;
  const auto version = key.rfind(".v", share);
  if (version == std::string::npos || !digits(version + 2, share)) return std::nullopt;
  return key.substr(0, version);
}

DepSkyClient::MetadataFetch DepSkyClient::fetch_metadata(
    const std::vector<cloud::AccessToken>& tokens, const std::string& unit, bool bound) {
  // Query every contactable cloud in parallel; a quorum of n-f responses
  // (found or definitive not-found) settles the answer. Branches only fetch,
  // deserialize and shape-check. Trust is decided post-join, in ascending
  // cloud order on this thread, by authentic(): the clouds of an honest
  // round serve identical bytes, so each distinct copy is verified at most
  // once, and a copy equal to the head this client last accepted costs a
  // byte comparison. The price: on a multi-thread pool, several *distinct*
  // authentic copies in one round verify one after another instead of
  // overlapping (an honest round verifies at most one). The highest-version
  // selection also happens here, so it is schedule-independent. A bound
  // round skips authentic() and everything that rests on it: the witness
  // marks, the high-water check and the accepted head.
  obs::Span group = obs::tracer().span("depsky.meta_fetch", {.fanout = true});
  struct MetaProbe {
    sim::SimClock::Micros delay = 0;
    bool responded = false;  // found or definitive not-found
    Bytes raw;               // the copy as served
    std::optional<UnitMetadata> meta;  // well-formed for this unit; unverified
  };
  UnitMetadata best;
  Bytes best_raw;
  bool found = false;
  std::size_t responses = 0;
  Verdicts decided;
  const auto ingest = [&](std::size_t i, MetaProbe&& probe) {
    if (probe.responded) ++responses;
    if (!probe.meta) return;
    if (!bound) {
      if (!authentic(unit, probe.raw, *probe.meta, decided)) return;
      // Freshness check against the witness: a cloud answering below its own
      // provable mark is lying (an honest cloud that merely missed a write
      // never has a mark above what it stores). kNotFound is deliberately
      // NOT checked — remove/recreate makes it legitimate.
      const std::string& cname = config_.clouds[i]->name();
      if (const auto mark = witness_->meta_mark(unit, cname);
          mark && probe.meta->version < mark->version) {
        flag_misbehavior(i,
                         mark->session == config_.session
                             ? MisbehaviorKind::kRollback
                             : MisbehaviorKind::kEquivocation,
                         unit);
      } else {
        witness_->record_meta(unit, cname, probe.meta->version, config_.session);
      }
    }
    // Equal versions tie-break on membership epoch so a freshly-stamped
    // copy beats a not-yet-migrated one (reconfig.h fencing depends on it).
    if (!found || probe.meta->version > best.version ||
        (probe.meta->version == best.version &&
         probe.meta->membership_epoch > best.membership_epoch)) {
      best = std::move(*probe.meta);
      best_raw = std::move(probe.raw);
      found = true;
    }
  };
  const auto probe_cloud = [&](std::size_t i, std::uint64_t seed,
                               const common::CancelToken& cancel) {
    MetaProbe probe;
    auto got = guarded_get(i, tokens[i], metadata_key(unit), seed, cancel);
    probe.delay = got.delay;
    if (got.value.ok()) {
      probe.responded = true;
      auto meta = UnitMetadata::deserialize(*got.value);
      if (meta.ok() && meta->unit == unit && meta->share_digests.size() == n()) {
        probe.meta = std::move(*meta);
        probe.raw = std::move(*got.value);
      }
    } else if (got.value.code() == ErrorCode::kNotFound) {
      probe.responded = true;
    }
    return probe;
  };

  const std::size_t quorum = n() - f();
  const auto delays = quorum_round(
      quorum, probe_cloud, [](const MetaProbe& probe) { return probe.responded; }, ingest);
  const auto delay = delays.size() >= quorum ? sim::quorum_delay(delays, quorum)
                                             : sim::parallel_delay(delays);
  group.set_duration(static_cast<std::uint64_t>(delay));
  if (responses < quorum) {
    group.set_outcome(ErrorCode::kUnavailable);
    return {Error{ErrorCode::kUnavailable, "depsky: metadata quorum unavailable"}, delay};
  }
  if (!found) {
    group.set_outcome(ErrorCode::kNotFound);
    return {Error{ErrorCode::kNotFound, "depsky: no such unit: " + unit}, delay};
  }
  if (bound) return {std::move(best), delay};
  // Unit-level high-water mark: even a quorum cannot serve below a version
  // this deployment has already confirmed. With honest majorities the
  // per-cloud checks above fire first; reaching here means > f clouds
  // collude, which must surface as an error, never as silently old data.
  if (const auto umark = witness_->unit_mark(unit);
      umark && best.version < umark->version) {
    group.set_outcome(ErrorCode::kStaleVersion);
    return {Error{ErrorCode::kStaleVersion,
                  "depsky: quorum served version " + std::to_string(best.version) +
                      " below witnessed high-water mark " +
                      std::to_string(umark->version) + " for unit " + unit},
            delay};
  }
  witness_->record_unit(unit, best.version, config_.session);
  accepted_heads_[unit] = std::move(best_raw);
  return {std::move(best), delay};
}

sim::Timed<Result<std::uint64_t>> DepSkyClient::head_version(
    const std::vector<cloud::AccessToken>& tokens, const std::string& unit) {
  auto fetched = fetch_metadata(tokens, unit);
  if (!fetched.metadata.ok()) {
    if (fetched.metadata.code() == ErrorCode::kNotFound) {
      return {std::uint64_t{0}, fetched.delay};
    }
    return {Error{fetched.metadata.error()}, fetched.delay};
  }
  return {fetched.metadata->version, fetched.delay};
}

sim::Timed<Status> DepSkyClient::write(const std::vector<cloud::AccessToken>& tokens,
                                       const std::string& unit, BytesView data) {
  if (tokens.size() != n()) {
    return {Status{ErrorCode::kInvalidArgument, "depsky write: one token per cloud"}, 0};
  }
  obs::Span span = obs::tracer().span("depsky.write");
  span.set_bytes(data.size());
  sim::SimClock::Micros total_delay = 0;
  const auto fail = [&](Status status) -> sim::Timed<Status> {
    span.set_duration(static_cast<std::uint64_t>(total_delay));
    span.set_outcome(status.code());
    return {std::move(status), total_delay};
  };
  const auto missed = [&](const char* what, const QuorumPutResult& put) {
    return Status{ErrorCode::kUnavailable,
                  std::string("depsky write: ") + what + " quorum unavailable (" +
                      std::to_string(put.acks) + "/" + std::to_string(n() - f()) +
                      " acks; " + put.failure_detail + ")"};
  };

  // Phase 1: find the current version (skippable only if the caller knows it).
  auto head = fetch_metadata(tokens, unit);
  total_delay += head.delay;
  span.charge_child(static_cast<std::uint64_t>(head.delay));
  std::uint64_t old_version = 0;
  if (head.metadata.ok()) {
    old_version = head.metadata->version;
    // Membership fencing: the unit was migrated to a newer cloud set than
    // this client knows about. Writing through the old set could land shares
    // on a removed (possibly quarantined) cloud, so fail closed — the caller
    // must re-learn the current membership (depsky/reconfig.h) first.
    if (head.metadata->membership_epoch > config_.membership_epoch) {
      return fail({ErrorCode::kFenced, "depsky write: unit at membership epoch " +
                                           std::to_string(head.metadata->membership_epoch) +
                                           ", client configured for epoch " +
                                           std::to_string(config_.membership_epoch)});
    }
  } else if (head.metadata.code() != ErrorCode::kNotFound) {
    return fail(head.metadata.error());
  }
  const std::uint64_t version = old_version + 1;

  // Phase 2: build the per-cloud blobs. The erasure rows and the per-share
  // blob assembly run per-share on the executor (disjoint output slots, so
  // the bytes are identical to the sequential path); the AES stream and the
  // Shamir split stay on the coordinator because they consume drbg_.
  common::Executor* exec = config_.executor.get();
  std::vector<Bytes> blobs(n());
  if (config_.protocol == Protocol::kA) {
    for (auto& b : blobs) b.assign(data.begin(), data.end());
  } else {
    const Bytes key = drbg_.generate_key();
    const Bytes iv = drbg_.generate_iv();
    Bytes ciphertext = crypto::aes256_ctr(key, iv, data);
    // Prepend the IV to the ciphertext so readers can decrypt.
    Bytes sealed = concat({iv, ciphertext});
    const erasure::ReedSolomon rs(k(), n());
    const auto shards = rs.encode(sealed, exec);
    const auto key_shares = secretshare::shamir_share(key, k(), n(), drbg_);
    common::parallel_for_index(exec, n(), [&](std::size_t i) {
      blobs[i] = encode_ca_blob(shards[i].data, key_shares[i]);
    });
  }

  // Phase 3: metadata (per-share digests computed concurrently, slot-per-
  // index, so the metadata bytes are schedule-independent).
  UnitMetadata meta;
  meta.unit = unit;
  meta.version = version;
  meta.membership_epoch = config_.membership_epoch;
  meta.protocol = config_.protocol;
  meta.data_size = config_.protocol == Protocol::kA
                       ? data.size()
                       : data.size() + crypto::Aes256::kBlockSize;  // + IV
  meta.share_digests.resize(n());
  common::parallel_for_index(
      exec, n(), [&](std::size_t i) { meta.share_digests[i] = crypto::sha256(blobs[i]); });
  meta.sign(config_.writer);
  const Bytes meta_bytes = meta.serialize();

  // Phase 4: push shares to all contactable clouds in parallel (with
  // per-cloud retry); (n-f) acks complete it.
  std::vector<std::string> share_keys;
  std::vector<BytesView> share_views;
  for (std::size_t i = 0; i < n(); ++i) {
    share_keys.push_back(share_key(unit, version, i));
    share_views.emplace_back(blobs[i]);
  }
  auto shares_put = quorum_put(tokens, share_keys, share_views, "data");
  total_delay += shares_put.delay;
  span.charge_child(static_cast<std::uint64_t>(shares_put.delay));
  if (shares_put.acks < n() - f()) return fail(missed("share", shares_put));
  // Every acked share upload is a witness mark: the cloud provably knows
  // this version and can never again claim the share "was never uploaded".
  for (std::size_t i = 0; i < n(); ++i) {
    if (shares_put.acked[i]) {
      witness_->record_share(unit, config_.clouds[i]->name(), version);
    }
  }

  // Phase 5: metadata last, so readers never see a version whose shares are
  // not yet stable (the paper's §2.5 ordering argument).
  const std::vector<std::string> meta_keys(n(), metadata_key(unit));
  const std::vector<BytesView> meta_views(n(), BytesView(meta_bytes));
  auto meta_put = quorum_put(tokens, meta_keys, meta_views, "meta");
  total_delay += meta_put.delay;
  span.charge_child(static_cast<std::uint64_t>(meta_put.delay));
  if (meta_put.acks < n() - f()) return fail(missed("metadata", meta_put));
  // Metadata acks pin each cloud's mark at the new version; the quorum
  // confirms the unit-level high-water mark.
  for (std::size_t i = 0; i < n(); ++i) {
    if (meta_put.acked[i]) {
      witness_->record_meta(unit, config_.clouds[i]->name(), version, config_.session);
    }
  }
  witness_->record_unit(unit, version, config_.session);
  // The copy a quorum now holds is this client's own signature under a key
  // on its roster, so trusted() would pass it: the next round that serves
  // it (a close's phase 1, a head_version) compares bytes instead.
  if (own_writes_trusted_) accepted_heads_[unit] = meta_bytes;

  // Garbage-collect the previous version's shares in the background (no
  // latency charge; deletes are not on the critical path). Log-namespace
  // units never reach here with an old version, and file deletes may be
  // refused during outages — both are harmless leftovers.
  if (old_version != 0) {
    // Zero-duration fanout group: the removes show up in the trace but
    // contribute nothing to the write's accounted time.
    obs::Span gc = obs::tracer().span("depsky.gc", {.fanout = true});
    for (std::size_t i = 0; i < n(); ++i) {
      (void)config_.clouds[i]->remove(tokens[i], share_key(unit, old_version, i));
    }
  }
  span.set_duration(static_cast<std::uint64_t>(total_delay));
  return {Status::Ok(), total_delay};
}

sim::Timed<Result<Bytes>> DepSkyClient::read(const std::vector<cloud::AccessToken>& tokens,
                                             const std::string& unit,
                                             const std::optional<ExpectedContent>& expected) {
  return read_impl(tokens, unit, /*cold=*/false, expected);
}

sim::Timed<Result<Bytes>> DepSkyClient::read_archived(
    const std::vector<cloud::AccessToken>& tokens, const std::string& unit,
    const std::optional<ExpectedContent>& expected) {
  return read_impl(tokens, unit, /*cold=*/true, expected);
}

sim::Timed<Result<Bytes>> DepSkyClient::read_impl(
    const std::vector<cloud::AccessToken>& tokens, const std::string& unit, bool cold,
    const std::optional<ExpectedContent>& expected) {
  if (tokens.size() != n()) {
    return {Error{ErrorCode::kInvalidArgument, "depsky read: one token per cloud"}, 0};
  }
  obs::Span span = obs::tracer().span("depsky.read");
  sim::SimClock::Micros total_delay = 0;

  // One attempt: a metadata round, the shares its chosen copy names (each
  // digest-checked against that copy, so read corruption leaves the same k
  // shares as in a checked read) and the decode. A bound attempt's copy is
  // unchecked, so it only chooses shares: it raises no withheld-share flag,
  // and each size it names is compared with the share bytes actually
  // fetched before anything is allocated by it (ReedSolomon::decode checks
  // every shard against shard_size first).
  const auto attempt = [&](bool bound) -> Result<Bytes> {
    auto head = fetch_metadata(tokens, unit, bound);
    total_delay += head.delay;
    span.charge_child(static_cast<std::uint64_t>(head.delay));
    if (!head.metadata.ok()) return Error{head.metadata.error()};
    const UnitMetadata& meta = *head.metadata;

    // Fetch shares in parallel from healthy clouds (per-cloud retry), keep
    // digest-valid ones. The SHA-256 digest check runs inside each branch so
    // the hashing overlaps on the pool; ingestion stays in ascending cloud
    // order post-join.
    struct ValidShare {
      std::size_t cloud;
      Bytes blob;
      sim::SimClock::Micros delay;
    };
    struct ShareProbe {
      sim::SimClock::Micros delay = 0;
      bool valid = false;
      bool not_found = false;
      Bytes blob;
    };
    const std::size_t needed = config_.protocol == Protocol::kA ? 1 : k();
    obs::Span group = obs::tracer().span("depsky.share_fetch", {.fanout = true});
    std::vector<ValidShare> valid;
    const auto probe_share = [&](std::size_t i, std::uint64_t seed,
                                 const common::CancelToken& cancel) {
      const std::string key = share_key(unit, meta.version, i);
      auto got = cold ? config_.clouds[i]->restore_from_cold(tokens[i], key)
                      : guarded_get(i, tokens[i], key, seed, cancel);
      ShareProbe probe;
      probe.delay = got.delay;
      if (got.value.ok() && share_matches(meta, i, *got.value)) {
        probe.valid = true;
        probe.blob = std::move(*got.value);
      } else if (got.value.code() == ErrorCode::kNotFound) {
        probe.not_found = true;
      }
      return probe;
    };
    const auto ingest = [&](std::size_t i, ShareProbe&& probe) {
      if (probe.valid) {
        valid.push_back({i, std::move(probe.blob), probe.delay});
      } else if (probe.not_found && !cold && !bound) {
        // Cross-cloud audit: this cloud acked the upload of this very
        // version's share and now claims it never existed. One incident is
        // forgivable (provider-side loss happens); the ledger quarantines on
        // repetition.
        const std::string key = share_key(unit, meta.version, i);
        if (const auto sm = witness_->share_mark(unit, config_.clouds[i]->name());
            sm && *sm >= meta.version && !config_.clouds[i]->archived(key)) {
          flag_misbehavior(i, MisbehaviorKind::kWithheldShare, unit);
        }
      }
    };

    const auto all_delays = quorum_round(
        needed, probe_share, [](const ShareProbe& probe) { return probe.valid; }, ingest);
    // Completion when the `needed`-th fastest valid share arrived (or, short
    // of that, when the last probe gave up).
    const bool enough = valid.size() >= needed;
    std::vector<sim::SimClock::Micros> valid_delays;
    valid_delays.reserve(valid.size());
    for (const auto& v : valid) valid_delays.push_back(v.delay);
    const auto fetch_delay = enough ? sim::quorum_delay(valid_delays, needed)
                                    : sim::parallel_delay(all_delays);
    total_delay += fetch_delay;
    group.set_duration(static_cast<std::uint64_t>(fetch_delay));
    if (!enough) group.set_outcome(ErrorCode::kUnavailable);
    group.finish();
    span.charge_child(static_cast<std::uint64_t>(fetch_delay));
    if (!enough) {
      return Error{ErrorCode::kUnavailable, "depsky read: not enough valid shares"};
    }

    if (config_.protocol == Protocol::kA) {
      if (valid.front().blob.size() != meta.data_size) {
        return Error{ErrorCode::kCorrupted, "depsky read: size mismatch"};
      }
      span.set_bytes(meta.data_size);
      return std::move(valid.front().blob);
    }

    // Protocol CA: reassemble key and ciphertext from the k fastest valid
    // blobs.
    std::sort(valid.begin(), valid.end(),
              [](const ValidShare& a, const ValidShare& b) { return a.delay < b.delay; });
    std::vector<erasure::Shard> shards;
    std::vector<secretshare::ShamirShare> key_shares;
    for (std::size_t i = 0; i < needed; ++i) {
      auto blob = decode_ca_blob(valid[i].blob);
      if (!blob.ok()) return Error{blob.error()};
      shards.push_back({valid[i].cloud, std::move(blob->shard)});
      key_shares.push_back(std::move(blob->key_share));
    }
    const erasure::ReedSolomon rs(k(), n());
    auto sealed = rs.decode(shards, meta.data_size);
    if (!sealed.ok()) return Error{sealed.error()};
    auto key = secretshare::shamir_combine(key_shares, k());
    if (!key.ok()) return Error{key.error()};
    if (key->size() != crypto::Aes256::kKeySize) {
      return Error{ErrorCode::kCorrupted, "depsky read: key shares of the wrong size"};
    }
    if (sealed->size() < crypto::Aes256::kBlockSize) {
      return Error{ErrorCode::kCorrupted, "depsky read: sealed data too short"};
    }
    span.set_bytes(meta.data_size);
    const BytesView sealed_view(*sealed);
    const BytesView iv = sealed_view.subspan(0, crypto::Aes256::kBlockSize);
    const BytesView ct = sealed_view.subspan(crypto::Aes256::kBlockSize);
    return crypto::aes256_ctr(*key, iv, ct);
  };

  // With an expectation the read is bound to it: the first attempt skips
  // the signature checks, and only matching content leaves this function.
  // Anything else (a forged copy from up to f clouds chose the shares, or
  // the round simply failed) costs the checked read, once.
  const auto matches = [&](const Result<Bytes>& content) {
    return content.ok() && content->size() == expected->size &&
           ct_equal(crypto::sha256(*content), expected->sha256);
  };
  Result<Bytes> content = attempt(/*bound=*/expected.has_value());
  if (expected && !matches(content)) {
    content = attempt(/*bound=*/false);
    if (content.ok() && !matches(content)) {
      content = Error{ErrorCode::kIntegrity,
                      "depsky read: " + unit + " differs from its expected digest"};
    }
  }
  span.set_duration(static_cast<std::uint64_t>(total_delay));
  if (!content.ok()) span.set_outcome(content.code());
  return {std::move(content), total_delay};
}

sim::Timed<Result<DepSkyClient::RepairReport>> DepSkyClient::repair(
    const std::vector<cloud::AccessToken>& tokens, const std::string& unit) {
  if (tokens.size() != n()) {
    return {Error{ErrorCode::kInvalidArgument, "depsky repair: one token per cloud"}, 0};
  }
  sim::SimClock::Micros total_delay = 0;
  auto head = fetch_metadata(tokens, unit);
  total_delay += head.delay;
  if (!head.metadata.ok()) return {Error{head.metadata.error()}, total_delay};
  const UnitMetadata& meta = *head.metadata;

  // Inventory every share.
  struct ShareState {
    bool valid = false;
    bool present = false;
    Bytes blob;
  };
  std::vector<ShareState> states(n());
  std::vector<sim::SimClock::Micros> fetch_delays;
  {
    obs::Span group = obs::tracer().span("depsky.repair_inventory", {.fanout = true});
    for (std::size_t i = 0; i < n(); ++i) {
      auto got = config_.clouds[i]->get(tokens[i], share_key(unit, meta.version, i));
      fetch_delays.push_back(got.delay);
      if (!got.value.ok()) continue;
      states[i].present = true;
      if (share_matches(meta, i, *got.value)) {
        states[i].valid = true;
        states[i].blob = std::move(*got.value);
      }
    }
    group.set_duration(static_cast<std::uint64_t>(sim::parallel_delay(fetch_delays)));
  }
  total_delay += sim::parallel_delay(fetch_delays);

  RepairReport report;
  std::vector<std::size_t> to_repair;
  for (std::size_t i = 0; i < n(); ++i) {
    if (states[i].valid) {
      ++report.shares_ok;
    } else {
      to_repair.push_back(i);
    }
  }
  // Rebuild the per-cloud blobs. Protocol A: any valid replica. Protocol CA:
  // the Reed-Solomon shard is re-derived by repair_shard and the Shamir key
  // share by Lagrange interpolation at the missing x — both are fully
  // determined by any k surviving shares, no re-dealing needed. When every
  // share is healthy this whole block is a no-op, but the metadata
  // anti-entropy pass below still runs: an entry can be degraded purely by
  // lost metadata replicas.
  std::vector<Bytes> rebuilt(n());
  if (to_repair.empty()) {
    // nothing to rebuild
  } else if (config_.protocol == Protocol::kA) {
    for (std::size_t i = 0; i < n(); ++i) {
      if (!states[i].valid) continue;
      for (const std::size_t j : to_repair) rebuilt[j] = states[i].blob;
      break;
    }
  } else {
    // Collect the valid shards/key shares.
    std::vector<erasure::Shard> shards;
    std::vector<secretshare::ShamirShare> key_shares;
    for (std::size_t i = 0; i < n() && shards.size() < k(); ++i) {
      if (!states[i].valid) continue;
      auto blob = decode_ca_blob(states[i].blob);
      if (!blob.ok()) continue;
      shards.push_back({i, std::move(blob->shard)});
      key_shares.push_back(std::move(blob->key_share));
    }
    if (shards.size() < k()) {
      return {Error{ErrorCode::kUnavailable, "depsky repair: fewer than k valid shares"},
              total_delay};
    }
    const erasure::ReedSolomon rs(k(), n());
    const std::size_t sealed_size = meta.data_size;
    for (const std::size_t j : to_repair) {
      auto shard = rs.repair_shard(shards, j, sealed_size);
      if (!shard.ok()) return {Error{shard.error()}, total_delay};
      auto key_share = secretshare::shamir_interpolate_share(
          key_shares, k(), static_cast<std::uint8_t>(j + 1));
      if (!key_share.ok()) return {Error{key_share.error()}, total_delay};
      rebuilt[j] = encode_ca_blob(shard->data, *key_share);
      // The digest must match the metadata or the original encoding differed.
      if (!share_matches(meta, j, rebuilt[j])) {
        return {Error{ErrorCode::kInternal, "depsky repair: rebuilt share mismatch"},
                total_delay};
      }
    }
  }

  // Push the rebuilt shares. Overwrites of corrupt log objects are denied by
  // the append-only rule and reported as unrepairable.
  std::vector<sim::SimClock::Micros> put_delays;
  {
    obs::Span group = obs::tracer().span("depsky.repair_push", {.fanout = true});
    for (const std::size_t j : to_repair) {
      auto put =
          config_.clouds[j]->put(tokens[j], share_key(unit, meta.version, j), rebuilt[j]);
      put_delays.push_back(put.delay);
      if (put.value.ok()) {
        ++report.shares_repaired;
      } else {
        ++report.shares_unrepairable;
      }
    }
    group.set_duration(static_cast<std::uint64_t>(sim::parallel_delay(put_delays)));
  }
  total_delay += sim::parallel_delay(put_delays);

  // Metadata anti-entropy: the quorum gave us the authoritative (signed)
  // metadata; re-seed any cloud that lost its replica. The signature travels
  // with the bytes, so re-putting the serialized copy preserves authenticity.
  const Bytes meta_bytes = meta.serialize();
  std::vector<sim::SimClock::Micros> meta_delays;
  Verdicts decided;
  {
    obs::Span group = obs::tracer().span("depsky.repair_meta", {.fanout = true});
    for (std::size_t i = 0; i < n(); ++i) {
      auto got = config_.clouds[i]->get(tokens[i], metadata_key(unit));
      sim::SimClock::Micros cloud_delay = got.delay;
      bool replica_ok = false;
      if (got.value.ok()) {
        auto m = UnitMetadata::deserialize(*got.value);
        replica_ok = m.ok() && m->unit == unit && m->version >= meta.version &&
                     m->share_digests.size() == n() &&
                     authentic(unit, *got.value, *m, decided);
      }
      if (!replica_ok) {
        auto put = config_.clouds[i]->put(tokens[i], metadata_key(unit), meta_bytes);
        cloud_delay += put.delay;
        if (put.value.ok()) {
          ++report.meta_repaired;
        } else {
          ++report.meta_unrepairable;
        }
      }
      meta_delays.push_back(cloud_delay);
    }
    group.set_duration(static_cast<std::uint64_t>(sim::parallel_delay(meta_delays)));
  }
  total_delay += sim::parallel_delay(meta_delays);
  return {report, total_delay};
}

std::size_t DepSkyClient::ShareInventory::valid_count() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < share_valid.size(); ++i) {
    if (share_valid[i] || share_archived[i]) ++count;
  }
  return count;
}

sim::Timed<Result<DepSkyClient::ShareInventory>> DepSkyClient::share_inventory(
    const std::vector<cloud::AccessToken>& tokens, const std::string& unit) {
  if (tokens.size() != n()) {
    return {Error{ErrorCode::kInvalidArgument, "depsky inventory: one token per cloud"},
            0};
  }
  sim::SimClock::Micros total_delay = 0;
  auto head = fetch_metadata(tokens, unit);
  total_delay += head.delay;
  if (!head.metadata.ok()) return {Error{head.metadata.error()}, total_delay};
  const UnitMetadata& meta = *head.metadata;

  ShareInventory inv;
  inv.version = meta.version;
  inv.share_valid.assign(n(), false);
  inv.share_present.assign(n(), false);
  inv.share_archived.assign(n(), false);
  inv.share_stale.assign(n(), false);

  // Direct per-cloud probes, deliberately bypassing the circuit breakers: a
  // scrub wants ground truth about every cloud, not fast availability.
  std::vector<sim::SimClock::Micros> probe_delays;
  Verdicts decided;
  {
    obs::Span group = obs::tracer().span("depsky.inventory", {.fanout = true});
    for (std::size_t i = 0; i < n(); ++i) {
      const std::string key = share_key(unit, meta.version, i);
      auto got = config_.clouds[i]->get(tokens[i], key);
      sim::SimClock::Micros cloud_delay = got.delay;
      if (got.value.ok()) {
        inv.share_present[i] = true;
        if (share_matches(meta, i, *got.value)) {
          inv.share_valid[i] = true;
        }
      } else if (config_.clouds[i]->archived(key)) {
        inv.share_archived[i] = true;
      }
      auto mg = config_.clouds[i]->get(tokens[i], metadata_key(unit));
      cloud_delay += mg.delay;
      if (mg.value.ok()) {
        auto m = UnitMetadata::deserialize(*mg.value);
        if (m.ok() && m->unit == unit && m->share_digests.size() == n() &&
            authentic(unit, *mg.value, *m, decided)) {
          // Stale-but-authentic replicas (what a rolled-back cloud serves)
          // are counted separately and never inflate meta_replicas — the
          // scrubber treats them as degradation, not redundancy.
          if (m->version >= meta.version) {
            ++inv.meta_replicas;
          } else {
            ++inv.meta_stale;
          }
        }
      }
      // Distinguish "lost the share" from "serving the old version": when the
      // current share is gone, check whether the previous version's share is
      // still being offered instead.
      if (!inv.share_valid[i] && !inv.share_archived[i] && meta.version > 1) {
        auto old_got =
            config_.clouds[i]->get(tokens[i], share_key(unit, meta.version - 1, i));
        cloud_delay += old_got.delay;
        if (old_got.value.ok()) inv.share_stale[i] = true;
      }
      probe_delays.push_back(cloud_delay);
    }
    group.set_duration(static_cast<std::uint64_t>(sim::parallel_delay(probe_delays)));
  }
  total_delay += sim::parallel_delay(probe_delays);
  return {std::move(inv), total_delay};
}

sim::Timed<Status> DepSkyClient::remove(const std::vector<cloud::AccessToken>& tokens,
                                        const std::string& unit) {
  if (tokens.size() != n()) {
    return {Status{ErrorCode::kInvalidArgument, "depsky remove: one token per cloud"}, 0};
  }
  obs::Span span = obs::tracer().span("depsky.remove");
  auto head = fetch_metadata(tokens, unit);
  span.charge_child(static_cast<std::uint64_t>(head.delay));
  if (!head.metadata.ok()) {
    span.set_duration(static_cast<std::uint64_t>(head.delay));
    span.set_outcome(head.metadata.code());
    return {Status{head.metadata.error()}, head.delay};
  }

  obs::Span group = obs::tracer().span("depsky.remove_fanout", {.fanout = true});
  std::vector<sim::SimClock::Micros> delays;
  std::size_t acks = 0;
  for (std::size_t i = 0; i < n(); ++i) {
    auto rm_meta = config_.clouds[i]->remove(tokens[i], metadata_key(unit));
    auto rm_share =
        config_.clouds[i]->remove(tokens[i], share_key(unit, head.metadata->version, i));
    delays.push_back(std::max(rm_meta.delay, rm_share.delay));
    if (rm_meta.value.ok()) ++acks;
  }
  const auto fanout_delay = sim::quorum_delay(delays, n() - f());
  group.set_duration(static_cast<std::uint64_t>(fanout_delay));
  group.finish();
  span.charge_child(static_cast<std::uint64_t>(fanout_delay));
  const auto delay = head.delay + fanout_delay;
  span.set_duration(static_cast<std::uint64_t>(delay));
  if (acks < n() - f()) {
    span.set_outcome(ErrorCode::kUnavailable);
    return {Status{ErrorCode::kUnavailable, "depsky remove: quorum unavailable"}, delay};
  }
  // A sanctioned remove resets the freshness memory: recreating the unit at
  // version 1 afterwards must not read as a rollback.
  witness_->forget_unit(unit);
  accepted_heads_.erase(unit);
  return {Status::Ok(), delay};
}

sim::Timed<Status> DepSkyClient::stamp_membership_epoch(
    const std::vector<cloud::AccessToken>& tokens, const std::string& unit,
    std::uint64_t epoch) {
  if (tokens.size() != n()) {
    return {Status{ErrorCode::kInvalidArgument, "depsky stamp: one token per cloud"}, 0};
  }
  obs::Span span = obs::tracer().span("depsky.stamp_epoch");
  span.set_label(unit);
  auto head = fetch_metadata(tokens, unit);
  sim::SimClock::Micros total_delay = head.delay;
  span.charge_child(static_cast<std::uint64_t>(head.delay));
  if (!head.metadata.ok()) {
    span.set_duration(static_cast<std::uint64_t>(total_delay));
    span.set_outcome(head.metadata.code());
    return {Status{head.metadata.error()}, total_delay};
  }
  UnitMetadata meta = *head.metadata;
  if (meta.membership_epoch >= epoch) {
    // Already stamped (a resumed migration re-visits finished units).
    span.set_duration(static_cast<std::uint64_t>(total_delay));
    return {Status::Ok(), total_delay};
  }
  // Same version number — bumping it would orphan the share objects, whose
  // keys embed the version. Re-signed with this client's key, so the stamping
  // admin must be in every reader's trusted_writers set (it is: RockFS adds
  // the administrator for recovery re-uploads already).
  meta.membership_epoch = epoch;
  meta.sign(config_.writer);
  const Bytes meta_bytes = meta.serialize();
  const std::vector<std::string> meta_keys(n(), metadata_key(unit));
  const std::vector<BytesView> meta_views(n(), BytesView(meta_bytes));
  auto put = quorum_put(tokens, meta_keys, meta_views, "stamp");
  total_delay += put.delay;
  span.charge_child(static_cast<std::uint64_t>(put.delay));
  span.set_duration(static_cast<std::uint64_t>(total_delay));
  if (put.acks < n() - f()) {
    span.set_outcome(ErrorCode::kUnavailable);
    return {Status{ErrorCode::kUnavailable,
                   "depsky stamp: metadata quorum unavailable (" + put.failure_detail +
                       ")"},
            total_delay};
  }
  for (std::size_t i = 0; i < n(); ++i) {
    if (put.acked[i]) {
      witness_->record_meta(unit, config_.clouds[i]->name(), meta.version,
                            config_.session);
    }
  }
  if (own_writes_trusted_) accepted_heads_[unit] = meta_bytes;  // as write() does
  return {Status::Ok(), total_delay};
}

std::size_t DepSkyClient::encoded_blob_size(std::size_t data_size) const {
  if (config_.protocol == Protocol::kA) return data_size;
  // Dummy-encode a zero payload of the right size: shard and key-share sizes
  // depend only on lengths and (k, n), never on the data or the key.
  const std::size_t sealed_size = data_size + crypto::Aes256::kBlockSize;  // + IV
  const erasure::ReedSolomon rs(k(), n());
  const auto shards = rs.encode(Bytes(sealed_size, 0));
  crypto::Drbg sizing_drbg(to_bytes("depsky-sizing-seed"), to_bytes("sizing"));
  const auto key_shares =
      secretshare::shamir_share(Bytes(32, 0), k(), n(), sizing_drbg);
  Bytes blob = encode_ca_blob(shards.front().data, key_shares.front());
  return blob.size();
}

}  // namespace rockfs::depsky
