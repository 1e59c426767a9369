#include "cloud/provider.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "obs/trace.h"

namespace rockfs::cloud {

namespace {
bool is_log_key(const std::string& key) { return key.starts_with(kLogPrefix); }

// Unit metadata objects end in ".meta" (depsky convention); everything else
// in the depsky namespaces is a data share. The withhold_shares adversary
// answers metadata honestly and claims the shares are gone.
bool is_metadata_key(const std::string& key) { return key.ends_with(".meta"); }

// A timed-out request stalls the client for several round-trips before it
// gives up; charge that wait so retry deadlines bite in virtual time.
constexpr double kTimeoutStallFactor = 10.0;

// Flips bits with the provider's characteristic pattern (Byzantine replies
// and intermittent read corruption look the same to the client).
void corrupt_payload(Bytes& data) {
  for (std::size_t i = 0; i < data.size(); i += 97) data[i] ^= 0xA5;
}
}  // namespace

CloudProvider::CloudProvider(std::string name, sim::SimClockPtr clock,
                             sim::LinkProfile profile, std::uint64_t seed)
    : name_(std::move(name)),
      clock_(clock),
      net_(std::move(clock), std::move(profile), seed),
      rng_(seed ^ 0x517CC1B727220A95ULL),
      token_secret_(rng_.next_bytes(32)),
      faults_(std::make_shared<sim::FaultSchedule>(clock_, seed ^ 0xD1B54A32D192ED03ULL)) {
  // Resolve registry handles once; op wrappers then touch only atomics.
  static constexpr const char* kOps[kOpKinds] = {"get",  "put",     "remove",
                                                 "list", "archive", "restore"};
  auto& reg = obs::metrics();
  for (std::size_t i = 0; i < kOpKinds; ++i) {
    const std::string base = std::string("cloud.") + kOps[i];
    op_metrics_[i].count = &reg.counter(obs::metric_key(base + ".count", name_));
    op_metrics_[i].errors = &reg.counter(obs::metric_key(base + ".errors", name_));
    op_metrics_[i].bytes = &reg.counter(obs::metric_key(base + ".bytes", name_));
    op_metrics_[i].delay_us = &reg.histogram(obs::metric_key(base + ".delay_us", name_));
  }
}

void CloudProvider::observe_op(OpKind kind, ErrorCode outcome, std::uint64_t bytes,
                               sim::SimClock::Micros delay_us) {
  OpMetrics& m = op_metrics(kind);
  m.count->add();
  if (outcome != ErrorCode::kOk) m.errors->add();
  m.bytes->add(bytes);
  m.delay_us->record(static_cast<std::uint64_t>(delay_us));
}

sim::Timed<Status> CloudProvider::put(const AccessToken& token, const std::string& key,
                                      BytesView data) {
  obs::Span span = obs::tracer().span("cloud.put");
  span.set_label(name_);
  auto r = put_impl(token, key, data);
  span.set_duration(static_cast<std::uint64_t>(r.delay));
  span.set_bytes(data.size());
  span.set_outcome(r.value.code());
  observe_op(OpKind::kPut, r.value.code(), data.size(), r.delay);
  return r;
}

sim::Timed<Result<Bytes>> CloudProvider::get(const AccessToken& token,
                                             const std::string& key) {
  obs::Span span = obs::tracer().span("cloud.get");
  span.set_label(name_);
  auto r = get_impl(token, key);
  const std::uint64_t bytes = r.value.ok() ? r.value.value().size() : 0;
  span.set_duration(static_cast<std::uint64_t>(r.delay));
  span.set_bytes(bytes);
  span.set_outcome(r.value.code());
  observe_op(OpKind::kGet, r.value.code(), bytes, r.delay);
  return r;
}

sim::Timed<Status> CloudProvider::remove(const AccessToken& token, const std::string& key) {
  obs::Span span = obs::tracer().span("cloud.remove");
  span.set_label(name_);
  auto r = remove_impl(token, key);
  span.set_duration(static_cast<std::uint64_t>(r.delay));
  span.set_outcome(r.value.code());
  observe_op(OpKind::kRemove, r.value.code(), 0, r.delay);
  return r;
}

sim::Timed<Result<std::vector<ObjectStat>>> CloudProvider::list(const AccessToken& token,
                                                                const std::string& prefix) {
  obs::Span span = obs::tracer().span("cloud.list");
  span.set_label(name_);
  auto r = list_impl(token, prefix);
  span.set_duration(static_cast<std::uint64_t>(r.delay));
  span.set_outcome(r.value.code());
  observe_op(OpKind::kList, r.value.code(), 0, r.delay);
  return r;
}

sim::Timed<Status> CloudProvider::archive(const AccessToken& token,
                                          const std::string& key) {
  obs::Span span = obs::tracer().span("cloud.archive");
  span.set_label(name_);
  auto r = archive_impl(token, key);
  span.set_duration(static_cast<std::uint64_t>(r.delay));
  span.set_outcome(r.value.code());
  observe_op(OpKind::kArchive, r.value.code(), 0, r.delay);
  return r;
}

sim::Timed<Result<Bytes>> CloudProvider::restore_from_cold(const AccessToken& token,
                                                           const std::string& key) {
  obs::Span span = obs::tracer().span("cloud.restore");
  span.set_label(name_);
  auto r = restore_impl(token, key);
  const std::uint64_t bytes = r.value.ok() ? r.value.value().size() : 0;
  span.set_duration(static_cast<std::uint64_t>(r.delay));
  span.set_bytes(bytes);
  span.set_outcome(r.value.code());
  observe_op(OpKind::kRestore, r.value.code(), bytes, r.delay);
  return r;
}

AccessToken CloudProvider::issue_token(const std::string& user_id, const std::string& fs_id,
                                       TokenScope scope, std::int64_t validity_us) {
  AccessToken t;
  t.user_id = user_id;
  t.fs_id = fs_id;
  t.scope = scope;
  t.issued_us = clock_->now_us();
  t.expires_us = validity_us == 0 ? 0 : clock_->now_us() + validity_us;
  t.nonce = rng_.next_u64();
  const auto it = token_epochs_.find(user_id);
  t.epoch = it == token_epochs_.end() ? 0 : it->second;
  t.mac = crypto::hmac_sha256(token_secret_, t.signing_payload());
  return t;
}

void CloudProvider::revoke_token(const AccessToken& token) {
  revoked_nonces_.insert(token.nonce);
}

sim::Timed<Status> CloudProvider::apply_revocation_floor(const AccessToken& admin_token,
                                                         const std::string& user_id,
                                                         std::uint64_t floor) {
  const auto actions = faults_->on_operation(sim::FaultOp::kControl);
  const auto delay = charge(net_.rpc_delay_us(128, 64), actions);
  if (actions.fail != ErrorCode::kOk) {
    return {Status{actions.fail, name_ + ": " + actions.reason}, delay};
  }
  if (auto s = check_token(admin_token); !s.ok()) return {std::move(s), delay};
  if (admin_token.scope != TokenScope::kAdmin) {
    return {Status{ErrorCode::kPermissionDenied, name_ + ": revocation is admin-only"},
            delay};
  }
  auto& enforced = revocation_floors_[user_id];
  enforced = std::max(enforced, floor);  // monotone: floors never lower
  auto& next = token_epochs_[user_id];
  next = std::max(next, enforced);
  return {Status::Ok(), delay};
}

sim::Timed<Result<AccessToken>> CloudProvider::reissue_token(
    const AccessToken& admin_token, const std::string& user_id, TokenScope scope,
    std::uint64_t floor_hint, std::int64_t validity_us) {
  const auto actions = faults_->on_operation(sim::FaultOp::kControl);
  const auto delay = charge(net_.rpc_delay_us(128, 128), actions);
  if (actions.fail != ErrorCode::kOk) {
    return {Error{actions.fail, name_ + ": " + actions.reason}, delay};
  }
  if (auto s = check_token(admin_token); !s.ok()) return {Error{s.error()}, delay};
  if (admin_token.scope != TokenScope::kAdmin) {
    return {Error{ErrorCode::kPermissionDenied, name_ + ": reissue is admin-only"}, delay};
  }
  auto& next = token_epochs_[user_id];
  next = std::max(next, floor_hint);
  return {Result<AccessToken>{issue_token(user_id, admin_token.fs_id, scope, validity_us)},
          delay};
}

std::uint64_t CloudProvider::revocation_floor(const std::string& user_id) const {
  const auto it = revocation_floors_.find(user_id);
  return it == revocation_floors_.end() ? 0 : it->second;
}

std::uint64_t CloudProvider::token_epoch(const std::string& user_id) const {
  const auto it = token_epochs_.find(user_id);
  return it == token_epochs_.end() ? 0 : it->second;
}

Status CloudProvider::check_token(const AccessToken& token) const {
  const Bytes expected = crypto::hmac_sha256(token_secret_, token.signing_payload());
  if (!ct_equal(expected, token.mac)) {
    return {ErrorCode::kPermissionDenied, name_ + ": token MAC invalid"};
  }
  if (const auto floor = revocation_floors_.find(token.user_id);
      floor != revocation_floors_.end() && token.epoch < floor->second) {
    return {ErrorCode::kRevoked, name_ + ": token epoch below revocation floor"};
  }
  if (revoked_nonces_.contains(token.nonce)) {
    return {ErrorCode::kPermissionDenied, name_ + ": token revoked"};
  }
  if (token.expires_us != 0 && clock_->now_us() > token.expires_us) {
    return {ErrorCode::kExpired, name_ + ": token expired"};
  }
  return {};
}

Status CloudProvider::authorize(const AccessToken& token, const std::string& key,
                                bool write, bool remove) const {
  if (auto s = check_token(token); !s.ok()) return s;
  const bool log_key = is_log_key(key);
  switch (token.scope) {
    case TokenScope::kFiles:
      if (log_key) {
        return {ErrorCode::kPermissionDenied,
                name_ + ": files token cannot access the log namespace"};
      }
      return {};
    case TokenScope::kLogAppend:
      if (!log_key) {
        return {ErrorCode::kPermissionDenied,
                name_ + ": log token cannot access file objects"};
      }
      if (remove) {
        return {ErrorCode::kPermissionDenied, name_ + ": log objects cannot be deleted"};
      }
      if (write && objects_.contains(key)) {
        return {ErrorCode::kPermissionDenied,
                name_ + ": log objects are append-only (key exists)"};
      }
      return {};
    case TokenScope::kAdmin:
      // The administrator reads everything and may rewrite *file* objects
      // during recovery, but even the admin cannot delete or overwrite log
      // entries (paper §3.3: recoveries are themselves logged, never erased).
      if (log_key && remove) {
        return {ErrorCode::kPermissionDenied, name_ + ": log objects cannot be deleted"};
      }
      if (log_key && write && objects_.contains(key)) {
        return {ErrorCode::kPermissionDenied,
                name_ + ": log objects are append-only (key exists)"};
      }
      return {};
  }
  return {ErrorCode::kInternal, "unreachable"};
}

CloudProvider::OpGate CloudProvider::enter_op(const AccessToken& token,
                                              const std::string& key, OpKind kind) {
  OpGate gate;
  sim::FaultOp fault_op = sim::FaultOp::kControl;
  if (kind == OpKind::kGet || kind == OpKind::kRestore) fault_op = sim::FaultOp::kRead;
  if (kind == OpKind::kPut) fault_op = sim::FaultOp::kWrite;
  gate.actions = faults_->on_operation(fault_op);

  // A faulted operation that is not a partial write fails before any
  // server-side check runs (the request never reached the service).
  const bool faulted = gate.actions.fail != ErrorCode::kOk;
  if (faulted && !gate.actions.truncate_payload) {
    gate.status = Status{gate.actions.fail, name_ + ": " + gate.actions.reason};
    return gate;
  }

  switch (kind) {
    case OpKind::kGet:
      gate.status = authorize(token, key, /*write=*/false, /*remove=*/false);
      break;
    case OpKind::kPut:
      gate.status = authorize(token, key, /*write=*/true, /*remove=*/false);
      break;
    case OpKind::kRemove:
      gate.status = authorize(token, key, /*write=*/true, /*remove=*/true);
      break;
    case OpKind::kList:
      gate.status = check_token(token);
      break;
    case OpKind::kArchive:
    case OpKind::kRestore:
      gate.status = check_token(token);
      if (gate.status.ok() && token.scope != TokenScope::kAdmin) {
        gate.status = Status{ErrorCode::kPermissionDenied,
                             name_ + (kind == OpKind::kArchive
                                          ? ": archival is admin-only"
                                          : ": cold reads are admin-only")};
      }
      break;
  }
  if (!gate.status.ok()) {
    // Authorization failed: nothing was stored, so a concurrent partial
    // write fault leaves no trace.
    gate.actions.truncate_payload = false;
    return gate;
  }
  if (faulted) {
    gate.status = Status{gate.actions.fail, name_ + ": " + gate.actions.reason};
  }
  return gate;
}

sim::SimClock::Micros CloudProvider::charge(sim::SimClock::Micros base_us,
                                            const sim::FaultActions& actions) const {
  double factor = actions.latency_factor;
  if (actions.fail == ErrorCode::kTimeout) factor *= kTimeoutStallFactor;
  return static_cast<sim::SimClock::Micros>(static_cast<double>(base_us) * factor);
}

std::int64_t CloudProvider::adversarial_cutoff(const std::string& viewer) const {
  const auto& adv = faults_->adversarial();
  switch (adv.mode) {
    case sim::AdversarialMode::kRollback:
      return adv.freeze_us;
    case sim::AdversarialMode::kEquivocate:
      return sim::adversarial_stale_group(viewer, adv.partition_salt) ? adv.freeze_us
                                                                      : -1;
    case sim::AdversarialMode::kReplayWindow: {
      const std::int64_t now = clock_->now_us();
      return now > adv.window_us ? now - adv.window_us : 0;
    }
    case sim::AdversarialMode::kWithholdShares:
    case sim::AdversarialMode::kNone:
      return -1;
  }
  return -1;
}

const CloudProvider::HistoryEntry* CloudProvider::view_at(const std::string& key,
                                                          std::int64_t cutoff_us) const {
  const auto it = history_.find(key);
  if (it == history_.end()) return nullptr;
  const HistoryEntry* best = nullptr;
  // Entries are in acceptance order; the last one at or before the cutoff is
  // what a reader saw then.
  for (const auto& e : it->second) {
    if (e.modified_us <= cutoff_us) best = &e;
  }
  if (best == nullptr || best->removed) return nullptr;
  return best;
}

void CloudProvider::record_history(const std::string& key, const Object& obj,
                                   bool removed) {
  history_[key].push_back({obj.data, obj.modified_us, obj.writer, removed});
}

sim::Timed<Status> CloudProvider::put_impl(const AccessToken& token,
                                           const std::string& key, BytesView data) {
  auto gate = enter_op(token, key, OpKind::kPut);
  const auto delay = charge(net_.upload_delay_us(data.size()), gate.actions);
  if (!gate.status.ok()) {
    if (gate.actions.truncate_payload && !is_log_key(key)) {
      // The connection dropped mid-upload: a truncated object replaces the
      // key (digest checks will catch it). Log objects are exempt — the
      // append-only namespace offers atomic create, or a half-written entry
      // could never be repaired.
      const std::size_t kept = data.size() / 2;
      traffic_.add_upload(kept);
      Object obj;
      obj.data.assign(data.begin(), data.begin() + static_cast<std::ptrdiff_t>(kept));
      obj.modified_us = clock_->now_us();
      obj.writer = token.user_id;
      record_history(key, obj, /*removed=*/false);
      objects_[key] = std::move(obj);
      return {std::move(gate.status), delay};
    }
    const bool faulted = gate.actions.fail != ErrorCode::kOk;
    return {std::move(gate.status), faulted ? delay : net_.rpc_delay_us(64, 64)};
  }
  traffic_.add_upload(data.size());
  Object obj;
  obj.data.assign(data.begin(), data.end());
  obj.modified_us = clock_->now_us();
  obj.writer = token.user_id;
  record_history(key, obj, /*removed=*/false);
  objects_[key] = std::move(obj);
  return {Status::Ok(), delay};
}

sim::Timed<Result<Bytes>> CloudProvider::get_impl(const AccessToken& token,
                                                  const std::string& key) {
  auto gate = enter_op(token, key, OpKind::kGet);
  if (!gate.status.ok()) {
    const bool faulted = gate.actions.fail != ErrorCode::kOk;
    return {Error{gate.status.error()},
            faulted ? charge(net_.rpc_delay_us(64, 0), gate.actions)
                    : net_.rpc_delay_us(64, 64)};
  }
  if (faults_->adversarial_active()) {
    if (faults_->adversarial().mode == sim::AdversarialMode::kWithholdShares) {
      if (!is_metadata_key(key)) {
        // Metadata is served honestly; the data shares "were never uploaded".
        return {Error{ErrorCode::kNotFound, name_ + ": no such object: " + key},
                net_.rpc_delay_us(64, 64)};
      }
    } else if (const std::int64_t cutoff = adversarial_cutoff(token.user_id);
               cutoff >= 0) {
      // Serve the reconstructed old view: real bytes this provider once
      // stored, so every signature and digest still verifies.
      const HistoryEntry* e = view_at(key, cutoff);
      if (e == nullptr) {
        return {Error{ErrorCode::kNotFound, name_ + ": no such object: " + key},
                net_.rpc_delay_us(64, 64)};
      }
      traffic_.add_download(e->data.size());
      Bytes data = e->data;
      if (gate.actions.corrupt_payload) corrupt_payload(data);
      return {std::move(data), charge(net_.download_delay_us(e->data.size()), gate.actions)};
    }
  }
  const auto it = objects_.find(key);
  if (it == objects_.end()) {
    return {Error{ErrorCode::kNotFound, name_ + ": no such object: " + key},
            net_.rpc_delay_us(64, 64)};
  }
  traffic_.add_download(it->second.data.size());
  Bytes data = it->second.data;
  if (gate.actions.corrupt_payload) {
    // A lying or flaky cloud returns plausible-looking garbage.
    corrupt_payload(data);
  }
  return {std::move(data),
          charge(net_.download_delay_us(it->second.data.size()), gate.actions)};
}

sim::Timed<Status> CloudProvider::remove_impl(const AccessToken& token,
                                              const std::string& key) {
  auto gate = enter_op(token, key, OpKind::kRemove);
  const auto delay = charge(net_.rpc_delay_us(64, 64), gate.actions);
  if (!gate.status.ok()) return {std::move(gate.status), delay};
  if (objects_.erase(key) == 0) {
    return {{ErrorCode::kNotFound, name_ + ": no such object: " + key}, delay};
  }
  Object tombstone;
  tombstone.modified_us = clock_->now_us();
  tombstone.writer = token.user_id;
  record_history(key, tombstone, /*removed=*/true);
  return {Status::Ok(), delay};
}

sim::Timed<Result<std::vector<ObjectStat>>> CloudProvider::list_impl(
    const AccessToken& token, const std::string& prefix) {
  auto gate = enter_op(token, prefix, OpKind::kList);
  if (!gate.status.ok()) {
    const bool faulted = gate.actions.fail != ErrorCode::kOk;
    return {Error{gate.status.error()},
            faulted ? charge(net_.rpc_delay_us(64, 0), gate.actions)
                    : net_.rpc_delay_us(64, 64)};
  }
  // Listing follows the same namespace rule as reads.
  if (token.scope == TokenScope::kFiles && is_log_key(prefix)) {
    return {Error{ErrorCode::kPermissionDenied, name_ + ": files token cannot list logs"},
            net_.rpc_delay_us(64, 64)};
  }
  std::vector<ObjectStat> out;
  std::size_t response_bytes = 0;
  const bool withholding =
      faults_->adversarial_active() &&
      faults_->adversarial().mode == sim::AdversarialMode::kWithholdShares;
  const std::int64_t cutoff =
      faults_->adversarial_active() ? adversarial_cutoff(token.user_id) : -1;
  if (cutoff >= 0) {
    // Listing reflects the same reconstructed view the gets serve.
    for (auto it = history_.lower_bound(prefix); it != history_.end(); ++it) {
      if (!it->first.starts_with(prefix)) break;
      if (token.scope == TokenScope::kLogAppend && !is_log_key(it->first)) continue;
      const HistoryEntry* e = view_at(it->first, cutoff);
      if (e == nullptr) continue;
      out.push_back({it->first, e->data.size(), e->modified_us, e->writer});
      response_bytes += it->first.size() + 32;
    }
    return {std::move(out), charge(net_.rpc_delay_us(64, response_bytes), gate.actions)};
  }
  for (auto it = objects_.lower_bound(prefix); it != objects_.end(); ++it) {
    if (!it->first.starts_with(prefix)) break;
    if (token.scope == TokenScope::kLogAppend && !is_log_key(it->first)) continue;
    if (withholding && !is_metadata_key(it->first)) continue;
    out.push_back({it->first, it->second.data.size(), it->second.modified_us,
                   it->second.writer});
    response_bytes += it->first.size() + 32;
  }
  return {std::move(out), charge(net_.rpc_delay_us(64, response_bytes), gate.actions)};
}

std::uint64_t CloudProvider::stored_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [key, obj] : objects_) total += obj.data.size();
  return total;
}

Status CloudProvider::corrupt_object(const std::string& key) {
  const auto it = objects_.find(key);
  if (it == objects_.end()) return {ErrorCode::kNotFound, "corrupt_object: " + key};
  for (std::size_t i = 0; i < it->second.data.size(); i += 53) it->second.data[i] ^= 0x5A;
  if (it->second.data.empty()) it->second.data.push_back(0xFF);
  return {};
}

sim::Timed<Status> CloudProvider::archive_impl(const AccessToken& token,
                                               const std::string& key) {
  auto gate = enter_op(token, key, OpKind::kArchive);
  const auto delay = charge(net_.rpc_delay_us(128, 64), gate.actions);
  if (!gate.status.ok()) return {std::move(gate.status), delay};
  const auto it = objects_.find(key);
  if (it == objects_.end()) {
    return {{ErrorCode::kNotFound, name_ + ": no such object: " + key}, delay};
  }
  cold_[key] = std::move(it->second);
  objects_.erase(it);
  return {Status::Ok(), delay};
}

sim::Timed<Result<Bytes>> CloudProvider::restore_impl(const AccessToken& token,
                                                      const std::string& key) {
  // Glacier-class retrieval: a large fixed delay plus a slow transfer.
  constexpr sim::SimClock::Micros kColdRetrievalUs = 4L * 3600 * 1'000'000;  // 4h
  auto gate = enter_op(token, key, OpKind::kRestore);
  if (!gate.status.ok()) {
    const bool faulted = gate.actions.fail != ErrorCode::kOk;
    return {Error{gate.status.error()},
            faulted ? charge(net_.rpc_delay_us(64, 0), gate.actions)
                    : net_.rpc_delay_us(64, 64)};
  }
  const auto it = cold_.find(key);
  if (it == cold_.end()) {
    return {Error{ErrorCode::kNotFound, name_ + ": not in cold storage: " + key},
            net_.rpc_delay_us(64, 64)};
  }
  traffic_.add_download(it->second.data.size());
  Bytes data = it->second.data;
  if (gate.actions.corrupt_payload) corrupt_payload(data);
  return {std::move(data),
          charge(kColdRetrievalUs + net_.download_delay_us(it->second.data.size()),
                 gate.actions)};
}

std::uint64_t CloudProvider::cold_bytes() const noexcept {
  std::uint64_t total = 0;
  for (const auto& [key, obj] : cold_) total += obj.data.size();
  return total;
}

Status CloudProvider::lose_object(const std::string& key) {
  if (objects_.erase(key) == 0) return {ErrorCode::kNotFound, "lose_object: " + key};
  return {};
}

CloudProviderPtr make_provider(const sim::SimClockPtr& clock, std::size_t index,
                               std::uint64_t seed) {
  auto profile = sim::LinkProfile::s3_like("cloud-" + std::to_string(index));
  profile.rtt_us += static_cast<std::int64_t>(index) * 2'000;
  profile.up_bytes_per_sec *= 1.0 + 0.07 * static_cast<double>(index);
  return std::make_shared<CloudProvider>(profile.name, clock, profile, seed + 1000 * index);
}

std::vector<CloudProviderPtr> make_provider_fleet(const sim::SimClockPtr& clock,
                                                  std::size_t count, std::uint64_t seed) {
  std::vector<CloudProviderPtr> fleet;
  fleet.reserve(count);
  for (std::size_t i = 0; i < count; ++i) fleet.push_back(make_provider(clock, i, seed));
  return fleet;
}

}  // namespace rockfs::cloud
