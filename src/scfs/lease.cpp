#include "scfs/lease.h"

namespace rockfs::scfs {

namespace {
constexpr const char* kLeaseTag = "scfs-lease";
}  // namespace

const char* lease_tag() { return kLeaseTag; }

coord::Tuple lease_tuple(const Lease& l) {
  return {kLeaseTag,          l.path, l.holder, l.session, std::to_string(l.expiry_us),
          std::to_string(l.epoch), l.held ? "held" : "released"};
}

Result<Lease> parse_lease(const coord::Tuple& t) {
  if (t.size() != 7 || t[0] != kLeaseTag) {
    return Error{ErrorCode::kCorrupted, "lease: malformed tuple"};
  }
  Lease l;
  l.path = t[1];
  l.holder = t[2];
  l.session = t[3];
  try {
    l.expiry_us = std::stoll(t[4]);
    l.epoch = std::stoull(t[5]);
  } catch (const std::exception&) {
    return Error{ErrorCode::kCorrupted, "lease: malformed fields"};
  }
  if (t[6] != "held" && t[6] != "released") {
    return Error{ErrorCode::kCorrupted, "lease: unknown state " + t[6]};
  }
  l.held = t[6] == "held";
  return l;
}

coord::Template lease_pattern(const std::string& path) {
  return coord::Template::of({kLeaseTag, path, "*", "*", "*", "*", "*"});
}

coord::Template lease_exact(const Lease& l) {
  const coord::Tuple t = lease_tuple(l);
  return coord::Template::of({t[0], t[1], t[2], t[3], t[4], t[5], t[6]});
}

sim::Timed<Result<std::optional<Lease>>> read_lease(coord::CoordinationService& coord,
                                                    const std::string& path) {
  auto r = coord.rdp(lease_pattern(path));
  if (!r.value.ok()) return {Error{r.value.error()}, r.delay};
  if (!r.value->has_value()) {
    return {Result<std::optional<Lease>>{std::optional<Lease>{}}, r.delay};
  }
  auto parsed = parse_lease(**r.value);
  if (!parsed.ok()) return {Error{parsed.error()}, r.delay};
  return {Result<std::optional<Lease>>{std::optional<Lease>{std::move(*parsed)}}, r.delay};
}

sim::Timed<Result<std::uint64_t>> read_fence_epoch(coord::CoordinationService& coord,
                                                   const std::string& path) {
  auto lease = read_lease(coord, path);
  if (!lease.value.ok()) return {Error{lease.value.error()}, lease.delay};
  if (!lease.value->has_value()) return {Result<std::uint64_t>{0}, lease.delay};
  return {Result<std::uint64_t>{(*lease.value)->epoch}, lease.delay};
}

sim::Timed<Status> check_fence(coord::CoordinationService& coord, const std::string& path,
                               std::uint64_t write_epoch) {
  if (write_epoch == kNoFenceEpoch) return {Status::Ok(), 0};
  auto epoch = read_fence_epoch(coord, path);
  if (!epoch.value.ok()) return {Status{epoch.value.error()}, epoch.delay};
  if (*epoch.value > write_epoch) {
    return {Status{ErrorCode::kFenced, "fenced: " + path + " epoch " +
                                           std::to_string(write_epoch) + " < " +
                                           std::to_string(*epoch.value)},
            epoch.delay};
  }
  return {Status::Ok(), epoch.delay};
}

sim::Timed<Result<std::size_t>> evict_holder_leases(coord::CoordinationService& coord,
                                                    const std::string& holder) {
  sim::SimClock::Micros delay = 0;
  auto all = coord.rdall(
      coord::Template::of({kLeaseTag, "*", holder, "*", "*", "*", "held"}));
  delay += all.delay;
  if (!all.value.ok()) return {Error{all.value.error()}, delay};

  std::size_t evicted = 0;
  for (const auto& t : *all.value) {
    auto parsed = parse_lease(t);
    if (!parsed.ok()) continue;  // malformed tuple: nothing to fence against
    Lease released = *parsed;
    released.held = false;
    released.epoch = parsed->epoch + 1;  // fence the holder's in-flight closes
    auto swap = coord.swap(lease_exact(*parsed), lease_tuple(released));
    delay += swap.delay;
    if (!swap.value.ok()) return {Error{swap.value.error()}, delay};
    // 0 swapped = the lease moved under us (expired takeover or unlock); the
    // new state already carries a fresher epoch, so skipping is safe.
    if (*swap.value > 0) ++evicted;
  }
  return {Result<std::size_t>{evicted}, delay};
}

}  // namespace rockfs::scfs
