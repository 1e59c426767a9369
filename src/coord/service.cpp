#include "coord/service.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rockfs::coord {

namespace {

Bytes encode_bool(bool v) { return Bytes{static_cast<Byte>(v ? 1 : 0)}; }
Bytes encode_size(std::size_t v) {
  Bytes out;
  append_u64(out, v);
  return out;
}

}  // namespace

CoordinationService::CoordinationService(sim::SimClockPtr clock, std::size_t f,
                                         std::uint64_t seed)
    : clock_(std::move(clock)), f_(f) {
  const std::size_t n = 3 * f + 1;
  for (std::size_t i = 0; i < n; ++i) {
    replicas_.push_back(std::make_unique<Replica>("depspace-" + std::to_string(i)));
    auto profile = sim::LinkProfile::coordination_like("depspace-" + std::to_string(i));
    profile.rtt_us += static_cast<std::int64_t>(i) * 700;  // mild heterogeneity
    nets_.push_back(std::make_unique<sim::NetworkModel>(clock_, profile, seed + 31 * i));
    faults_.push_back(std::make_shared<sim::FaultSchedule>(clock_, seed + 97 * i));
  }
}

template <typename Op>
sim::Timed<Result<Bytes>> CoordinationService::execute(const char* name, Op&& op) {
  // `op(replica)` must return the canonical encoding of the replica's answer.
  obs::Span span = obs::tracer().span("coord.op");
  span.set_label(name);
  obs::metrics().counter(obs::metric_key("coord.ops", name)).add();
  // One tally per distinct answer, compared by bytes. At most one answer can
  // gather 2f+1 of the 3f+1 votes, and quorum_delay and parallel_delay do not
  // depend on the order of the delays, so the tallies need no order.
  struct Tally {
    Bytes answer;
    std::vector<sim::SimClock::Micros> delays;
  };
  std::vector<Tally> tallies;
  for (std::size_t i = 0; i < replicas_.size(); ++i) {
    // A replica in an outage (or hit by a transient fault) contributes no
    // vote this round; a tail-latency storm slows its reply instead.
    const auto actions = faults_[i]->on_operation(sim::FaultOp::kControl);
    if (actions.fail != ErrorCode::kOk) continue;
    Bytes answer = op(*replicas_[i]);
    // Request + small reply; payload sizes are second-order for metadata ops.
    auto delay = nets_[i]->rpc_delay_us(128, answer.size() + 64);
    delay = static_cast<sim::SimClock::Micros>(static_cast<double>(delay) *
                                              actions.latency_factor);
    auto same = std::find_if(tallies.begin(), tallies.end(),
                             [&](const Tally& t) { return t.answer == answer; });
    if (same == tallies.end()) {
      tallies.push_back({std::move(answer), {delay}});
    } else {
      same->delays.push_back(delay);
    }
  }
  for (auto& tally : tallies) {
    if (tally.delays.size() >= quorum()) {
      const auto delay = sim::quorum_delay(std::move(tally.delays), quorum());
      span.set_duration(static_cast<std::uint64_t>(delay));
      obs::metrics().histogram("coord.delay_us").record(static_cast<std::uint64_t>(delay));
      return {std::move(tally.answer), delay};
    }
  }
  // No quorum: report when the slowest live replica answered.
  std::vector<sim::SimClock::Micros> all;
  for (const auto& tally : tallies) {
    all.insert(all.end(), tally.delays.begin(), tally.delays.end());
  }
  const auto delay = sim::parallel_delay(all);
  span.set_duration(static_cast<std::uint64_t>(delay));
  span.set_outcome(ErrorCode::kUnavailable);
  obs::metrics().counter(obs::metric_key("coord.no_quorum", name)).add();
  obs::metrics().histogram("coord.delay_us").record(static_cast<std::uint64_t>(delay));
  return {Error{ErrorCode::kUnavailable, "coordination: no 2f+1 quorum"}, delay};
}

sim::Timed<Status> CoordinationService::out(const Tuple& tuple) {
  auto r = execute("out", [&](Replica& rep) {
    rep.out(tuple);
    return to_bytes("ok");
  });
  if (!r.value.ok()) return {Status{r.value.error()}, r.delay};
  return {Status::Ok(), r.delay};
}

sim::Timed<Result<std::optional<Tuple>>> CoordinationService::rdp(const Template& pattern) {
  auto r = execute("rdp", [&](Replica& rep) {
    if (!rep.byzantine()) return rep.rdp_answer(pattern);
    auto ans = rep.rdp(pattern);
    if (ans.has_value()) ans = rep.maybe_lie(std::move(*ans));
    return encode_opt_tuple(ans);
  });
  if (!r.value.ok()) return {Error{r.value.error()}, r.delay};
  return {decode_opt_tuple(*r.value), r.delay};
}

sim::Timed<Result<std::optional<Tuple>>> CoordinationService::inp(const Template& pattern) {
  auto r = execute("inp", [&](Replica& rep) {
    auto ans = rep.inp(pattern);
    if (ans.has_value()) ans = rep.maybe_lie(std::move(*ans));
    return encode_opt_tuple(ans);
  });
  if (!r.value.ok()) return {Error{r.value.error()}, r.delay};
  return {decode_opt_tuple(*r.value), r.delay};
}

sim::Timed<Result<std::vector<Tuple>>> CoordinationService::rdall(const Template& pattern) {
  auto r = execute("rdall", [&](Replica& rep) {
    if (!rep.byzantine()) return rep.rdall_answer(pattern);
    auto ts = rep.rdall(pattern);
    for (auto& t : ts) t = rep.maybe_lie(std::move(t));
    return encode_tuples(ts);
  });
  if (!r.value.ok()) return {Error{r.value.error()}, r.delay};
  return {decode_tuples(*r.value), r.delay};
}

sim::Timed<Result<bool>> CoordinationService::cas(const Template& pattern,
                                                  const Tuple& tuple) {
  auto r = execute("cas", [&](Replica& rep) {
    const bool inserted = rep.cas(pattern, tuple);
    return encode_bool(rep.byzantine() ? !inserted : inserted);
  });
  if (!r.value.ok()) return {Error{r.value.error()}, r.delay};
  return {(*r.value)[0] != 0, r.delay};
}

sim::Timed<Result<std::size_t>> CoordinationService::replace(const Template& pattern,
                                                             const Tuple& tuple) {
  auto r = execute("replace",
                   [&](Replica& rep) { return encode_size(rep.replace(pattern, tuple)); });
  if (!r.value.ok()) return {Error{r.value.error()}, r.delay};
  return {static_cast<std::size_t>(read_u64(*r.value, 0)), r.delay};
}

sim::Timed<Result<std::size_t>> CoordinationService::swap(const Template& pattern,
                                                          const Tuple& tuple) {
  auto r = execute("swap",
                   [&](Replica& rep) { return encode_size(rep.swap(pattern, tuple)); });
  if (!r.value.ok()) return {Error{r.value.error()}, r.delay};
  return {static_cast<std::size_t>(read_u64(*r.value, 0)), r.delay};
}

sim::Timed<Result<std::size_t>> CoordinationService::count(const Template& pattern) {
  auto r = execute("count", [&](Replica& rep) {
    const std::size_t c = rep.count(pattern);
    return encode_size(rep.byzantine() ? c + 1 : c);
  });
  if (!r.value.ok()) return {Error{r.value.error()}, r.delay};
  return {static_cast<std::size_t>(read_u64(*r.value, 0)), r.delay};
}

Status CoordinationService::restore_replica(std::size_t i, BytesView checkpoint) {
  auto restored = Replica::restore(replicas_.at(i)->name(), checkpoint);
  if (!restored.ok()) return Status{restored.error()};
  *replicas_[i] = std::move(*restored);
  return {};
}

}  // namespace rockfs::coord
