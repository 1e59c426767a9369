#include "rockfs/scrub.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rockfs/journal.h"
#include "rockfs/logservice.h"

namespace rockfs::core {

LogScrubber::LogScrubber(std::string user_id,
                         std::shared_ptr<depsky::DepSkyClient> storage,
                         std::vector<cloud::AccessToken> tokens,
                         std::shared_ptr<coord::CoordinationService> coordination,
                         sim::SimClockPtr clock, ScrubOptions options)
    : user_id_(std::move(user_id)),
      storage_(std::move(storage)),
      tokens_(std::move(tokens)),
      coordination_(std::move(coordination)),
      clock_(std::move(clock)),
      options_(std::move(options)) {}

sim::Timed<Status> LogScrubber::scrub_chain(const std::string& chain,
                                            ScrubReport& report) {
  sim::SimClock::Micros delay = 0;
  auto records = read_log_records(*coordination_, chain);
  delay += records.delay;
  if (!records.value.ok()) return {Status{records.value.error()}, delay};

  const std::size_t threshold = storage_->k() + options_.margin;
  const std::size_t meta_quorum = storage_->n() - storage_->config().f;
  auto& reg = obs::metrics();

  for (const LogRecord& r : *records.value) {
    ++report.entries_checked;
    reg.counter("scrub.entries.checked").add();

    auto inv = storage_->share_inventory(tokens_, r.data_unit());
    delay += inv.delay;
    if (!inv.value.ok()) {
      // Metadata quorum gone for this entry: nothing to measure against.
      ++report.entries_degraded;
      ++report.entries_unrepairable;
      reg.counter("scrub.entries.degraded").add();
      LOG_WARN("scrub: entry seq=" << r.seq << " of " << chain
                                   << " unreadable: " << inv.value.error().message);
      continue;
    }
    // Stale-version state is its own category: a rolled-back cloud holds
    // authentic bytes of an OLD version, which is not the same failure as a
    // lost or corrupt share (and is exactly what a freshness attack leaves
    // behind). It still counts as degradation — the current version is
    // missing there — but it is reported and alarmed separately.
    std::size_t stale_here = 0;
    for (std::size_t s = 0; s < inv.value->share_stale.size(); ++s) {
      if (inv.value->share_stale[s]) ++stale_here;
    }
    if (stale_here > 0 || inv.value->meta_stale > 0) {
      ++report.entries_stale;
      report.stale_shares += stale_here;
      report.stale_metas += inv.value->meta_stale;
      reg.counter("scrub.shares.stale").add(stale_here + inv.value->meta_stale);
    }
    const bool degraded = inv.value->valid_count() < threshold ||
                          inv.value->meta_replicas < meta_quorum;
    if (!degraded) continue;
    ++report.entries_degraded;
    reg.counter("scrub.entries.degraded").add();

    auto fixed = storage_->repair(tokens_, r.data_unit());
    delay += fixed.delay;
    if (!fixed.value.ok()) {
      ++report.entries_unrepairable;
      LOG_WARN("scrub: repair of seq=" << r.seq << " of " << chain
                                       << " failed: " << fixed.value.error().message);
      continue;
    }
    report.shares_repaired += fixed.value->shares_repaired;
    report.meta_repaired += fixed.value->meta_repaired;
    reg.counter("scrub.shares.repaired").add(fixed.value->shares_repaired);
    // Full redundancy restored? Archived shares stay cold (they are not
    // missing), so count them toward the survivors.
    std::size_t archived = 0;
    for (std::size_t i = 0; i < inv.value->share_archived.size(); ++i) {
      if (inv.value->share_archived[i]) ++archived;
    }
    const bool healed = fixed.value->shares_unrepairable == 0 &&
                        fixed.value->meta_unrepairable == 0 &&
                        fixed.value->shares_ok + fixed.value->shares_repaired +
                                archived >= storage_->n();
    if (healed) {
      ++report.entries_repaired;
      reg.counter("scrub.entries.repaired").add();
    } else {
      ++report.entries_unrepairable;
    }
  }
  return {Status::Ok(), delay};
}

sim::Timed<Status> LogScrubber::find_orphans(const std::string& chain,
                                             ScrubReport& report) {
  sim::SimClock::Micros delay = 0;

  // Every unit the log (or a pending intent) legitimately accounts for.
  std::set<std::string> accounted;
  auto records = read_log_records(*coordination_, chain);
  delay += records.delay;
  if (!records.value.ok()) return {Status{records.value.error()}, delay};
  for (const LogRecord& r : *records.value) accounted.insert(r.data_unit());
  IntentJournal journal(chain, coordination_);
  auto intents = journal.pending();
  delay += intents.delay;
  if (intents.value.ok()) {
    for (const LogRecord& i : *intents.value) accounted.insert(i.data_unit());
  }

  // Union of the unit names present on any cloud.
  const std::string prefix = "logs/" + chain + "/";
  const auto& clouds = storage_->config().clouds;
  std::set<std::string> present;
  std::vector<sim::SimClock::Micros> list_delays;
  for (std::size_t i = 0; i < clouds.size() && i < tokens_.size(); ++i) {
    auto listed = clouds[i]->list(tokens_[i], prefix);
    list_delays.push_back(listed.delay);
    if (!listed.value.ok()) continue;
    for (const auto& obj : *listed.value) {
      if (auto unit = depsky::DepSkyClient::unit_of_key(obj.key)) {
        present.insert(std::move(*unit));
      }
    }
  }
  delay += sim::parallel_delay(list_delays);

  for (const std::string& unit : present) {
    if (!accounted.contains(unit)) report.orphan_units.push_back(unit);
  }
  return {Status::Ok(), delay};
}

Result<ScrubReport> LogScrubber::scrub() {
  obs::Span span = obs::tracer().span("scrub");
  sim::SimClock::Micros delay = 0;
  ScrubReport report;

  // The admin chain ("admin:<user>") holds the snapshots and recovery
  // records, which recovery depends on just as much as the user's chain.
  const std::vector<std::string> chains{user_id_, "admin:" + user_id_};

  for (const std::string& chain : chains) {
    auto scrubbed = scrub_chain(chain, report);
    delay += scrubbed.delay;
    if (!scrubbed.value.ok()) {
      clock_->advance_us(delay);
      span.set_duration(static_cast<std::uint64_t>(delay));
      span.set_outcome(scrubbed.value.code());
      return Error{scrubbed.value.error()};
    }
    auto orphans = find_orphans(chain, report);
    delay += orphans.delay;
    if (!orphans.value.ok()) {
      clock_->advance_us(delay);
      span.set_duration(static_cast<std::uint64_t>(delay));
      span.set_outcome(orphans.value.code());
      return Error{orphans.value.error()};
    }
  }
  std::sort(report.orphan_units.begin(), report.orphan_units.end());
  obs::metrics().counter("scrub.orphans").add(report.orphan_units.size());
  clock_->advance_us(delay);
  span.set_duration(static_cast<std::uint64_t>(delay));
  return report;
}

}  // namespace rockfs::core
