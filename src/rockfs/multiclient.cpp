#include "rockfs/multiclient.h"

#include <algorithm>
#include <vector>

#include "common/hex.h"
#include "crypto/sha256.h"

namespace rockfs::core {
namespace {

constexpr std::size_t kAgents = 3;     // eviction scenarios need a contender
constexpr std::size_t kPaths = 2;      // shared files under contention
constexpr double kCrashProb = 0.15;    // P(round crashes at a random close point)
constexpr double kHangProb = 0.15;     // P(round hangs pre-upload and gets evicted)

// Close-path crash points a dying holder can be killed at (kMidRecoverAll
// belongs to the recovery service, not the client close path).
constexpr sim::CrashPoint kClosePoints[] = {
    sim::CrashPoint::kBeforeFilePut,      sim::CrashPoint::kAfterLogIntent,
    sim::CrashPoint::kAfterFilePut,       sim::CrashPoint::kAfterLogPayloadPut,
    sim::CrashPoint::kAfterMetaAppend,
};

/// Open-or-create + append the token + close. The token rides whatever
/// content the file currently has, so every committed token stays a
/// substring of every later committed version (append-only ledger).
Status append_token(RockFsAgent& agent, const std::string& path,
                    const std::string& token) {
  auto fd = agent.open(path);
  if (!fd.ok() && fd.code() == ErrorCode::kNotFound) fd = agent.create(path);
  if (!fd.ok()) return Status{fd.error()};
  if (auto st = agent.append(*fd, to_bytes(token)); !st.ok()) {
    (void)agent.close(*fd);
    return st;
  }
  auto st = agent.close(*fd);
  if (!st.ok()) return st;
  // With write-back staging on, the close only parked the bytes: the commit
  // pipeline — and whatever crash/fence fate the round armed — runs in the
  // flush, while this agent still holds the lease. A no-op when staging is
  // off, so one code path serves both modes.
  return agent.flush(path);
}

}  // namespace

MultiClientReport run_multiclient_soak(const MultiClientOptions& options) {
  MultiClientReport report;

  DeploymentOptions dopt;
  dopt.seed = options.seed;
  dopt.agent.sync_mode = scfs::SyncMode::kBlocking;
  dopt.agent.lease_ttl_us = options.lease_ttl_us;
  dopt.agent.enable_cache = options.client_cache;
  dopt.agent.write_back = options.write_back;
  dopt.executor_threads = options.executor_threads;
  Soak soak(dopt, options.seed * 7919 + 17);
  auto& dep = soak.dep();
  auto& clock = soak.clock();
  auto& crash = soak.crash();
  auto& dice = soak.dice();
  if (options.byzantine_coord_replica && dep.coordination()->replica_count() > 1) {
    dep.coordination()->replica(1).set_byzantine(true);
  }

  std::vector<std::string> users;
  for (std::size_t i = 0; i < kAgents; ++i) {
    users.push_back("u" + std::to_string(i));
    dep.add_user(users.back());
  }
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < kPaths; ++i) {
    paths.push_back("/shared/doc" + std::to_string(i));
  }

  // Spin on kConflict until the lease is ours. A conflict in the serialized
  // sim means the holder is dead (crashed or hung) — its lease expires
  // within one TTL, so stepping the clock by TTL/4 per retry acquires in
  // bounded time. max_blocked_us records the worst spin (the wedge bound).
  auto acquire = [&](RockFsAgent& agent, const std::string& path) {
    const auto start = clock.now_us();
    for (int tries = 0; tries < 64; ++tries) {
      auto st = agent.lock(path);
      if (st.ok()) {
        if (tries > 0) {
          ++report.lock_waits;
          ++report.evictions;  // a conflicting holder can only be evicted
          report.max_blocked_us = std::max(report.max_blocked_us, clock.now_us() - start);
        }
        return true;
      }
      if (st.code() != ErrorCode::kConflict) return false;
      clock.advance_us(std::max<sim::SimClock::Micros>(options.lease_ttl_us / 4, 100'000));
    }
    return false;
  };

  for (std::size_t round = 0; round < options.rounds; ++round) {
    const std::size_t ai = dice.next_below(kAgents);
    const std::string& user = users[ai];
    if (!soak.ensure_login(user)) continue;
    auto& agent = dep.agent(user);
    const std::string& path = paths[dice.next_below(paths.size())];
    const std::string token = "[" + user + ".r" + std::to_string(round) + "]";
    const double fate = dice.next_double();

    if (!acquire(agent, path)) continue;
    ++report.writes_attempted;

    if (fate < kCrashProb) {
      // The holder dies mid-close at a random pipeline point; its lease
      // stays held until TTL expiry (contenders must wait, never wedge).
      crash.arm(kClosePoints[dice.next_below(std::size(kClosePoints))]);
      auto st = append_token(agent, path, token);
      crash.disarm();
      if (st.code() == ErrorCode::kCrashed) {
        ++report.writes_crashed;
        // "maybe" token: journal replay at the next login may adopt the
        // intent (if nobody moved the epoch) or discard it — both legal.
      } else if (st.ok()) {
        soak.expect_contains(path, token);
        ++report.writes_committed;
        (void)agent.unlock(path);
      }
    } else if (fate < kCrashProb + kHangProb) {
      // The holder stalls pre-upload (kBeforeFilePut: nothing durable yet)
      // past its TTL; the hook interleaves a contender who evicts the
      // holder and commits its own write. The resumed close must fence.
      const std::size_t bi = (ai + 1 + dice.next_below(kAgents - 1)) % kAgents;
      const std::string contender_token =
          "[" + users[bi] + ".r" + std::to_string(round) + ".evict]";
      bool contender_committed = false;
      crash.arm_hang(sim::CrashPoint::kBeforeFilePut,
                     static_cast<sim::SimClock::Micros>(options.lease_ttl_us) * 2);
      crash.set_hang_hook([&] {
        if (!soak.ensure_login(users[bi])) return;
        auto& contender = dep.agent(users[bi]);
        if (!contender.lock(path).ok()) return;  // lost the takeover race
        ++report.evictions;
        if (append_token(contender, path, contender_token).ok()) {
          contender_committed = true;
        }
        (void)contender.unlock(path);
      });
      auto st = append_token(agent, path, token);
      crash.set_hang_hook(nullptr);
      crash.disarm_hang();
      if (contender_committed) {
        soak.expect_contains(path, contender_token);
        ++report.writes_committed;
      }
      if (st.code() == ErrorCode::kFenced) {
        ++report.writes_fenced;
        soak.expect_absent(path, token);
      } else if (st.ok()) {
        // Contender failed to evict (lost the race) — the close sailed
        // through unfenced, so the token must survive like any commit.
        soak.expect_contains(path, token);
        ++report.writes_committed;
      }
      (void)agent.unlock(path);  // kConflict after an eviction; ignore
    } else {
      auto st = append_token(agent, path, token);
      if (st.ok()) {
        soak.expect_contains(path, token);
        ++report.writes_committed;
        (void)agent.unlock(path);
      }
    }

    clock.advance_us(100'000 + dice.next_below(2'000'000));
  }

  // Settle: let every stale lease expire, then land one clean write per
  // path so crashed intents are either adopted or fenced out by now.
  clock.advance_us(static_cast<sim::SimClock::Micros>(options.lease_ttl_us) * 2);
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (!soak.ensure_login(users[0])) break;
    auto& agent = dep.agent(users[0]);
    if (!acquire(agent, paths[i])) continue;
    const std::string token = "[settle." + std::to_string(i) + "]";
    if (append_token(agent, paths[i], token).ok()) soak.expect_contains(paths[i], token);
    (void)agent.unlock(paths[i]);
  }

  // Every agent reads every path; all views must agree byte-for-byte.
  static_cast<SoakTally&>(report) = soak.settle(users);

  std::string blob;
  blob += "attempted=" + std::to_string(report.writes_attempted);
  blob += ";committed=" + std::to_string(report.writes_committed);
  blob += ";fenced=" + std::to_string(report.writes_fenced);
  blob += ";crashed=" + std::to_string(report.writes_crashed);
  blob += ";evictions=" + std::to_string(report.evictions);
  blob += ";relogins=" + std::to_string(report.relogins);
  blob += ";lock_waits=" + std::to_string(report.lock_waits);
  blob += ";max_blocked_us=" + std::to_string(report.max_blocked_us);
  blob += ";lost=" + std::to_string(report.lost_updates);
  blob += ";zombies=" + std::to_string(report.zombie_updates);
  blob += ";divergent=" + std::to_string(report.divergent_reads);
  for (const auto& [path, content] : report.final_contents) {
    blob += ";" + path + "=>" + content;
  }
  report.digest = hex_encode(crypto::sha256(to_bytes(blob)));
  return report;
}

}  // namespace rockfs::core
