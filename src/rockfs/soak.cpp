#include "rockfs/soak.h"

#include <algorithm>
#include <utility>

#include "common/hex.h"
#include "crypto/sha256.h"

namespace rockfs::core {

Soak::Soak(DeploymentOptions options, std::uint64_t dice_seed)
    : dep_(std::move(options)),
      dice_(dice_seed),
      clock_(*dep_.clock()),
      crash_(*dep_.crash_schedule()) {}

std::string Soak::home_path(const std::string& user, std::size_t j) {
  return "/" + user + "/doc" + std::to_string(j);
}

Bytes Soak::honest_content(const std::string& tag, const std::string& user,
                           std::size_t j, std::size_t round) {
  std::string s = tag + "." + user + ".doc" + std::to_string(j) + ".round" +
                  std::to_string(round) + ".";
  while (s.size() < 256) s += "payload-";
  return to_bytes(s);
}

bool Soak::ensure_login(const std::string& user) {
  if (dep_.agent(user).logged_in()) return true;
  auto st = dep_.login_default(user);
  if (!st.ok()) st = dep_.login_with_external(user);
  if (!st.ok()) return false;
  ++tally_.relogins;
  return true;
}

void Soak::honest_write(const std::string& user, const std::string& path,
                        const Bytes& bytes) {
  // Retries through whatever the scenario throws at the write — outages,
  // downed replicas, a mid-rotation logout — stepping the virtual clock so
  // time-bounded faults expire. A write that never lands breaks convergence.
  for (int attempt = 0; attempt < 256; ++attempt) {
    if (ensure_login(user) && dep_.agent(user).write_file(path, bytes).ok()) {
      ++tally_.honest_writes;
      expect_equal(path, bytes);
      return;
    }
    ++tally_.honest_retries;
    clock_.advance_us(1'000'000);
  }
  ++tally_.write_failures;
}

Result<Bytes> Soak::read_back(const std::string& user, const std::string& path) {
  // Through DepSky, not the local cache: the soak invariants are about what
  // the cloud-of-clouds serves.
  Result<Bytes> back = Error{ErrorCode::kUnavailable, "never read"};
  for (int attempt = 0; attempt < 64; ++attempt) {
    if (ensure_login(user)) {
      dep_.agent(user).fs().clear_cache();
      back = dep_.agent(user).read_file(path);
      if (back.ok()) break;
    }
    clock_.advance_us(1'000'000);
  }
  return back;
}

void Soak::check_read(const std::string& user, const std::string& path) {
  const auto it = ledger_.find(path);
  if (it == ledger_.end() || !it->second.equal) return;
  const auto back = read_back(user, path);
  if (!back.ok() || *back != *it->second.equal) ++tally_.read_mismatches;
}

void Soak::expect_equal(const std::string& path, const Bytes& bytes) {
  ledger_[path].equal = bytes;
}

void Soak::expect_contains(const std::string& path, const std::string& token) {
  ledger_[path].contains.push_back(token);
}

void Soak::expect_absent(const std::string& path, const std::string& token) {
  ledger_[path].absent.push_back(token);
}

const SoakTally& Soak::settle(const std::vector<std::string>& readers) {
  for (const auto& [path, want] : ledger_) {
    const auto owner = std::find_if(readers.begin(), readers.end(), [&](const auto& r) {
      return path.starts_with("/" + r + "/");
    });
    std::vector<std::string> views;
    for (const auto& reader : readers) {
      if (owner != readers.end() && reader != *owner) continue;
      const auto back = read_back(reader, path);
      views.push_back(back.ok() ? to_string(*back) : kUnreadable);
    }
    if (views.empty()) continue;
    const std::string& view = views.front();
    tally_.final_contents[path] = view;
    if (std::any_of(views.begin(), views.end(), [&](const auto& v) { return v != view; })) {
      ++tally_.divergent_reads;
    }
    if (want.equal && std::any_of(views.begin(), views.end(), [&](const auto& v) {
          return v != to_string(*want.equal);
        })) {
      ++tally_.read_mismatches;
    }
    for (const auto& token : want.contains) {
      if (view.find(token) == std::string::npos) ++tally_.lost_updates;
    }
    for (const auto& token : want.absent) {
      if (view.find(token) != std::string::npos) ++tally_.zombie_updates;
    }
  }

  std::string blob;
  for (const auto& [path, content] : tally_.final_contents) {
    blob += path + "=>" + content + "\n";
  }
  tally_.content_digest = hex_encode(crypto::sha256(to_bytes(blob)));
  tally_.total_us = clock_.now_us();
  return tally_;
}

}  // namespace rockfs::core
