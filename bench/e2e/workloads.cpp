// The four workloads. Each is a closed loop with one client; every write
// drains the background pipeline before the next op starts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "bench.h"
#include "rockfs/attack.h"

namespace rockfs::e2e {

// ---- shadow model ----

void Shadow::set(const std::string& path, Bytes content) { files_[path] = std::move(content); }

void Shadow::overwrite(const std::string& path, std::size_t offset, BytesView data) {
  Bytes& f = files_.at(path);
  if (f.size() < offset + data.size()) f.resize(offset + data.size());
  std::copy(data.begin(), data.end(), f.begin() + static_cast<std::ptrdiff_t>(offset));
}

const Bytes& Shadow::at(const std::string& path) const { return files_.at(path); }

void Shadow::check(const std::string& path, const Bytes& actual, const char* what) const {
  const auto it = files_.find(path);
  if (it == files_.end() || it->second != actual) {
    throw GateFailure(std::string(what) + " of " + path +
                      " does not match the shadow model (" + std::to_string(actual.size()) +
                      " bytes)");
  }
}

std::uint64_t Shadow::live_bytes() const {
  std::uint64_t sum = 0;
  for (const auto& [path, bytes] : files_) sum += bytes.size();
  return sum;
}

// ---- agent helpers: each keeps the shadow model and byte count in step ----

namespace {

constexpr std::size_t kKiB = 1024;

std::int64_t commit(Round& r, core::RockFsAgent::Fd fd, const std::string& path) {
  auto closed = r.agent->close_timed(fd);
  closed.value.expect(("close " + path).c_str());
  r.agent->drain_background();
  r.written.push_back(path);
  return closed.delay;
}

std::int64_t create(Round& r, const std::string& path, Bytes content) {
  auto fd = r.agent->create(path);
  fd.expect(("create " + path).c_str());
  r.agent->write(*fd, 0, content).expect("write");
  r.user_bytes_written += content.size();
  r.shadow.set(path, std::move(content));
  return commit(r, *fd, path);
}

std::int64_t overwrite(Round& r, const std::string& path, std::size_t offset,
                       const Bytes& data) {
  auto fd = r.agent->open(path);
  fd.expect(("open " + path).c_str());
  r.agent->write(*fd, offset, data).expect("write");
  r.user_bytes_written += data.size();
  r.shadow.overwrite(path, offset, data);
  return commit(r, *fd, path);
}

std::int64_t rewrite(Round& r, const std::string& path, Bytes content) {
  auto fd = r.agent->open(path);
  fd.expect(("open " + path).c_str());
  r.agent->truncate(*fd, 0).expect("truncate");
  r.agent->write(*fd, 0, content).expect("write");
  r.user_bytes_written += content.size();
  r.shadow.set(path, std::move(content));
  return commit(r, *fd, path);
}

OpResult headline(std::int64_t us) {
  OpResult r;
  r.headline_us = us;
  return r;
}

/// Draws op kinds so that every block of `pattern.size()` ops holds the
/// pattern's counts exactly, in seeded random order: the op mix cannot
/// drift between seeds, only its order varies.
class Mix {
 public:
  explicit Mix(std::vector<int> pattern) : pattern_(std::move(pattern)) {}

  void reset() { next_ = block_.size(); }

  int next(Rng& rng) {
    if (next_ == block_.size()) {
      block_ = pattern_;
      for (std::size_t i = block_.size() - 1; i > 0; --i) {
        std::swap(block_[i], block_[rng.next_below(i + 1)]);
      }
      next_ = 0;
    }
    return block_[next_++];
  }

 private:
  std::vector<int> pattern_;
  std::vector<int> block_;
  std::size_t next_ = 0;
};

std::string numbered(const char* prefix, std::size_t i) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s%04zu", prefix, i);
  return buf;
}

// update-large: 16 x 512 KiB files (8 MiB, inside the 128 MiB default
// cache); each op overwrites a random 30% region and closes. Per-byte
// substrate work dominates host time and transfer dominates virtual time.
class UpdateLarge final : public Workload {
 public:
  explicit UpdateLarge(bool smoke) : files_(smoke ? 2 : 16) {}
  std::size_t file_size() const override { return kSize; }
  double ops_per_second_budget() const override { return 16; }

  void setup(Round& r, std::size_t, Rng& rng) override {
    for (std::size_t i = 0; i < files_; ++i) {
      create(r, numbered("/u/f", i), rng.next_bytes(kSize));
    }
  }

  OpResult op(Round& r, std::size_t, Rng& rng) override {
    const std::string path = numbered("/u/f", rng.next_below(files_));
    const std::size_t region = kSize * 3 / 10;
    const std::size_t offset = rng.next_below(kSize - region + 1);
    return headline(overwrite(r, path, offset, rng.next_bytes(region)));
  }

 private:
  static constexpr std::size_t kSize = 512 * kKiB;
  std::size_t files_;
};

// small-meta: 4-16 KiB files over 8 directories. 25% create, 50% rewrite
// (half under lock/unlock), 15% stat, 10% readdir, and a logout + login
// every 32nd op. Kinds and sizes are drawn in stratified blocks (Mix), so
// totals such as live bytes do not drift between seeds. Fixed per-op costs dominate: coordination rounds,
// signatures, FssAgg, PVSS login.
class SmallMeta final : public Workload {
 public:
  explicit SmallMeta(bool smoke)
      : prefill_(smoke ? 8 : 64),
        mix_({kCreate, kCreate, kCreate, kCreate, kCreate, kRewrite, kRewrite, kRewrite,
              kRewrite, kRewrite, kLockedRewrite, kLockedRewrite, kLockedRewrite,
              kLockedRewrite, kLockedRewrite, kStat, kStat, kStat, kReaddir, kReaddir}),
        sizes_({0, 1, 2, 3, 4, 5, 6}) {}
  std::size_t file_size() const override { return 10 * kKiB; }
  double ops_per_second_budget() const override { return 150; }

  void setup(Round& r, std::size_t, Rng& rng) override {
    paths_.clear();
    next_id_ = 0;
    mix_.reset();
    sizes_.reset();
    for (std::size_t i = 0; i < prefill_; ++i) add_file(r, rng);
  }

  OpResult op(Round& r, std::size_t index, Rng& rng) override {
    if (index % 32 == 31) {
      r.agent->logout();
      r.dep->login_default(r.agent->user_id()).expect("login");
      return {};
    }
    const int kind = mix_.next(rng);
    if (kind == kCreate) return headline(add_file(r, rng));
    const std::string& path = paths_[rng.next_below(paths_.size())];
    if (kind == kRewrite || kind == kLockedRewrite) {
      const bool locked = kind == kLockedRewrite;
      if (locked) r.agent->lock(path).expect("lock");
      // Same-size rewrite: live bytes stay the sum of the created sizes.
      const std::int64_t delay = rewrite(r, path, rng.next_bytes(r.shadow.at(path).size()));
      if (locked) r.agent->unlock(path).expect("unlock");
      return headline(delay);
    }
    if (kind == kStat) {
      const auto st = r.agent->stat(path);
      if (st.expect("stat").size != r.shadow.at(path).size()) {
        throw GateFailure("stat of " + path + " reports a size the shadow model disagrees with");
      }
      return {};
    }
    const std::string dir = "/d" + std::to_string(rng.next_below(kDirs)) + "/";
    const auto listed = r.agent->readdir(dir);
    std::vector<std::string> expected;
    const auto& files = r.shadow.files();
    for (auto it = files.lower_bound(dir); it != files.end() && it->first.starts_with(dir);
         ++it) {
      expected.push_back(it->first);
    }
    if (listed.expect("readdir") != expected) {
      throw GateFailure("readdir " + dir + " disagrees with the shadow model");
    }
    return {};
  }

 private:
  static constexpr std::size_t kDirs = 8;
  enum Kind { kCreate, kRewrite, kLockedRewrite, kStat, kReaddir };

  Bytes content(Rng& rng) { return rng.next_bytes((4 + 2 * sizes_.next(rng)) * kKiB); }

  std::int64_t add_file(Round& r, Rng& rng) {
    const std::string path =
        "/d" + std::to_string(rng.next_below(kDirs)) + numbered("/n", next_id_++);
    paths_.push_back(path);
    return create(r, path, content(rng));
  }

  std::size_t prefill_;
  Mix mix_;  // per 20 ops: 5 create, 10 rewrite (5 locked), 3 stat, 2 readdir
  Mix sizes_;  // per 7 created files: one each of 4, 6, ..., 16 KiB
  std::vector<std::string> paths_;
  std::size_t next_id_ = 0;
};

// read-mostly: 256 x 64 KiB files (16 MiB) against an 8 MiB cache, Zipf
// (0.99) popularity; 90% read_file, 10% 4 KiB overwrite + close. The
// working set exceeds the cache, so reads mix cache hits with evictions and
// DepSky reads (metadata quorum, k shares, decode, verify).
class ReadMostly final : public Workload {
 public:
  explicit ReadMostly(bool smoke)
      : files_(smoke ? 32 : 256),
        cache_bytes_(smoke ? kMiB : 8 * kMiB),
        mix_({1, 1, 1, 1, 1, 1, 1, 1, 1, 0}) {
    double sum = 0;
    for (std::size_t rank = 1; rank <= files_; ++rank) {
      sum += 1.0 / std::pow(static_cast<double>(rank), 0.99);
      cdf_.push_back(sum);
    }
  }
  std::size_t file_size() const override { return kSize; }
  double ops_per_second_budget() const override { return 250; }

  core::DeploymentOptions deployment_options() const override {
    auto opts = Workload::deployment_options();
    opts.agent.cache_config.capacity_bytes = cache_bytes_;
    return opts;
  }

  void setup(Round& r, std::size_t, Rng& rng) override {
    // Rank -> file is a seeded permutation. Prefilling coldest-first leaves
    // the hottest files in the LRU cache, so the measured phase starts warm.
    by_rank_.resize(files_);
    std::iota(by_rank_.begin(), by_rank_.end(), std::size_t{0});
    for (std::size_t i = files_ - 1; i > 0; --i) {
      std::swap(by_rank_[i], by_rank_[rng.next_below(i + 1)]);
    }
    for (std::size_t rank = files_; rank-- > 0;) {
      create(r, numbered("/r/f", by_rank_[rank]), rng.next_bytes(kSize));
    }
    mix_.reset();
  }

  OpResult op(Round& r, std::size_t, Rng& rng) override {
    const bool read = mix_.next(rng) == 1;
    const std::string path = numbered("/r/f", pick(rng));
    if (!read) {
      const std::size_t offset = rng.next_below(kSize - 4 * kKiB + 1);
      overwrite(r, path, offset, rng.next_bytes(4 * kKiB));
      return {};
    }
    const auto start = r.dep->clock()->now_us();
    const auto content = r.agent->read_file(path);
    const std::int64_t elapsed = r.dep->clock()->now_us() - start;
    r.shadow.check(path, content.expect(("read " + path).c_str()), "read");
    return headline(elapsed);
  }

 private:
  static constexpr std::size_t kSize = 64 * kKiB;
  static constexpr std::size_t kMiB = 1024 * kKiB;

  std::size_t pick(Rng& rng) const {
    const double u = rng.next_double() * cdf_.back();
    const auto rank =
        static_cast<std::size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return by_rank_[std::min(rank, files_ - 1)];
  }

  std::size_t files_;
  std::size_t cache_bytes_;
  Mix mix_;  // per 10 ops: 9 reads (1), 1 overwrite (0)
  std::vector<double> cdf_;
  std::vector<std::size_t> by_rank_;
};

// recover: 32 KiB files, each given 8 versions by 8 KiB overwrites, then a
// ransomware attack on all of them (set-up). Each measured op recovers one
// file: FssAgg audit, batch log download, patch replay and re-upload.
class Recover final : public Workload {
 public:
  std::size_t file_size() const override { return kSize; }
  double ops_per_second_budget() const override { return 18; }

  void setup(Round& r, std::size_t ops, Rng& rng) override {
    paths_.clear();
    for (std::size_t i = 0; i < ops; ++i) {
      const std::string path = numbered("/v/f", i);
      paths_.push_back(path);
      create(r, path, rng.next_bytes(kSize));
      for (std::size_t v = 0; v < kVersions; ++v) {
        overwrite(r, path, rng.next_below(kSize - kRegion + 1), rng.next_bytes(kRegion));
      }
    }
    // The shadow keeps the pre-attack bytes: what recovery must restore.
    const auto attack = core::ransomware_attack(*r.agent, paths_, rng.next_u64());
    r.agent->drain_background();
    if (attack.files_encrypted != paths_.size()) {
      throw GateFailure("ransomware attack encrypted " +
                        std::to_string(attack.files_encrypted) + " of " +
                        std::to_string(paths_.size()) + " files");
    }
    for (const auto& path : paths_) r.user_bytes_written += r.shadow.at(path).size();
    malicious_ = attack.malicious_seqs;
    recovery_ = std::make_unique<core::RecoveryService>(
        r.dep->make_recovery_service(r.agent->user_id()));
  }

  OpResult op(Round& r, std::size_t index, Rng&) override {
    const std::string& path = paths_.at(index);
    const auto recovered = recovery_->recover_file(path, malicious_);
    r.shadow.check(path, recovered.expect(("recover " + path).c_str()).content, "recovery");
    r.written.push_back(path);
    OpResult result = headline(recovery_->last_recovery_us());
    result.entries_applied = recovered->applied;
    return result;
  }

 private:
  static constexpr std::size_t kSize = 32 * kKiB;
  static constexpr std::size_t kRegion = 8 * kKiB;
  static constexpr std::size_t kVersions = 8;

  std::vector<std::string> paths_;
  std::set<std::uint64_t> malicious_;
  std::unique_ptr<core::RecoveryService> recovery_;
};

}  // namespace

core::DeploymentOptions Workload::deployment_options() const { return {}; }

void verify_written(Round& r) {
  std::sort(r.written.begin(), r.written.end());
  r.written.erase(std::unique(r.written.begin(), r.written.end()), r.written.end());
  for (const auto& path : r.written) {
    const auto content = r.agent->read_file(path);
    r.shadow.check(path, content.expect(("verify " + path).c_str()), "final read");
  }
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"update-large", "small-meta", "read-mostly",
                                                 "recover"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name, bool smoke) {
  if (name == "update-large") return std::make_unique<UpdateLarge>(smoke);
  if (name == "small-meta") return std::make_unique<SmallMeta>(smoke);
  if (name == "read-mostly") return std::make_unique<ReadMostly>(smoke);
  if (name == "recover") return std::make_unique<Recover>();
  return nullptr;
}

}  // namespace rockfs::e2e
