#include "cache/writeback.h"

namespace rockfs::cache {

WriteBackQueue::WriteBackQueue(bool enabled) : enabled_(enabled) {
  auto& reg = obs::metrics();
  staged_ = &reg.counter("cache.wb.staged");
  coalesced_ = &reg.counter("cache.wb.coalesced");
  discarded_ = &reg.counter("cache.wb.discarded");
}

bool WriteBackQueue::stage(const std::string& path, DirtyEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  staged_->add();
  auto it = entries_.find(path);
  if (it == entries_.end()) {
    total_bytes_ += entry.content.size();
    entries_.emplace(path, std::move(entry));
    return false;
  }
  // Coalesce: the base (committed) side freezes at first staging; only the
  // content and the epochs of the latest write move.
  DirtyEntry& cur = it->second;
  total_bytes_ -= cur.content.size();
  total_bytes_ += entry.content.size();
  cur.content = std::move(entry.content);
  cur.write_epoch = entry.write_epoch;
  cur.stamp_epoch = entry.stamp_epoch;
  ++cur.coalesced;
  coalesced_->add();
  return true;
}

std::optional<DirtyEntry> WriteBackQueue::take(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(path);
  if (it == entries_.end()) return std::nullopt;
  DirtyEntry out = std::move(it->second);
  total_bytes_ -= out.content.size();
  entries_.erase(it);
  return out;
}

void WriteBackQueue::restage(const std::string& path, DirtyEntry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(path);
  if (it == entries_.end()) {
    total_bytes_ += entry.content.size();
    entries_.emplace(path, std::move(entry));
    return;
  }
  // Something re-staged while the flush was in flight: the newer content
  // already supersedes what the failed flush carried; keep it.
}

std::optional<DirtyEntry> WriteBackQueue::snapshot(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(path);
  if (it == entries_.end()) return std::nullopt;
  return it->second;
}

bool WriteBackQueue::contains(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.contains(path);
}

std::vector<std::string> WriteBackQueue::paths() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [path, entry] : entries_) out.push_back(path);
  return out;  // std::map iterates sorted
}

std::vector<std::string> WriteBackQueue::due_paths(std::int64_t now_us) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [path, entry] : entries_) {
    if (now_us >= entry.first_dirty_us + kFlushDeadlineUs) {
      out.push_back(path);
    }
  }
  return out;
}

std::size_t WriteBackQueue::discard_all() {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t n = entries_.size();
  discarded_->add(n);
  entries_.clear();
  total_bytes_ = 0;
  return n;
}

std::size_t WriteBackQueue::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::size_t WriteBackQueue::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

bool WriteBackQueue::over_cap() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_ > kDirtyBytesCap;
}

}  // namespace rockfs::cache
