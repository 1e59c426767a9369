#include "cache/cache.h"

#include <algorithm>

namespace rockfs::cache {

namespace {

/// FNV-1a over the path: deterministic shard placement on every platform
/// (std::hash is implementation-defined, which would make eviction order —
/// and therefore digests — machine-dependent).
std::size_t fnv1a(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return static_cast<std::size_t>(h);
}

}  // namespace

ClientCache::ClientCache(CacheOptions options) : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  shard_budget_ = options_.capacity_bytes / options_.shards;
  shards_.reserve(options_.shards);
  for (std::size_t i = 0; i < options_.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  auto& reg = obs::metrics();
  evictions_ = &reg.counter("cache.data.evictions");
  drops_ = &reg.counter("cache.drops");
  negative_invalidations_ = &reg.counter("cache.negative.invalidations");
}

ClientCache::Shard& ClientCache::shard_for(const std::string& path) {
  return *shards_[fnv1a(path) % shards_.size()];
}

const ClientCache::Shard& ClientCache::shard_for(const std::string& path) const {
  return *shards_[fnv1a(path) % shards_.size()];
}

void ClientCache::evict_locked(Shard& shard, const std::string& keep) {
  while (shard.data_bytes > shard_budget_ && !shard.lru.empty()) {
    const std::string& victim = shard.lru.back();
    if (victim == keep) break;  // the working entry never evicts itself
    const auto it = shard.data.find(victim);
    shard.data_bytes -= it->second.entry.raw->size();
    shard.data.erase(it);
    shard.lru.pop_back();
    evictions_->add();
  }
}

std::optional<DataEntry> ClientCache::get_data(const std::string& path) {
  Shard& shard = shard_for(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.data.find(path);
  if (it == shard.data.end()) return std::nullopt;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  return it->second.entry;
}

void ClientCache::put_data(const std::string& path, Bytes raw, std::uint64_t version) {
  auto shared = std::make_shared<const Bytes>(std::move(raw));
  Shard& shard = shard_for(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.data.find(path);
  if (it != shard.data.end()) {
    shard.data_bytes -= it->second.entry.raw->size();
    shard.data_bytes += shared->size();
    it->second.entry = {std::move(shared), version};
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_it);
  } else {
    shard.lru.push_front(path);
    shard.data_bytes += shared->size();
    shard.data.emplace(path,
                       Shard::DataNode{{std::move(shared), version}, shard.lru.begin()});
  }
  evict_locked(shard, path);
}

void ClientCache::erase_data(const std::string& path) {
  Shard& shard = shard_for(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.data.find(path);
  if (it == shard.data.end()) return;
  shard.data_bytes -= it->second.entry.raw->size();
  shard.lru.erase(it->second.lru_it);
  shard.data.erase(it);
}

std::optional<Bytes> ClientCache::peek_raw(const std::string& path) const {
  const Shard& shard = shard_for(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.data.find(path);
  if (it == shard.data.end()) return std::nullopt;
  return *it->second.entry.raw;
}

void ClientCache::poke_raw(const std::string& path, Bytes raw) {
  auto shared = std::make_shared<const Bytes>(std::move(raw));
  Shard& shard = shard_for(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.data.find(path);
  if (it != shard.data.end()) {
    shard.data_bytes -= it->second.entry.raw->size();
    shard.data_bytes += shared->size();
    it->second.entry.raw = std::move(shared);
    return;
  }
  shard.lru.push_front(path);
  shard.data_bytes += shared->size();
  shard.data.emplace(path, Shard::DataNode{{std::move(shared), 0}, shard.lru.begin()});
}

std::optional<MetaEntry> ClientCache::get_meta(const std::string& path) const {
  const Shard& shard = shard_for(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.meta.find(path);
  if (it == shard.meta.end()) return std::nullopt;
  return it->second;
}

void ClientCache::put_meta(const std::string& path, const MetaEntry& meta) {
  Shard& shard = shard_for(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.meta[path] = meta;
}

bool ClientCache::is_negative(const std::string& path, std::int64_t now_us) const {
  const Shard& shard = shard_for(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.negative.find(path);
  if (it == shard.negative.end()) return false;
  return now_us < it->second + options_.negative_ttl_us;
}

void ClientCache::note_missing(const std::string& path, std::int64_t now_us) {
  Shard& shard = shard_for(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.negative[path] = now_us;
}

void ClientCache::clear_negative(const std::string& path) {
  Shard& shard = shard_for(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.negative.erase(path) > 0) negative_invalidations_->add();
}

void ClientCache::invalidate(const std::string& path) {
  Shard& shard = shard_for(path);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.data.find(path);
  if (it != shard.data.end()) {
    shard.data_bytes -= it->second.entry.raw->size();
    shard.lru.erase(it->second.lru_it);
    shard.data.erase(it);
  }
  shard.meta.erase(path);
  if (shard.negative.erase(path) > 0) negative_invalidations_->add();
}

void ClientCache::drop_all() {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->data.clear();
    shard->lru.clear();
    shard->data_bytes = 0;
    shard->meta.clear();
    shard->negative.clear();
  }
  drop_generation_.fetch_add(1, std::memory_order_relaxed);
  drops_->add();
}

std::size_t ClientCache::data_entries() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->data.size();
  }
  return n;
}

std::size_t ClientCache::data_bytes() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->data_bytes;
  }
  return n;
}

std::size_t ClientCache::meta_entries() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->meta.size();
  }
  return n;
}

std::size_t ClientCache::negative_entries() const {
  std::size_t n = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    n += shard->negative.size();
  }
  return n;
}

}  // namespace rockfs::cache
