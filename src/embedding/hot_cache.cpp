#include "embedding/hot_cache.hpp"

#include "common/status.hpp"

namespace microrec {

EmbeddingCacheSim::EmbeddingCacheSim(Bytes capacity_bytes)
    : capacity_(capacity_bytes) {}

void EmbeddingCacheSim::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    metrics_ = MetricHandles{};
    return;
  }
  metrics_.hits = &registry->counter("embedding_cache_hits_total");
  metrics_.misses = &registry->counter("embedding_cache_misses_total");
  metrics_.evictions = &registry->counter("embedding_cache_evictions_total");
  metrics_.bytes_cached = &registry->gauge("embedding_cache_bytes_cached");
}

bool EmbeddingCacheSim::Access(std::uint32_t table_id, std::uint64_t row,
                               Bytes entry_bytes) {
  MICROREC_CHECK(entry_bytes > 0);
  const Key key{table_id, row};
  auto it = index_.find(key);
  if (it != index_.end()) {
    ++stats_.hits;
    if (metrics_.hits != nullptr) metrics_.hits->Inc();
    lru_.splice(lru_.begin(), lru_, it->second);  // move to front
    return true;
  }
  ++stats_.misses;
  if (metrics_.misses != nullptr) metrics_.misses->Inc();
  if (entry_bytes > capacity_) return false;  // uncacheable

  while (stats_.bytes_cached + entry_bytes > capacity_) {
    const Entry& victim = lru_.back();
    stats_.bytes_cached -= victim.bytes;
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
    if (metrics_.evictions != nullptr) metrics_.evictions->Inc();
  }
  lru_.push_front(Entry{key, entry_bytes});
  index_[key] = lru_.begin();
  stats_.bytes_cached += entry_bytes;
  if (metrics_.bytes_cached != nullptr) {
    metrics_.bytes_cached->Set(static_cast<double>(stats_.bytes_cached));
  }
  return false;
}

}  // namespace microrec
