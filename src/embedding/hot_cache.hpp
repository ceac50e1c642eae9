// LRU cache simulator for hot embedding rows.
//
// An extension study grounded in the paper's related work: RecNMP
// (Ke et al. 2020) adds memory-side caching of frequently accessed
// embedding entries, and the paper's own rule 4 statically pins whole tiny
// tables on chip. This simulator quantifies the dynamic alternative --
// caching individual hot rows of *large* tables under skewed (Zipf)
// traffic -- so the repo can report how much further on-chip SRAM could
// cut average lookup latency (bench_ablation_hot_cache).
#pragma once

#include <cstdint>
#include <list>
#include <unordered_map>

#include "common/units.hpp"
#include "obs/metrics.hpp"

namespace microrec {

struct EmbeddingCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  Bytes bytes_cached = 0;  ///< current occupancy

  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }
};

/// Fully-associative LRU cache over (table, row) keys with a byte-capacity
/// budget; each entry occupies its embedding vector's size.
class EmbeddingCacheSim {
 public:
  explicit EmbeddingCacheSim(Bytes capacity_bytes);

  Bytes capacity() const { return capacity_; }
  const EmbeddingCacheStats& stats() const { return stats_; }

  /// Records an access; returns true on hit. On miss the entry is inserted
  /// (evicting LRU entries until it fits). Entries larger than the whole
  /// capacity are never cached (counted as misses, no insertion).
  bool Access(std::uint32_t table_id, std::uint64_t row, Bytes entry_bytes);

  /// Mirrors hit/miss/eviction counts and the occupancy gauge
  /// into `registry` (names prefixed `embedding_cache_`). Pass nullptr to
  /// detach. Counts-only: cache behaviour is unchanged.
  void set_metrics(obs::MetricsRegistry* registry);

 private:
  struct Key {
    std::uint32_t table_id;
    std::uint64_t row;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>()(k.row * 1000003ull + k.table_id);
    }
  };
  struct Entry {
    Key key;
    Bytes bytes;
  };

  struct MetricHandles {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Gauge* bytes_cached = nullptr;
  };

  Bytes capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> index_;
  EmbeddingCacheStats stats_;
  MetricHandles metrics_;  ///< all null unless set_metrics attached them
};

}  // namespace microrec
