// Tests for the LRU embedding-row cache simulator.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/zipf.hpp"
#include "embedding/hot_cache.hpp"

namespace microrec {
namespace {

TEST(HotCacheTest, MissThenHit) {
  EmbeddingCacheSim cache(1024);
  EXPECT_FALSE(cache.Access(0, 5, 64));
  EXPECT_TRUE(cache.Access(0, 5, 64));
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(HotCacheTest, DistinctTablesDoNotCollide) {
  EmbeddingCacheSim cache(1024);
  cache.Access(0, 5, 64);
  EXPECT_FALSE(cache.Access(1, 5, 64));  // same row id, different table
  EXPECT_TRUE(cache.Access(0, 5, 64));
  EXPECT_TRUE(cache.Access(1, 5, 64));
}

TEST(HotCacheTest, LruEvictionOrder) {
  EmbeddingCacheSim cache(128);  // fits two 64-byte entries
  cache.Access(0, 1, 64);
  cache.Access(0, 2, 64);
  cache.Access(0, 1, 64);  // touch 1: now 2 is LRU
  cache.Access(0, 3, 64);  // evicts 2
  EXPECT_TRUE(cache.Access(0, 1, 64));
  EXPECT_FALSE(cache.Access(0, 2, 64));  // was evicted
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(HotCacheTest, OversizedEntryNeverCached) {
  EmbeddingCacheSim cache(100);
  EXPECT_FALSE(cache.Access(0, 1, 200));
  EXPECT_FALSE(cache.Access(0, 1, 200));  // still a miss
  EXPECT_EQ(cache.stats().bytes_cached, 0u);
}

TEST(HotCacheTest, OccupancyNeverExceedsCapacity) {
  EmbeddingCacheSim cache(1000);
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    cache.Access(0, rng.NextBounded(500), 16 + 16 * rng.NextBounded(4));
    EXPECT_LE(cache.stats().bytes_cached, 1000u);
  }
}

TEST(HotCacheTest, ZipfTrafficYieldsHighHitRate) {
  // Skewed traffic over a 1M-row table: a cache holding ~1% of rows should
  // capture far more than 1% of accesses.
  const std::uint64_t rows = 1'000'000;
  const Bytes entry = 32;
  EmbeddingCacheSim cache(rows / 100 * entry);
  ZipfSampler zipf(rows, 0.99);
  Rng rng(7);
  for (int i = 0; i < 100'000; ++i) {
    cache.Access(0, zipf.Sample(rng), entry);
  }
  EXPECT_GT(cache.stats().hit_rate(), 0.4);
}

TEST(HotCacheTest, UniformTrafficYieldsLowHitRate) {
  const std::uint64_t rows = 1'000'000;
  const Bytes entry = 32;
  EmbeddingCacheSim cache(rows / 100 * entry);  // 1% of rows
  Rng rng(8);
  for (int i = 0; i < 100'000; ++i) {
    cache.Access(0, rng.NextBounded(rows), entry);
  }
  EXPECT_LT(cache.stats().hit_rate(), 0.05);
}

TEST(HotCacheTest, HitRateMonotoneInCapacity) {
  const std::uint64_t rows = 100'000;
  double prev = -1.0;
  for (Bytes capacity : {Bytes(1) << 12, Bytes(1) << 15, Bytes(1) << 18}) {
    EmbeddingCacheSim cache(capacity);
    ZipfSampler zipf(rows, 0.9);
    Rng rng(9);
    for (int i = 0; i < 50'000; ++i) {
      cache.Access(0, zipf.Sample(rng), 32);
    }
    EXPECT_GT(cache.stats().hit_rate(), prev);
    prev = cache.stats().hit_rate();
  }
}

}  // namespace
}  // namespace microrec
