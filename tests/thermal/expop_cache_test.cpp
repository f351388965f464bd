// ExpOperatorCache behaviour: hit/miss accounting, fingerprint sensitivity,
// sharing, and — the property that matters for correctness — a cache hit
// producing the SAME simulated trajectory, bit for bit, as a cold prepare.
//
// The cache is process-global, so every test clears it up front; counters
// asserted here are deltas from that clear.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "thermal/expop_cache.hpp"
#include "thermal/grid_model.hpp"
#include "thermal/rc_network.hpp"

namespace rltherm::thermal {
namespace {

constexpr Seconds kTick = 0.01;

GridThermalConfig cachedGridConfig() {
  GridThermalConfig config;
  config.cellsPerCoreSide = 4;  // 8x8 cells + spreader + sink = 66 nodes
  return config;
}

TEST(ExpOpCache, ColdPrepareMissesThenIdenticalPrepareHits) {
  ExpOperatorCache& cache = ExpOperatorCache::instance();
  cache.clear();

  GridPackage first(cachedGridConfig());
  first.prepare(kTick);
  ExpOpCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.inserts, 1u);
  EXPECT_EQ(stats.entries, 1u);

  GridPackage second(cachedGridConfig());
  second.prepare(kTick);
  stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(first.network().operatorFingerprint(), second.network().operatorFingerprint());
}

TEST(ExpOpCache, FingerprintSeparatesStepSizeAndNetworkAndOptions) {
  ExpOperatorCache& cache = ExpOperatorCache::instance();
  cache.clear();

  GridPackage base(cachedGridConfig());
  base.prepare(kTick);
  const std::uint64_t baseFp = base.network().operatorFingerprint();

  // Different step size.
  GridPackage slower(cachedGridConfig());
  slower.prepare(kTick * 2);
  EXPECT_NE(slower.network().operatorFingerprint(), baseFp);

  // Different conductances (one resistance nudged).
  GridThermalConfig tweaked = cachedGridConfig();
  tweaked.rc.junctionToSpreader *= 1.01;
  GridPackage different(tweaked);
  different.prepare(kTick);
  EXPECT_NE(different.network().operatorFingerprint(), baseFp);

  // A different package option (core count), hence a different network.
  GridThermalConfig twoCores = cachedGridConfig();
  twoCores.coreCount = 2;
  GridPackage smaller(twoCores);
  smaller.prepare(kTick);
  EXPECT_NE(smaller.network().operatorFingerprint(), baseFp);

  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().entries, 4u);
}

TEST(ExpOpCache, WarmHitTrajectoryIsBitIdenticalToColdPrepare) {
  ExpOperatorCache& cache = ExpOperatorCache::instance();
  cache.clear();

  GridPackage cold(cachedGridConfig());
  cold.prepare(kTick);  // miss: computes and publishes the entry
  GridPackage warm(cachedGridConfig());
  warm.prepare(kTick);  // hit: adopts the shared entry
  ASSERT_EQ(cache.stats().hits, 1u);

  const std::vector<Watts> corePower = {3.0, 0.5, 2.0, 1.0};
  std::vector<Watts> nodePower;
  for (std::size_t t = 0; t < 500; ++t) {
    cold.nodePowerInto(corePower, nodePower);
    cold.network().step(nodePower);
    warm.network().step(nodePower);
    const std::span<const Celsius> a = cold.network().temperatures();
    const std::span<const Celsius> b = warm.network().temperatures();
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(Celsius)))
        << "cache hit diverged from cold prepare at tick " << t;
  }
}

TEST(ExpOpCache, ClearEmptiesEntriesAndZeroesCounters) {
  ExpOperatorCache& cache = ExpOperatorCache::instance();
  cache.clear();

  GridPackage package(cachedGridConfig());
  package.prepare(kTick);
  EXPECT_EQ(cache.stats().entries, 1u);
  cache.clear();
  const ExpOpCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.hits + stats.misses + stats.inserts + stats.evictions, 0u);
}

}  // namespace
}  // namespace rltherm::thermal
