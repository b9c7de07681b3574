/**
 * @file
 * Tests for descriptor-chain reuse (§5.3): reuse accounting, splits,
 * evictions, and the disabled (baseline) mode.
 */
#include "dma/chain_cache.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "dma/descriptor.h"

namespace memif::dma {
namespace {

TEST(ChainCache, FirstAcquisitionIsAllFresh)
{
    DescriptorRam ram;
    ChainCache cache(ram);
    const ChainLease lease = cache.acquire(16, 4096);
    EXPECT_EQ(lease.size(), 16u);
    EXPECT_EQ(lease.reused, 0u);
    EXPECT_EQ(lease.fresh(), 16u);
    EXPECT_EQ(lease.chunk_bytes, 4096u);
    // All indices distinct and in range.
    std::set<DescIndex> uniq(lease.descs.begin(), lease.descs.end());
    EXPECT_EQ(uniq.size(), 16u);
    for (DescIndex d : lease.descs) EXPECT_LT(d, ram.size());
}

TEST(ChainCache, ReleasedChainIsReusedForSameSize)
{
    DescriptorRam ram;
    ChainCache cache(ram);
    ChainLease a = cache.acquire(32, 4096);
    const std::vector<DescIndex> descs = a.descs;
    cache.release(std::move(a));
    const ChainLease b = cache.acquire(32, 4096);
    EXPECT_EQ(b.reused, 32u);
    EXPECT_EQ(b.descs, descs);
    EXPECT_EQ(cache.stats().descs_reused, 32u);
}

TEST(ChainCache, PartialReuseSplitsChain)
{
    // "it can reuse part of or the whole chain in the next transfer"
    DescriptorRam ram;
    ChainCache cache(ram);
    ChainLease a = cache.acquire(32, 4096);
    cache.release(std::move(a));
    const ChainLease b = cache.acquire(8, 4096);
    EXPECT_EQ(b.reused, 8u);
    // The remaining 24 stay cached for the next lease.
    const ChainLease c = cache.acquire(24, 4096);
    EXPECT_EQ(c.reused, 24u);
}

TEST(ChainCache, ExactFitReuseMatchesTheCopy)
{
    // Three same-size chains cached in order: 8, 8, 4 descriptors.
    DescriptorRam ram;
    ChainCache cache(ram);
    ChainLease a = cache.acquire(8, 4096);
    ChainLease b = cache.acquire(8, 4096);
    ChainLease c = cache.acquire(4, 4096);
    const std::vector<DescIndex> da = a.descs, db = b.descs, dc = c.descs;
    cache.release(std::move(a));
    cache.release(std::move(b));
    cache.release(std::move(c));
    const std::uint64_t fixups = cache.stats().link_fixups;

    // An exact fit hands over the oldest chain as is: its links are
    // already right, so no fix-up.
    const ChainLease x = cache.acquire(8, 4096);
    EXPECT_EQ(x.descs, da);
    EXPECT_EQ(x.reused, 8u);
    EXPECT_EQ(cache.stats().link_fixups, fixups);

    // A lease spanning two chains copies both, in order, and splices
    // the junction once.
    const ChainLease y = cache.acquire(12, 4096);
    std::vector<DescIndex> joined = db;
    joined.insert(joined.end(), dc.begin(), dc.end());
    EXPECT_EQ(y.descs, joined);
    EXPECT_EQ(y.reused, 12u);
    EXPECT_EQ(cache.stats().link_fixups, fixups + 1);

    // Nothing is left cached: the next lease is all fresh.
    const ChainLease z = cache.acquire(8, 4096);
    EXPECT_EQ(z.reused, 0u);
    EXPECT_EQ(cache.stats().descs_reused, 20u);
}

TEST(ChainCache, GrowingLeaseMixesReusedAndFresh)
{
    DescriptorRam ram;
    ChainCache cache(ram);
    ChainLease a = cache.acquire(8, 4096);
    cache.release(std::move(a));
    const ChainLease b = cache.acquire(12, 4096);
    EXPECT_EQ(b.reused, 8u);
    EXPECT_EQ(b.fresh(), 4u);
}

TEST(ChainCache, DifferentChunkSizesDoNotReuse)
{
    DescriptorRam ram;
    ChainCache cache(ram);
    ChainLease a = cache.acquire(8, 4096);
    cache.release(std::move(a));
    const ChainLease b = cache.acquire(8, 65536);
    EXPECT_EQ(b.reused, 0u);
}

TEST(ChainCache, EvictsOtherSizesWhenRamFull)
{
    DescriptorRam ram;
    ChainCache cache(ram);
    // Fill the whole PaRAM with cached 4 KB chains (hold them all
    // simultaneously so each acquisition is forced to be fresh).
    std::vector<ChainLease> held;
    for (int i = 0; i < 4; ++i) held.push_back(cache.acquire(128, 4096));
    for (ChainLease &l : held) cache.release(std::move(l));
    // A 64 KB lease finds no free entries: eviction must kick in.
    const ChainLease big = cache.acquire(256, 65536);
    EXPECT_EQ(big.size(), 256u);
    EXPECT_EQ(big.reused, 0u);
    EXPECT_GE(cache.stats().evictions, 2u);
}

TEST(ChainCache, DisabledModeNeverReuses)
{
    DescriptorRam ram;
    ChainCache cache(ram, /*enabled=*/false);
    for (int round = 0; round < 10; ++round) {
        ChainLease l = cache.acquire(64, 4096);
        EXPECT_EQ(l.reused, 0u);
        cache.release(std::move(l));
    }
    EXPECT_EQ(cache.stats().descs_reused, 0u);
    EXPECT_EQ(cache.stats().descs_fresh, 640u);
}

TEST(ChainCache, ShapedLeaseIsFreshFirstTime)
{
    DescriptorRam ram;
    ChainCache cache(ram);
    const ChainLease lease = cache.acquire_shape({4096, 16384, 4096});
    EXPECT_EQ(lease.size(), 3u);
    EXPECT_EQ(lease.reused, 0u);
    EXPECT_EQ(lease.chunk_sizes, (std::vector<std::uint64_t>{4096, 16384,
                                                             4096}));
    std::set<DescIndex> uniq(lease.descs.begin(), lease.descs.end());
    EXPECT_EQ(uniq.size(), 3u);
}

TEST(ChainCache, ExactShapeIsReusedWhole)
{
    DescriptorRam ram;
    ChainCache cache(ram);
    ChainLease a = cache.acquire_shape({8192, 4096, 65536});
    const std::vector<DescIndex> descs = a.descs;
    cache.release(std::move(a));
    const ChainLease b = cache.acquire_shape({8192, 4096, 65536});
    EXPECT_EQ(b.reused, 3u);
    EXPECT_EQ(b.descs, descs);
}

TEST(ChainCache, DifferentShapeDoesNotReuse)
{
    DescriptorRam ram;
    ChainCache cache(ram);
    ChainLease a = cache.acquire_shape({8192, 4096});
    cache.release(std::move(a));
    // Same multiset of sizes, different order: per-position sizes would
    // not match, so the cached chain must not be handed back.
    const ChainLease b = cache.acquire_shape({4096, 8192});
    EXPECT_EQ(b.reused, 0u);
}

TEST(ChainCache, UniformShapeSharesThePerSizePool)
{
    DescriptorRam ram;
    ChainCache cache(ram);
    ChainLease a = cache.acquire_shape({4096, 4096, 4096, 4096});
    // Delegated to the uniform pool: keyed by chunk_bytes, not shape.
    EXPECT_EQ(a.chunk_bytes, 4096u);
    EXPECT_TRUE(a.chunk_sizes.empty());
    cache.release(std::move(a));
    const ChainLease b = cache.acquire(4, 4096);
    EXPECT_EQ(b.reused, 4u);
}

TEST(ChainCache, ShapedChainsAreEvictable)
{
    DescriptorRam ram;
    ChainCache cache(ram);
    // Fill the whole PaRAM with cached non-uniform chains.
    std::vector<ChainLease> held;
    const std::uint32_t half = ram.size() / 2;
    for (std::uint32_t i = 0; i < half; ++i) {
        std::vector<std::uint64_t> shape{4096 + 4096 * (i % 3), 8192};
        held.push_back(cache.acquire_shape(std::move(shape)));
    }
    for (ChainLease &l : held) cache.release(std::move(l));
    EXPECT_EQ(cache.available(), ram.size());
    // A full-PaRAM uniform lease must be able to evict them all.
    const ChainLease big = cache.acquire(ram.size(), 4096);
    EXPECT_EQ(big.size(), ram.size());
    EXPECT_GE(cache.stats().evictions, half);
}

TEST(ChainCacheDeath, OversizedLeasePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    DescriptorRam ram;
    ChainCache cache(ram);
    EXPECT_DEATH(cache.acquire(ram.size() + 1, 4096), "out of range");
}

TEST(ChainCacheDeath, ExhaustionByOutstandingLeasesPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    DescriptorRam ram;
    ChainCache cache(ram);
    ChainLease held = cache.acquire(ram.size(), 4096);  // hold everything
    EXPECT_EQ(cache.available(), 0u);
    EXPECT_DEATH(cache.acquire(1, 4096), "capacity");
    cache.release(std::move(held));
    EXPECT_EQ(cache.available(), ram.size());
}

}  // namespace
}  // namespace memif::dma
