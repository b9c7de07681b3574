/**
 * @file
 * Tests for the TLB model and its integration with the access path —
 * including the §5.2 property that memif's semi-final PTE never enters
 * the TLB (which is why Release needs no flush).
 */
#include "vm/tlb.h"

#include <gtest/gtest.h>

#include "memif/device.h"
#include "memif/user_api.h"
#include "os/kernel.h"
#include "os/process.h"
#include "vm/addr_space.h"

namespace memif::vm {
namespace {

TEST(Tlb, MissThenHit)
{
    Tlb tlb(4);
    EXPECT_FALSE(tlb.lookup(0x1000, PageSize::k4K));
    tlb.fill(0x1000, PageSize::k4K);
    EXPECT_TRUE(tlb.lookup(0x1000, PageSize::k4K));
    EXPECT_EQ(tlb.stats().hits, 1u);
    EXPECT_EQ(tlb.stats().misses, 1u);
    EXPECT_EQ(tlb.stats().fills, 1u);
}

TEST(Tlb, LruEvictionAtCapacity)
{
    Tlb tlb(2);
    tlb.fill(0x1000, PageSize::k4K);
    tlb.fill(0x2000, PageSize::k4K);
    EXPECT_TRUE(tlb.lookup(0x1000, PageSize::k4K));  // 0x2000 now LRU
    tlb.fill(0x3000, PageSize::k4K);                 // evicts 0x2000
    EXPECT_TRUE(tlb.contains(0x1000, PageSize::k4K));
    EXPECT_FALSE(tlb.contains(0x2000, PageSize::k4K));
    EXPECT_TRUE(tlb.contains(0x3000, PageSize::k4K));
    EXPECT_EQ(tlb.stats().evictions, 1u);
}

TEST(Tlb, PageFlushRemovesExactlyOneEntry)
{
    Tlb tlb;
    tlb.fill(0x1000, PageSize::k4K);
    tlb.fill(0x2000, PageSize::k4K);
    tlb.flush_page(0x1000, PageSize::k4K);
    EXPECT_FALSE(tlb.contains(0x1000, PageSize::k4K));
    EXPECT_TRUE(tlb.contains(0x2000, PageSize::k4K));
    EXPECT_EQ(tlb.stats().flushed_entries, 1u);
    // Flushing a non-resident page counts the request, removes nothing.
    tlb.flush_page(0x9000, PageSize::k4K);
    EXPECT_EQ(tlb.stats().page_flushes, 2u);
    EXPECT_EQ(tlb.stats().flushed_entries, 1u);
}

TEST(Tlb, DifferentPageSizesAreDistinctEntries)
{
    Tlb tlb;
    tlb.fill(0, PageSize::k4K);
    EXPECT_FALSE(tlb.contains(0, PageSize::k2M));
    tlb.fill(0, PageSize::k2M);
    tlb.flush_page(0, PageSize::k4K);
    EXPECT_TRUE(tlb.contains(0, PageSize::k2M));
}

TEST(Tlb, FlushAllEmpties)
{
    Tlb tlb;
    for (VAddr va = 0; va < 32 * 4096; va += 4096)
        tlb.fill(va, PageSize::k4K);
    EXPECT_EQ(tlb.size(), 32u);
    tlb.flush_all();
    EXPECT_EQ(tlb.size(), 0u);
}

TEST(TlbIntegration, TouchFillsAndRefillsAfterFlush)
{
    os::Kernel k;
    os::Process &p = k.create_process();
    const VAddr base = p.mmap(4096, PageSize::k4K);
    os::TouchOutcome out;
    auto t1 = p.touch(base, false, &out);
    k.run();
    EXPECT_TRUE(p.as().tlb().contains(base, PageSize::k4K));

    p.as().flush_tlb_page(*p.as().find_vma(base), 0);
    EXPECT_FALSE(p.as().tlb().contains(base, PageSize::k4K));
    auto t2 = p.touch(base, false, &out);
    k.run();
    EXPECT_TRUE(p.as().tlb().contains(base, PageSize::k4K));
    EXPECT_GE(p.as().tlb().stats().misses, 2u);
}

TEST(TlbIntegration, SemiFinalPteNeverEntersTlb)
{
    // The §5.2 argument: Remap installs the semi-final PTE and flushes
    // the old entry; any access to it traps (young) before caching, so
    // at Release there is nothing to flush. We verify that across a
    // full memif migration no TLB entry for the migrated pages exists
    // until they are touched again afterwards.
    os::Kernel k;
    os::Process &p = k.create_process();
    core::MemifDevice dev(k, p);
    core::MemifUser user(dev);
    const VAddr base = p.mmap(16 * 4096, PageSize::k4K);

    // Populate the TLB with the pre-migration translations.
    os::TouchOutcome out;
    for (unsigned i = 0; i < 16; ++i) {
        auto t = p.touch(base + i * 4096, false, &out);
        k.run();
    }
    EXPECT_EQ(p.as().tlb().size(), 16u);

    const std::uint32_t idx = user.alloc_request();
    core::MovReq &req = user.request(idx);
    req.op = core::MovOp::kMigrate;
    req.src_base = base;
    req.num_pages = 16;
    req.dst_node = k.fast_node();
    k.spawn(user.submit(idx));
    k.run();
    EXPECT_TRUE(user.request(idx).succeeded());

    // Remap flushed all 16 old entries; nothing was cached since.
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_FALSE(p.as().tlb().contains(base + i * 4096, PageSize::k4K));

    // First post-migration access caches the final translation.
    auto t = p.touch(base, true, &out);
    k.run();
    EXPECT_TRUE(p.as().tlb().contains(base, PageSize::k4K));
    EXPECT_EQ(out.result, AccessResult::kOk);
}

TEST(TlbIntegration, PreventPolicyFlushesTwicePerPage)
{
    // Prevention rewrites the PTE at Remap AND Release; detection's
    // Release is a bare CAS. The flush-request counters make the §5.2
    // saving concrete.
    auto flushes = [](core::RacePolicy policy) {
        os::Kernel k;
        os::Process &p = k.create_process();
        core::MemifConfig cfg;
        cfg.race_policy = policy;
        core::MemifDevice dev(k, p, cfg);
        core::MemifUser user(dev);
        const VAddr base = p.mmap(8 * 4096, PageSize::k4K);
        const std::uint32_t idx = user.alloc_request();
        core::MovReq &req = user.request(idx);
        req.op = core::MovOp::kMigrate;
        req.src_base = base;
        req.num_pages = 8;
        req.dst_node = k.fast_node();
        k.spawn(user.submit(idx));
        k.run();
        return p.as().tlb().stats().page_flushes;
    };
    EXPECT_EQ(flushes(core::RacePolicy::kDetect), 8u);
    EXPECT_EQ(flushes(core::RacePolicy::kPrevent), 16u);
}

}  // namespace
}  // namespace memif::vm
