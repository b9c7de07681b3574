/**
 * @file
 * MMU-aware DMA tests: translation prefetch ahead of the consumption
 * stream and SVA-routed replication. The races this PR introduces —
 * a shootdown landing between prefetch issue and fill, a retried chain
 * reusing stale translations, an IOMMU walk fault mid-stream — must
 * never surface as wrong bytes; only as stalls, demand walks, or a
 * clean kXlateFault through the recovery ladder.
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include <vector>

#include "dma/engine.h"
#include "memif/user_api.h"
#include "memif/xlate_cache.h"
#include "os/kernel.h"
#include "os/process.h"
#include "sim/task.h"
#include "sim/types.h"

namespace memif::core {
namespace {

struct Fixture {
    os::Kernel kernel;
    os::Process &proc;
    MemifDevice dev;
    MemifUser user;

    explicit Fixture(MemifConfig cfg = MemifConfig::mmu_aware())
        : proc(kernel.create_process()),
          dev(kernel, proc, cfg),
          user(dev)
    {
    }

    ~Fixture()
    {
        std::string why;
        EXPECT_TRUE(dev.check_quiesced(&why)) << "teardown: " << why;
    }

    sim::FaultInjector &faults() { return kernel.faults(); }

    void
    fill(vm::VAddr base, std::uint64_t bytes, std::uint8_t seed)
    {
        std::vector<std::uint8_t> buf(bytes);
        for (std::uint64_t i = 0; i < bytes; ++i)
            buf[i] = static_cast<std::uint8_t>(seed + i * 13);
        ASSERT_TRUE(proc.as().write(base, buf.data(), bytes));
    }

    bool
    check(vm::VAddr base, std::uint64_t bytes, std::uint8_t seed)
    {
        std::vector<std::uint8_t> buf(bytes);
        if (!proc.as().read(base, buf.data(), bytes)) return false;
        for (std::uint64_t i = 0; i < bytes; ++i)
            if (buf[i] != static_cast<std::uint8_t>(seed + i * 13))
                return false;
        return true;
    }

    std::uint32_t
    replicate(vm::VAddr src, std::uint32_t npages, vm::VAddr dst)
    {
        const std::uint32_t idx = user.alloc_request();
        EXPECT_NE(idx, kNoRequest);
        MovReq &req = user.request(idx);
        req.op = MovOp::kReplicate;
        req.src_base = src;
        req.dst_base = dst;
        req.num_pages = npages;
        kernel.spawn(user.submit(idx));
        return idx;
    }
};

/** mmu_aware() with coalescing off: every 4 KB chunk is its own SG
 *  entry / stream slot, so the prefetcher has a real stream to run
 *  ahead of (the buddy allocator's contiguous frames would otherwise
 *  collapse the whole region into a couple of descriptors). */
MemifConfig
uncoalesced_mmu_aware()
{
    MemifConfig c = MemifConfig::mmu_aware();
    c.sg_coalescing = false;
    return c;
}

// ---------------------------------------------------------------------
// XlateCache pending-prefetch unit coverage: the generation check at
// fill time is what makes the issue->fill window race-safe.
// ---------------------------------------------------------------------

TEST(XlatePrefetch, FillAfterInvalidationIsDropped)
{
    Fixture f;  // only used to mint a real Vma
    const vm::VAddr base = f.proc.mmap(8 * 4096, vm::PageSize::k4K);
    vm::Vma *vma = f.proc.as().find_vma(base);
    ASSERT_NE(vma, nullptr);
    XlateCache cache(8);
    // Clean prefetch: issue, fill, hit.
    const std::uint64_t t0 = cache.begin_prefetch(vma, 0, 4);
    EXPECT_EQ(cache.pending_prefetches().size(), 1u);
    EXPECT_TRUE(cache.fill_prefetch(t0));
    EXPECT_TRUE(cache.pending_prefetches().empty());
    EXPECT_NE(cache.lookup(vma, 0, 4), nullptr);

    // Shootdown lands between issue and fill: the fill must be
    // dropped — the walk it snapshots may predate the PTE change.
    const std::uint64_t t1 = cache.begin_prefetch(vma, 4, 4);
    EXPECT_EQ(cache.invalidate(vma, 5, 1), 0u);  // kills the pending
    EXPECT_FALSE(cache.fill_prefetch(t1));
    EXPECT_TRUE(cache.pending_prefetches().empty());
    EXPECT_EQ(cache.lookup(vma, 4, 4), nullptr);

    // Non-overlapping invalidations leave a pending alive.
    const std::uint64_t t2 = cache.begin_prefetch(vma, 4, 2);
    cache.invalidate(vma, 0, 2);
    EXPECT_TRUE(cache.fill_prefetch(t2));
    EXPECT_NE(cache.lookup(vma, 4, 2), nullptr);

    // Unknown / already-consumed tokens are rejected.
    EXPECT_FALSE(cache.fill_prefetch(t2));
    EXPECT_FALSE(cache.fill_prefetch(987654u));

    // A cancel cleanly retires a pending without recording it.
    const std::uint64_t t3 = cache.begin_prefetch(vma, 0, 2);
    cache.cancel_prefetch(t3);
    EXPECT_TRUE(cache.pending_prefetches().empty());
    EXPECT_EQ(cache.lookup(vma, 0, 2), nullptr);
    EXPECT_FALSE(cache.fill_prefetch(t3));
}

TEST(XlatePrefetch, RecordSnapshotsLivePtesAndEvictsTheLru)
{
    Fixture f;  // only used to mint a real Vma
    const vm::VAddr base = f.proc.mmap(8 * 4096, vm::PageSize::k4K);
    vm::Vma *vma = f.proc.as().find_vma(base);
    ASSERT_NE(vma, nullptr);
    XlateCache cache(2);
    cache.record(vma, 0, 4);
    const XlateCache::Entry *e = cache.lookup(vma, 0, 4);
    ASSERT_NE(e, nullptr);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(e->ptes[i].pack(), vma->pte(i).pack());

    // Re-recording a key replaces the entry in place with the PTEs
    // live now.
    vm::Pte p = vma->pte(1);
    p.young = !p.young;
    vma->pte_slot(1).store(p.pack());
    cache.record(vma, 0, 2);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.lookup(vma, 0, 4), nullptr);
    e = cache.lookup(vma, 0, 2);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->ptes[1].pack(), p.pack());

    // A full cache evicts the least recently used entry.
    cache.record(vma, 4, 2);
    EXPECT_NE(cache.lookup(vma, 0, 2), nullptr);  // {0} now the newer
    cache.record(vma, 6, 2);
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.lookup(vma, 4, 2), nullptr);
    EXPECT_NE(cache.lookup(vma, 0, 2), nullptr);
    EXPECT_NE(cache.lookup(vma, 6, 2), nullptr);
    cache.record(vma, 2, 0);  // an empty run records nothing
    EXPECT_EQ(cache.size(), 2u);
}

// ---------------------------------------------------------------------
// SVA-routed replication: correctness and prefetch-overlap accounting.
// ---------------------------------------------------------------------

TEST(MmuAware, SvaReplicationStreamsCorrectBytes)
{
    Fixture f(uncoalesced_mmu_aware());
    const std::uint32_t pages = 64;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 42);

    const std::uint32_t idx = f.replicate(src, pages, dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 42));
    const DeviceStats &ds = f.dev.stats();
    // Every slot went through the gate and resolved live.
    EXPECT_EQ(ds.sva_resolved, pages);
    EXPECT_EQ(ds.sva_faults, 0u);
    // The whole stream was prefetched; the bulk of it landed before
    // the consumer got there (first window is synchronous, later
    // batches walk ~16x faster than the 4 KB copies stream).
    EXPECT_EQ(ds.stream_prefetch_issued, pages);
    EXPECT_GE(ds.stream_prefetch_hits, pages / 2);
    EXPECT_EQ(ds.stream_prefetch_hits + ds.stream_prefetch_late +
                  ds.stream_prefetch_wasted,
              pages);
    EXPECT_EQ(f.kernel.dma_engine().stats().gated_transfers, 1u);
}

TEST(MmuAware, ShootdownStormNeverCorruptsTheStream)
{
    Fixture f(uncoalesced_mmu_aware());
    const std::uint32_t pages = 64;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 77);

    // Race a TLB-shootdown storm over the source while the SVA stream
    // is consuming it: invalidations land between prefetch issue and
    // fill (fills dropped by the generation check) and between fill
    // and consumption (prefetched entries wasted, demand re-walks).
    const std::uint32_t idx = f.replicate(src, pages, dst);
    auto storm = [&]() -> sim::Task {
        const vm::Vma &vma = *f.proc.as().find_vma(src);
        for (std::uint32_t i = 0; i < 128; ++i) {
            f.proc.as().flush_tlb_page(vma,
                                       vma.page_index(src) + i % pages);
            co_await sim::Delay{f.kernel.eq(), 400};
        }
    };
    f.kernel.spawn(storm());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 77));
    const DeviceStats &ds = f.dev.stats();
    // The storm must have been seen: dead fills dropped, and at least
    // some survivors invalidated before consumption forced re-walks.
    EXPECT_GE(ds.prefetch_fills_dropped, 1u);
    EXPECT_GE(ds.stream_prefetch_wasted + ds.sva_demand_walks, 1u);
    EXPECT_EQ(ds.sva_faults, 0u);
}

TEST(MmuAware, RetriedChainRevalidatesPrefetchedTranslations)
{
    Fixture f(uncoalesced_mmu_aware());
    const std::uint32_t pages = 32;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 9);
    f.faults().arm_nth(dma::kFaultTcError, 1);

    const std::uint32_t idx = f.replicate(src, pages, dst);
    f.kernel.run();

    // The errored first attempt is restarted through the ladder; the
    // restart re-resolved every slot from the live tables (nothing
    // moved, so no rewrite was needed) and streamed clean.
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 9));
    EXPECT_EQ(f.dev.stats().dma_retries, 1u);
    EXPECT_EQ(f.dev.stats().sva_retranslated, 0u);
    EXPECT_EQ(f.dev.stats().sva_faults, 0u);
}

TEST(MmuAware, SvaWalkFaultMidChainRecoversThroughTheLadder)
{
    Fixture f(uncoalesced_mmu_aware());
    const std::uint32_t pages = 32;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 31);
    // The 8th descriptor's IOMMU walk faults mid-stream; the retried
    // chain walks clean and completes.
    f.faults().arm_nth(kFaultSvaWalk, 8);

    const std::uint32_t idx = f.replicate(src, pages, dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 31));
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.sva_faults, 1u);
    EXPECT_EQ(ds.dma_retries, 1u);
    EXPECT_EQ(f.kernel.dma_engine().stats().gate_faults, 1u);
}

TEST(MmuAware, SvaWalkFaultSurfacesAsXlateFaultWithoutTheLadder)
{
    MemifConfig cfg = uncoalesced_mmu_aware();
    cfg.cpu_copy_fallback = false;
    cfg.dma_max_retries = 0;
    Fixture f(cfg);
    const std::uint32_t pages = 16;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 3);
    f.fill(dst, pages * 4096, 99);  // pre-existing destination content
    f.faults().arm_nth(kFaultSvaWalk, 1);  // first descriptor faults

    const std::uint32_t idx = f.replicate(src, pages, dst);
    f.kernel.run();

    // With the ladder disarmed the fault is terminal and carries its
    // own error code; the fault hit descriptor 0, so not a byte moved.
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.user.request(idx).error, MovError::kXlateFault);
    EXPECT_TRUE(f.check(dst, pages * 4096, 99));
    EXPECT_EQ(f.dev.stats().sva_faults, 1u);
}

TEST(MmuAware, PolledSvaStreamCompletes)
{
    MemifConfig cfg = uncoalesced_mmu_aware();
    cfg.adaptive_polling = false;    // static rule: small => polled
    cfg.multi_tc_dispatch = false;   // (multi-TC keeps everything irq)
    Fixture f(cfg);
    const std::uint32_t pages = 32;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 58);

    // The kicked first request is irq-driven; the second small one
    // (64 KB, below the poll threshold) is served by the kernel
    // thread in polled mode.
    std::uint32_t idx0 = kNoRequest, idx1 = kNoRequest;
    auto app = [&]() -> sim::Task {
        for (int r = 0; r < 2; ++r) {
            const std::uint32_t idx = f.user.alloc_request();
            MovReq &req = f.user.request(idx);
            req.op = MovOp::kReplicate;
            req.src_base = src + static_cast<vm::VAddr>(r) * 16 * 4096;
            req.dst_base = dst + static_cast<vm::VAddr>(r) * 16 * 4096;
            req.num_pages = 16;
            (r == 0 ? idx0 : idx1) = idx;
            co_await f.user.submit(idx);
        }
    };
    f.kernel.spawn(app());
    f.kernel.run();

    // The kernel thread's polled wait tolerates gate stalls pushing
    // the completion estimate: it re-sleeps instead of declaring the
    // transfer stuck.
    EXPECT_EQ(f.user.request(idx0).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.user.request(idx1).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 58));
    EXPECT_EQ(f.dev.stats().polled_completions, 1u);
    EXPECT_EQ(f.dev.stats().watchdog_timeouts, 0u);
    EXPECT_EQ(f.kernel.dma_engine().stats().gated_transfers, 2u);
}

TEST(MmuAware, LeversOffStaysOnThePrePinnedPath)
{
    // tenanted() differs from mmu_aware() only by the two new levers:
    // with them off, no transfer is gated and no prefetch machinery
    // runs — the pre-pinned contract of PR 1-6 is untouched.
    Fixture f(MemifConfig::tenanted());
    const std::uint32_t pages = 32;
    const vm::VAddr src = f.proc.mmap(pages * 4096, vm::PageSize::k4K);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(src, pages * 4096, 12);

    const std::uint32_t idx = f.replicate(src, pages, dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 12));
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.stream_prefetch_issued, 0u);
    EXPECT_EQ(ds.sva_resolved, 0u);
    EXPECT_EQ(f.kernel.dma_engine().stats().gated_transfers, 0u);
}

}  // namespace
}  // namespace memif::core
