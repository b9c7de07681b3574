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
#include "memif/xlate_cache.h"
#include "memif_fixture.h"
#include "os/page_migration.h"
#include "sim/task.h"
#include "sim/types.h"

namespace memif::core {
namespace {

using Fixture = test::MemifFixture;

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
    Fixture f(MemifConfig::mmu_aware());  // only mints a real Vma
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
    Fixture f(MemifConfig::mmu_aware());  // only mints a real Vma
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
    const vm::VAddr src = f.region(pages * 4096, 42);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());

    const std::uint32_t idx = f.submit(MovOp::kReplicate, src, pages, dst);
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
    const vm::VAddr src = f.region(pages * 4096, 77);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());

    // Race a TLB-shootdown storm over the source while the SVA stream
    // is consuming it: invalidations land between prefetch issue and
    // fill (fills dropped by the generation check) and between fill
    // and consumption (prefetched entries wasted, demand re-walks).
    const std::uint32_t idx = f.submit(MovOp::kReplicate, src, pages, dst);
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
    const vm::VAddr src = f.region(pages * 4096, 9);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.faults().arm_nth(dma::kFaultTcError, 1);

    const std::uint32_t idx = f.submit(MovOp::kReplicate, src, pages, dst);
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
    const vm::VAddr src = f.region(pages * 4096, 31);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    // The 8th descriptor's IOMMU walk faults mid-stream; the retried
    // chain walks clean and completes.
    f.faults().arm_nth(kFaultSvaWalk, 8);

    const std::uint32_t idx = f.submit(MovOp::kReplicate, src, pages, dst);
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
    const vm::VAddr src = f.region(pages * 4096, 3);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());
    f.fill(dst, pages * 4096, 99);  // pre-existing destination content
    f.faults().arm_nth(kFaultSvaWalk, 1);  // first descriptor faults

    const std::uint32_t idx = f.submit(MovOp::kReplicate, src, pages, dst);
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
    cfg.irq_moderation = false;      // static rule: small => polled
    cfg.multi_tc_dispatch = false;   // (multi-TC keeps everything irq)
    Fixture f(cfg);
    const std::uint32_t pages = 32;
    const vm::VAddr src = f.region(pages * 4096, 58);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());

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
    const vm::VAddr src = f.region(pages * 4096, 12);
    const vm::VAddr dst = f.proc.mmap(pages * 4096, vm::PageSize::k4K,
                                      f.kernel.fast_node());

    const std::uint32_t idx = f.submit(MovOp::kReplicate, src, pages, dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, pages * 4096, 12));
    const DeviceStats &ds = f.dev.stats();
    EXPECT_EQ(ds.stream_prefetch_issued, 0u);
    EXPECT_EQ(ds.sva_resolved, 0u);
    EXPECT_EQ(f.kernel.dma_engine().stats().gated_transfers, 0u);
}

// ---------------------------------------------------------------------
// A stream's translations moving under it: the gate's retranslation,
// its late-prefetch stall, and a retry's revalidation. Bytes stay exact.
// ---------------------------------------------------------------------

/** Submit a 64-page SVA replication of pattern @p seed to the fast
 *  node; @p src and @p dst get its two regions. */
std::uint32_t
sva_stream(Fixture &f, std::uint8_t seed, vm::VAddr *src, vm::VAddr *dst)
{
    *src = f.region(64 * 4096, seed);
    *dst = f.proc.mmap(64 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    return f.submit(MovOp::kReplicate, *src, 64, *dst);
}

/** At @p when, the Linux baseline moves @p n source pages from @p page
 *  on to the fast node, under the stream's feet. */
void
baseline_move_at(Fixture &f, sim::SimTime when, vm::VAddr src,
                 std::uint64_t page, std::uint64_t n, os::MigrationResult *res)
{
    auto move = [&f, src, page, n, res]() -> sim::Task {
        co_await os::migrate_pages_sync(f.proc, src + page * 4096, n,
                                        f.kernel.fast_node(), res);
    };
    f.kernel.eq().schedule_at(when, [&f, move] { f.kernel.spawn(move()); });
}

TEST(MmuAware, GateRetranslatesPagesMovedMidStream)
{
    vm::VAddr src = 0, dst = 0;
    const test::DmaWindow w = test::dma_window(
        [&](Fixture &c) { return sva_stream(c, 61, &src, &dst); },
        uncoalesced_mmu_aware());
    Fixture f(uncoalesced_mmu_aware());
    const std::uint32_t idx = sva_stream(f, 61, &src, &dst);
    // The stream's last four pages move while its first ones copy: the
    // descriptors programmed at Prep name their old frames, and the
    // gate rewrites each from the live tables when the TC gets there.
    os::MigrationResult res;
    baseline_move_at(f, w.start, src, 60, 4, &res);
    f.kernel.run();

    EXPECT_EQ(res.pages_moved, 4u);
    EXPECT_LT(res.completed_at, w.complete);
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 64 * 4096, 61));
    EXPECT_TRUE(f.check(src, 64 * 4096, 61));
    EXPECT_EQ(f.dev.stats().sva_retranslated, 4u);
    EXPECT_EQ(f.dev.stats().dma_retries, 0u);
}

TEST(MmuAware, RetryRevalidatesPagesMovedDuringTheFailedAttempt)
{
    vm::VAddr src = 0, dst = 0;
    const test::DmaWindow w = test::dma_window(
        [&](Fixture &c) { return sva_stream(c, 62, &src, &dst); },
        uncoalesced_mmu_aware());
    Fixture f(uncoalesced_mmu_aware());
    f.faults().arm_nth(dma::kFaultTcError, 1);
    const std::uint32_t idx = sva_stream(f, 62, &src, &dst);
    // An errored attempt never steps its chain, so the gate sees none
    // of it; the four pages that move meanwhile are rewritten in the
    // SG list by the retry's revalidation, before its chain is built.
    os::MigrationResult res;
    baseline_move_at(f, w.start, src, 0, 4, &res);
    f.kernel.run();

    EXPECT_EQ(res.pages_moved, 4u);
    EXPECT_LT(res.completed_at, w.complete);
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 64 * 4096, 62));
    EXPECT_EQ(f.dev.stats().dma_errors, 1u);
    EXPECT_EQ(f.dev.stats().dma_retries, 1u);
    EXPECT_EQ(f.dev.stats().sva_retranslated, 4u);
}

TEST(MmuAware, SlowWalkerStallsTheStreamWithoutLosingBytes)
{
    // A page walk forty times slower than the default: the TC streams
    // each 4 KB entry faster than the prefetcher walks it, so the
    // stream catches up with the walker and stalls until it lands.
    os::KernelConfig kc;
    kc.costs.page_walk_adjacent *= 40;
    Fixture f(uncoalesced_mmu_aware(), kc);
    vm::VAddr src = 0, dst = 0;
    const std::uint32_t idx = sva_stream(f, 63, &src, &dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 64 * 4096, 63));
    const DeviceStats &ds = f.dev.stats();
    const dma::EngineStats &es = f.kernel.dma_engine().stats();
    EXPECT_GE(ds.stream_prefetch_late, 1u);
    EXPECT_GE(es.gate_stalls, ds.stream_prefetch_late);
    EXPECT_GE(es.gate_stall_time, ds.consumer_stall_time);
    EXPECT_GT(ds.consumer_stall_time, 0u);
}

}  // namespace
}  // namespace memif::core
