/**
 * @file
 * Tests for lazy migration (the Goglin-style related work of §7):
 * arming is cheap, the first touch pays the move, untouched pages
 * never move, and the paper's critique holds — total cost matches
 * eager migration, it is merely deferred. Faults that race on one
 * page, and a fault on a page shared after arming, move nothing twice.
 */
#include <gtest/gtest.h>

#include "os/kernel.h"
#include "os/page_migration.h"
#include "os/process.h"
#include "sim/types.h"

namespace memif::os {
namespace {

TEST(LazyMigration, ArmingIsCheapAndMovesNothing)
{
    Kernel k;
    Process &p = k.create_process();
    const vm::VAddr base = p.mmap(64 * 4096, vm::PageSize::k4K);

    const sim::SimTime t0 = k.eq().now();
    MigrationResult res;
    k.spawn(mbind_lazy(p, base, 64, k.fast_node(), &res));
    k.run();
    EXPECT_EQ(res.pages_moved, 64u);  // armed
    // Marking 64 pages: ~2 us each, far below the ~15 us migration.
    EXPECT_LT(sim::to_us(k.eq().now() - t0), 64 * 5.0);
    // Nothing moved yet.
    vm::Vma *vma = p.as().find_vma(base);
    for (std::uint64_t i = 0; i < 64; ++i) {
        EXPECT_TRUE(vma->pte(i).lazy);
        EXPECT_EQ(k.phys().node_of(vma->pte(i).pfn), k.slow_node());
    }
}

TEST(LazyMigration, HoleFailsOnlyItsOwnPages)
{
    // 4 mapped pages, a 4-page hole, 4 more mapped pages: arming steps
    // over the hole, so the 8 mapped pages are armed.
    Kernel k;
    Process &p = k.create_process();
    const vm::VAddr base = p.mmap(4 * 4096, vm::PageSize::k4K);
    const vm::VAddr hole = p.mmap(4 * 4096, vm::PageSize::k4K);
    const vm::VAddr tail = p.mmap(4 * 4096, vm::PageSize::k4K);
    ASSERT_EQ(hole, base + 4 * 4096);
    ASSERT_EQ(tail, base + 8 * 4096);
    p.as().munmap(hole);

    MigrationResult res;
    k.spawn(mbind_lazy(p, base, 12, k.fast_node(), &res));
    k.run();
    EXPECT_EQ(res.pages_moved, 8u);  // armed
    EXPECT_EQ(res.pages_failed, 4u);
    for (const vm::VAddr run : {base, tail}) {
        const vm::Vma *vma = p.as().find_vma(run);
        for (std::uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(vma->pte(i).lazy);
    }
}

TEST(LazyMigration, FirstTouchMigratesThatPageOnly)
{
    Kernel k;
    Process &p = k.create_process();
    const vm::VAddr base = p.mmap(8 * 4096, vm::PageSize::k4K);
    const std::uint32_t marker = 0xFACE;
    p.as().write(base + 3 * 4096, &marker, sizeof(marker));

    MigrationResult res;
    k.spawn(mbind_lazy(p, base, 8, k.fast_node(), &res));
    k.run();

    TouchOutcome out;
    auto toucher = [&]() -> sim::Task {
        co_await p.touch(base + 3 * 4096, true, &out);
    };
    auto t = toucher();
    k.run();
    EXPECT_EQ(out.lazy_migrations, 1u);
    EXPECT_EQ(out.result, vm::AccessResult::kOk);

    vm::Vma *vma = p.as().find_vma(base);
    for (std::uint64_t i = 0; i < 8; ++i) {
        if (i == 3) {
            EXPECT_FALSE(vma->pte(i).lazy);
            EXPECT_EQ(k.phys().node_of(vma->pte(i).pfn), k.fast_node());
        } else {
            EXPECT_TRUE(vma->pte(i).lazy);
            EXPECT_EQ(k.phys().node_of(vma->pte(i).pfn), k.slow_node());
        }
    }
    std::uint32_t got = 0;
    p.as().read(base + 3 * 4096, &got, sizeof(got));
    EXPECT_EQ(got, marker);
}

TEST(LazyMigration, SecondTouchIsFree)
{
    Kernel k;
    Process &p = k.create_process();
    const vm::VAddr base = p.mmap(4096, vm::PageSize::k4K);
    MigrationResult res;
    k.spawn(mbind_lazy(p, base, 1, k.fast_node(), &res));
    k.run();

    TouchOutcome first, second;
    auto coro = [&]() -> sim::Task {
        co_await p.touch(base, false, &first);
        const sim::SimTime mid = k.eq().now();
        co_await p.touch(base, false, &second);
        EXPECT_EQ(k.eq().now(), mid);  // no cost at all
    };
    sim::Task t = coro();
    k.run();
    EXPECT_EQ(first.lazy_migrations, 1u);
    EXPECT_EQ(second.lazy_migrations, 0u);
}

TEST(LazyMigration, ExhaustedTargetDropsMarkerGracefully)
{
    Kernel k;
    Process &p = k.create_process();
    const vm::VAddr hog =
        p.mmap(6ull << 20, vm::PageSize::k4K, k.fast_node());
    ASSERT_NE(hog, 0u);
    const vm::VAddr base = p.mmap(4096, vm::PageSize::k4K);
    MigrationResult res;
    k.spawn(mbind_lazy(p, base, 1, k.fast_node(), &res));
    k.run();

    TouchOutcome out;
    auto coro = [&]() -> sim::Task { co_await p.touch(base, true, &out); };
    sim::Task t = coro();
    k.run();
    EXPECT_EQ(out.result, vm::AccessResult::kOk);
    vm::Vma *vma = p.as().find_vma(base);
    EXPECT_FALSE(vma->pte(0).lazy);  // marker dropped
    EXPECT_EQ(k.phys().node_of(vma->pte(0).pfn), k.slow_node());
}

TEST(LazyMigration, TwoFaultsOnOnePageMoveItOnce)
{
    // Both touches fault before either allocation is charged. The
    // migration PTE goes in by compare-exchange, so the second fault
    // loses, frees its frame, and waits on the first one's migration
    // instead of freeing the old frame a second time.
    Kernel k;
    Process &p = k.create_process();
    const vm::VAddr base = p.mmap(4096, vm::PageSize::k4K);
    const std::uint32_t marker = 0xBEEF;
    p.as().write(base, &marker, sizeof(marker));
    MigrationResult res;
    k.spawn(mbind_lazy(p, base, 1, k.fast_node(), &res));
    k.run();
    ASSERT_EQ(res.pages_moved, 1u);
    const std::uint64_t outstanding = k.phys().outstanding_pages();
    const std::uint64_t fast_free =
        k.phys().node(k.fast_node()).free_frames();

    TouchOutcome first, second;
    auto toucher = [&](TouchOutcome *out) -> sim::Task {
        co_await p.touch(base, false, out);
    };
    sim::Task a = toucher(&first);
    sim::Task b = toucher(&second);
    k.run();

    EXPECT_EQ(first.result, vm::AccessResult::kOk);
    EXPECT_EQ(second.result, vm::AccessResult::kOk);
    EXPECT_EQ(first.lazy_migrations + second.lazy_migrations, 2u);
    EXPECT_GE(first.blocked + second.blocked, 1u);
    const vm::Pte pte = p.as().find_vma(base)->pte(0);
    EXPECT_FALSE(pte.lazy);
    EXPECT_FALSE(pte.migration);
    EXPECT_EQ(k.phys().node_of(pte.pfn), k.fast_node());
    // One frame moved: one fast frame taken, one slow frame freed.
    EXPECT_EQ(k.phys().node(k.fast_node()).free_frames(), fast_free - 1);
    EXPECT_EQ(k.phys().outstanding_pages(), outstanding);
    std::uint32_t got = 0;
    p.as().read(base, &got, sizeof(got));
    EXPECT_EQ(got, marker);
}

TEST(LazyMigration, FaultOnASharedPageLeavesItHome)
{
    // A page armed and then shared: moving it would free a frame the
    // other mapper still maps, so the fault's screen keeps it home and
    // drops the marker. Arming an already shared page is refused.
    Kernel k;
    Process &p = k.create_process();
    Process &q = k.create_process();
    const vm::VAddr base = p.mmap(2 * 4096, vm::PageSize::k4K);
    MigrationResult armed;
    k.spawn(mbind_lazy(p, base, 1, k.fast_node(), &armed));
    k.run();
    ASSERT_EQ(armed.pages_moved, 1u);
    vm::Vma *vma = p.as().find_vma(base);
    const vm::VAddr shared = q.as().mmap_shared(*vma);
    ASSERT_NE(shared, 0u);
    const mem::Pfn pfn = vma->pte(0).pfn;
    const std::uint64_t outstanding = k.phys().outstanding_pages();

    TouchOutcome out;
    auto toucher = [&]() -> sim::Task { co_await p.touch(base, true, &out); };
    sim::Task t = toucher();
    k.run();
    EXPECT_EQ(out.result, vm::AccessResult::kOk);
    EXPECT_EQ(out.lazy_migrations, 1u);
    EXPECT_FALSE(vma->pte(0).lazy);
    EXPECT_EQ(vma->pte(0).pfn, pfn);
    EXPECT_EQ(q.as().find_vma(shared)->pte(0).pfn, pfn);
    EXPECT_EQ(k.phys().frame(pfn).mapcount(), 2u);
    EXPECT_EQ(k.phys().outstanding_pages(), outstanding);

    MigrationResult refused;
    k.spawn(mbind_lazy(p, base + 4096, 1, k.fast_node(), &refused));
    k.run();
    EXPECT_EQ(refused.pages_moved, 0u);
    EXPECT_EQ(refused.pages_failed, 1u);
    EXPECT_FALSE(vma->pte(1).lazy);
}

TEST(LazyMigration, DefersButDoesNotReduceTotalCost)
{
    // The paper's §7 critique, quantified: touching every armed page
    // costs (at least) what one eager migration syscall costs.
    const std::uint64_t npages = 64;

    Kernel eager;
    Process &pe = eager.create_process();
    const vm::VAddr be = pe.mmap(npages * 4096, vm::PageSize::k4K);
    MigrationResult res;
    eager.spawn(migrate_pages_sync(pe, be, npages, eager.fast_node(),
                                   &res));
    eager.run();
    const double eager_cpu_us =
        sim::to_us(eager.cpu().accounting().total);

    Kernel lazy;
    Process &pl = lazy.create_process();
    const vm::VAddr bl = pl.mmap(npages * 4096, vm::PageSize::k4K);
    lazy.spawn(mbind_lazy(pl, bl, npages, lazy.fast_node(), &res));
    lazy.run();
    auto touch_all = [&]() -> sim::Task {
        TouchOutcome out;
        for (std::uint64_t i = 0; i < npages; ++i)
            co_await pl.touch(bl + i * 4096, true, &out);
    };
    auto t = touch_all();
    lazy.run();
    const double lazy_cpu_us = sim::to_us(lazy.cpu().accounting().total);

    // All pages moved in both cases...
    vm::Vma *vma = pl.as().find_vma(bl);
    for (std::uint64_t i = 0; i < npages; ++i)
        EXPECT_EQ(lazy.phys().node_of(vma->pte(i).pfn), lazy.fast_node());
    // ...and laziness did not make it cheaper overall (per-fault traps
    // plus the marking pass actually add a little).
    EXPECT_GE(lazy_cpu_us, eager_cpu_us);
    EXPECT_LT(lazy_cpu_us, 1.6 * eager_cpu_us);
}

}  // namespace
}  // namespace memif::os
