/**
 * @file
 * Tests of the three §5.2 race policies under a CPU access that lands
 * mid-migration: proceed-and-fail (detect), proceed-and-recover, and
 * Linux-style prevention, which the Linux baseline itself respects.
 */
#include <gtest/gtest.h>

#include <string>

#include "memif/device.h"
#include "memif_fixture.h"
#include "os/page_migration.h"
#include "sim/types.h"

namespace memif::core {
namespace {

using test::MemifFixture;

MemifConfig
race_config(RacePolicy policy)
{
    return MemifConfig{.capacity = 64, .race_policy = policy};
}

/** A 64-page migration of a region filled with pattern 7; the racing
 *  tests touch page 10 in the middle of its copy. */
std::uint32_t
migrate_64(MemifFixture &f)
{
    const vm::VAddr base = f.region(64 * 4096, 7);
    return f.submit(MovOp::kMigrate, base, 64, f.kernel.fast_node());
}

/** The middle of migrate_64's DMA window under @p policy. */
sim::SimTime
mid_copy(RacePolicy policy)
{
    return test::dma_window(migrate_64, race_config(policy)).mid();
}

TEST(RaceDetect, TouchDuringDmaFailsTheRequest)
{
    const sim::SimTime mid = mid_copy(RacePolicy::kDetect);
    MemifFixture f(race_config(RacePolicy::kDetect));
    const std::uint32_t idx = migrate_64(f);
    const vm::VAddr base = f.user.request(idx).src_base;

    os::TouchOutcome out;
    f.touch_at(mid, f.proc, base + 10 * 4096, true, &out);
    f.kernel.run();

    ASSERT_EQ(f.user.retrieve_completed(), idx);
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kRaceDetected);
    EXPECT_EQ(f.user.request(idx).error, MovError::kRace);
    EXPECT_EQ(f.dev.stats().races_detected, 1u);
    // The toucher was never blocked: that is the whole point of
    // detection over prevention.
    EXPECT_EQ(out.blocked, 0u);
}

TEST(RaceDetect, NoTouchNoRace)
{
    MemifFixture f(race_config(RacePolicy::kDetect));
    const vm::VAddr base = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
    const std::uint32_t idx =
        f.submit(MovOp::kMigrate, base, 64, f.kernel.fast_node());
    f.kernel.run();
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.dev.stats().races_detected, 0u);
}

TEST(RaceDetect, TouchAfterCompletionIsFine)
{
    MemifFixture f(race_config(RacePolicy::kDetect));
    const vm::VAddr base = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    const std::uint32_t idx =
        f.submit(MovOp::kMigrate, base, 16, f.kernel.fast_node());
    f.kernel.run();  // completes fully
    os::TouchOutcome out;
    f.touch_at(f.kernel.eq().now(), f.proc, base, true, &out);
    f.kernel.run();
    EXPECT_EQ(out.result, vm::AccessResult::kOk);
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
}

TEST(RaceRecover, TouchAbortsAndRestoresOldMapping)
{
    const sim::SimTime mid = mid_copy(RacePolicy::kRecover);
    MemifFixture f(race_config(RacePolicy::kRecover));
    const std::uint64_t fast_free =
        f.kernel.phys().node(f.kernel.fast_node()).free_frames();
    const std::uint32_t idx = migrate_64(f);
    const vm::VAddr base = f.user.request(idx).src_base;

    os::TouchOutcome out;
    f.touch_at(mid, f.proc, base + 10 * 4096, true, &out);
    f.kernel.run();

    ASSERT_EQ(f.user.retrieve_completed(), idx);
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kAborted);
    EXPECT_EQ(f.user.request(idx).error, MovError::kAborted);
    EXPECT_EQ(f.dev.stats().migrations_aborted, 1u);
    // Old mapping restored: everything still on the slow node, every
    // new page returned, data intact.
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(f.node_of_page(base, i), f.kernel.slow_node());
    EXPECT_EQ(f.kernel.phys().node(f.kernel.fast_node()).free_frames(),
              fast_free);
    EXPECT_TRUE(f.check(base, 64 * 4096, 7));
    // The access itself proceeded on the old page without blocking.
    EXPECT_EQ(out.blocked, 0u);
}

TEST(RaceRecover, CleanMigrationStillSucceeds)
{
    MemifFixture f(race_config(RacePolicy::kRecover));
    const vm::VAddr base = f.proc.mmap(32 * 4096, vm::PageSize::k4K);
    const std::uint32_t idx =
        f.submit(MovOp::kMigrate, base, 32, f.kernel.fast_node());
    f.kernel.run();
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.dev.stats().migrations_aborted, 0u);
}

TEST(RacePrevent, TouchBlocksUntilRelease)
{
    const sim::SimTime mid = mid_copy(RacePolicy::kPrevent);
    MemifFixture f(race_config(RacePolicy::kPrevent));
    const std::uint32_t idx = migrate_64(f);
    const vm::VAddr base = f.user.request(idx).src_base;

    os::TouchOutcome out;
    sim::SimTime touched_at = 0;
    f.touch_at(mid, f.proc, base + 10 * 4096, true, &out, &touched_at);
    f.kernel.run();

    EXPECT_NE(touched_at, 0u);  // the access finished
    EXPECT_GE(out.blocked, 1u);  // parked on the migration PTE
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    // The accessor is released at the Release step, which precedes the
    // Notify step by at most the notification cost.
    EXPECT_GE(touched_at + f.kernel.costs().queue_op,
              f.user.request(idx).complete_time);
    EXPECT_GT(touched_at, mid);
    EXPECT_EQ(f.dev.stats().races_detected, 0u);
}

TEST(RacePrevent, BaselineMigrationLeavesAMemifFlightsPagesAlone)
{
    // Mid-flight, prevention holds the request's pages behind migration
    // PTEs. The Linux baseline arriving then must report them busy, not
    // move (and free) the frames the flight will free at Release.
    const sim::SimTime mid = mid_copy(RacePolicy::kPrevent);
    MemifFixture f(race_config(RacePolicy::kPrevent));
    const std::uint32_t idx = migrate_64(f);
    const vm::VAddr base = f.user.request(idx).src_base;
    const std::uint64_t outstanding = f.kernel.phys().outstanding_pages();

    vm::Vma *vma = f.proc.as().find_vma(base);
    bool held = false;
    os::MigrationResult res;
    auto baseline = [&]() -> sim::Task {
        held = vma->pte(10).migration;
        co_await os::migrate_pages_sync(f.proc, base, 64,
                                        f.kernel.fast_node(), &res);
    };
    f.kernel.eq().schedule_at(mid, [&] { f.kernel.spawn(baseline()); });
    f.kernel.run();

    EXPECT_TRUE(held);
    EXPECT_EQ(res.pages_moved, 0u);
    EXPECT_EQ(res.pages_failed, 64u);
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    std::string why;
    EXPECT_TRUE(f.dev.check_quiesced(&why)) << why;
    EXPECT_EQ(f.kernel.phys().outstanding_pages(),
              outstanding + f.dev.magazine_pages());
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(f.node_of_page(base, i), f.kernel.fast_node());
    EXPECT_TRUE(f.check(base, 64 * 4096, 7));
}

TEST(RacePrevent, ReleaseRunsInKernelThreadNotIrq)
{
    // The structural consequence of prevention (§5.2/§5.4): Release may
    // not run in the interrupt handler, so the irq defers to the
    // kthread. Detection has no such deferral.
    MemifFixture prevent(race_config(RacePolicy::kPrevent));
    {
        const vm::VAddr base =
            prevent.proc.mmap(170 * 4096, vm::PageSize::k4K);
        // > 512 KB: irq-driven
        prevent.submit(MovOp::kMigrate, base, 170,
                       prevent.kernel.fast_node());
        prevent.kernel.run();
        const auto &acct = prevent.kernel.cpu().accounting();
        // All Release work happened in kthread context.
        EXPECT_EQ(acct.context(sim::ExecContext::kIrq),
                  prevent.kernel.costs().irq_overhead +
                      prevent.kernel.costs().kthread_wakeup);
    }
    MemifFixture detect(race_config(RacePolicy::kDetect));
    {
        const vm::VAddr base =
            detect.proc.mmap(170 * 4096, vm::PageSize::k4K);
        detect.submit(MovOp::kMigrate, base, 170, detect.kernel.fast_node());
        detect.kernel.run();
        const auto &acct = detect.kernel.cpu().accounting();
        // Release ran inside the interrupt handler: irq context time
        // far exceeds the bare overhead.
        EXPECT_GT(acct.context(sim::ExecContext::kIrq),
                  2 * (detect.kernel.costs().irq_overhead +
                       detect.kernel.costs().kthread_wakeup));
    }
}

TEST(RacePrevent, CostsMoreTlbFlushesThanDetect)
{
    auto run = [](RacePolicy policy) -> std::uint64_t {
        MemifFixture f(race_config(policy));
        const vm::VAddr base = f.proc.mmap(32 * 4096, vm::PageSize::k4K);
        f.submit(MovOp::kMigrate, base, 32, f.kernel.fast_node());
        f.kernel.run();
        return f.proc.as().stats().tlb_page_flushes;
    };
    // Prevention flushes at Remap AND Release; detection only at Remap
    // (the semi-final PTE never enters the TLB).
    EXPECT_EQ(run(RacePolicy::kPrevent), 64u);
    EXPECT_EQ(run(RacePolicy::kDetect), 32u);
}

}  // namespace
}  // namespace memif::core
