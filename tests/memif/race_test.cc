/**
 * @file
 * Tests of the three §5.2 race policies under a CPU access that lands
 * mid-migration: proceed-and-fail (detect), proceed-and-recover, and
 * Linux-style prevention, which the Linux baseline itself respects.
 */
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "memif/device.h"
#include "memif/user_api.h"
#include "os/kernel.h"
#include "os/page_migration.h"
#include "os/process.h"
#include "sim/types.h"

namespace memif::core {
namespace {

struct Fixture {
    os::Kernel kernel;
    os::Process &proc;
    MemifDevice dev;
    MemifUser user;

    explicit Fixture(RacePolicy policy)
        : proc(kernel.create_process()),
          dev(kernel, proc,
              MemifConfig{.capacity = 64,
                          .gang_lookup = true,
                          .race_policy = policy,
                          .poll_threshold_bytes = 512 * 1024}),
          user(dev)
    {
    }

    ~Fixture()
    {
        // Every test must hand the driver back fully quiesced: no
        // in-flight records, leased descriptors, stuck slots, parked
        // frames unaccounted for, or stale xlate entries. Tests that
        // intentionally end mid-flight opt out via the flag.
        if (!check_quiesce_on_teardown) return;
        std::string why;
        EXPECT_TRUE(dev.check_quiesced(&why)) << "teardown: " << why;
    }

    /** Opt-out for tests that deliberately leave work in flight. */
    bool check_quiesce_on_teardown = true;

    std::uint32_t
    submit_migration(vm::VAddr src, std::uint32_t npages)
    {
        const std::uint32_t idx = user.alloc_request();
        MovReq &req = user.request(idx);
        req.op = MovOp::kMigrate;
        req.src_base = src;
        req.num_pages = npages;
        req.dst_node = kernel.fast_node();
        kernel.spawn(user.submit(idx));
        return idx;
    }
};

/** Pick a touch time that lands inside the DMA window of a 64-page
 *  migration (remap of 64 pages alone takes ~200 us). */
constexpr sim::SimTime kMidFlight = sim::microseconds(300);

TEST(RaceDetect, TouchDuringDmaFailsTheRequest)
{
    Fixture f(RacePolicy::kDetect);
    const vm::VAddr base = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
    const std::uint32_t idx = f.submit_migration(base, 64);

    os::TouchOutcome out;
    // NB: the coroutine lambda must outlive its frames, so it lives at
    // test scope and the scheduled callback only spawns it.
    auto toucher = [&]() -> sim::Task {
        co_await f.proc.touch(base + 10 * 4096, true, &out);
    };
    f.kernel.eq().schedule_at(kMidFlight,
                              [&] { f.kernel.spawn(toucher()); });
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
    Fixture f(RacePolicy::kDetect);
    const vm::VAddr base = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
    const std::uint32_t idx = f.submit_migration(base, 64);
    f.kernel.run();
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.dev.stats().races_detected, 0u);
}

TEST(RaceDetect, TouchAfterCompletionIsFine)
{
    Fixture f(RacePolicy::kDetect);
    const vm::VAddr base = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    const std::uint32_t idx = f.submit_migration(base, 16);
    f.kernel.run();  // completes fully
    os::TouchOutcome out;
    auto toucher = [&]() -> sim::Task {
        co_await f.proc.touch(base, true, &out);
    };
    f.kernel.spawn(toucher());
    f.kernel.run();
    EXPECT_EQ(out.result, vm::AccessResult::kOk);
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
}

TEST(RaceRecover, TouchAbortsAndRestoresOldMapping)
{
    Fixture f(RacePolicy::kRecover);
    const vm::VAddr base = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
    std::vector<std::uint8_t> pattern(64 * 4096);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 7);
    ASSERT_TRUE(f.proc.as().write(base, pattern.data(), pattern.size()));

    const std::uint64_t fast_free =
        f.kernel.phys().node(f.kernel.fast_node()).free_frames();
    const std::uint32_t idx = f.submit_migration(base, 64);

    os::TouchOutcome out;
    // NB: the coroutine lambda must outlive its frames, so it lives at
    // test scope and the scheduled callback only spawns it.
    auto toucher = [&]() -> sim::Task {
        co_await f.proc.touch(base + 10 * 4096, true, &out);
    };
    f.kernel.eq().schedule_at(kMidFlight,
                              [&] { f.kernel.spawn(toucher()); });
    f.kernel.run();

    ASSERT_EQ(f.user.retrieve_completed(), idx);
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kAborted);
    EXPECT_EQ(f.user.request(idx).error, MovError::kAborted);
    EXPECT_EQ(f.dev.stats().migrations_aborted, 1u);
    // Old mapping restored: everything still on the slow node, every
    // new page returned, data intact.
    vm::Vma *vma = f.proc.as().find_vma(base);
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(f.kernel.phys().node_of(vma->pte(i).pfn),
                  f.kernel.slow_node());
    EXPECT_EQ(f.kernel.phys().node(f.kernel.fast_node()).free_frames(),
              fast_free);
    std::vector<std::uint8_t> readback(pattern.size());
    ASSERT_TRUE(f.proc.as().read(base, readback.data(), readback.size()));
    EXPECT_EQ(readback, pattern);
    // The access itself proceeded on the old page without blocking.
    EXPECT_EQ(out.blocked, 0u);
}

TEST(RaceRecover, CleanMigrationStillSucceeds)
{
    Fixture f(RacePolicy::kRecover);
    const vm::VAddr base = f.proc.mmap(32 * 4096, vm::PageSize::k4K);
    const std::uint32_t idx = f.submit_migration(base, 32);
    f.kernel.run();
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.dev.stats().migrations_aborted, 0u);
}

TEST(RacePrevent, TouchBlocksUntilRelease)
{
    Fixture f(RacePolicy::kPrevent);
    const vm::VAddr base = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
    const std::uint32_t idx = f.submit_migration(base, 64);

    os::TouchOutcome out;
    bool touched = false;
    sim::SimTime touched_at = 0;
    auto toucher = [&]() -> sim::Task {
        co_await f.proc.touch(base + 10 * 4096, true, &out);
        touched = true;
        touched_at = f.kernel.eq().now();
    };
    f.kernel.eq().schedule_at(kMidFlight,
                              [&] { f.kernel.spawn(toucher()); });
    f.kernel.run();

    EXPECT_TRUE(touched);
    EXPECT_GE(out.blocked, 1u);  // parked on the migration PTE
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    // The accessor is released at the Release step, which precedes the
    // Notify step by at most the notification cost.
    EXPECT_GE(touched_at + f.kernel.costs().queue_op,
              f.user.request(idx).complete_time);
    EXPECT_GT(touched_at, kMidFlight);
    EXPECT_EQ(f.dev.stats().races_detected, 0u);
}

TEST(RacePrevent, BaselineMigrationLeavesAMemifFlightsPagesAlone)
{
    // Mid-flight, prevention holds the request's pages behind migration
    // PTEs. The Linux baseline arriving then must report them busy, not
    // move (and free) the frames the flight will free at Release.
    Fixture f(RacePolicy::kPrevent);
    const vm::VAddr base = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
    std::vector<std::uint8_t> pattern(64 * 4096);
    for (std::size_t i = 0; i < pattern.size(); ++i)
        pattern[i] = static_cast<std::uint8_t>(i * 7);
    ASSERT_TRUE(f.proc.as().write(base, pattern.data(), pattern.size()));
    const std::uint64_t outstanding = f.kernel.phys().outstanding_pages();
    const std::uint32_t idx = f.submit_migration(base, 64);

    vm::Vma *vma = f.proc.as().find_vma(base);
    bool held = false;
    os::MigrationResult res;
    auto baseline = [&]() -> sim::Task {
        held = vma->pte(10).migration;
        co_await os::migrate_pages_sync(f.proc, base, 64,
                                        f.kernel.fast_node(), &res);
    };
    f.kernel.eq().schedule_at(kMidFlight,
                              [&] { f.kernel.spawn(baseline()); });
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
        EXPECT_EQ(f.kernel.phys().node_of(vma->pte(i).pfn),
                  f.kernel.fast_node());
    std::vector<std::uint8_t> readback(pattern.size());
    ASSERT_TRUE(f.proc.as().read(base, readback.data(), readback.size()));
    EXPECT_EQ(readback, pattern);
}

TEST(RacePrevent, ReleaseRunsInKernelThreadNotIrq)
{
    // The structural consequence of prevention (§5.2/§5.4): Release may
    // not run in the interrupt handler, so the irq defers to the
    // kthread. Detection has no such deferral.
    Fixture prevent(RacePolicy::kPrevent);
    {
        const vm::VAddr base =
            prevent.proc.mmap(170 * 4096, vm::PageSize::k4K);
        prevent.submit_migration(base, 170);  // > 512 KB: irq-driven
        prevent.kernel.run();
        const auto &acct = prevent.kernel.cpu().accounting();
        // All Release work happened in kthread context.
        EXPECT_EQ(acct.context(sim::ExecContext::kIrq),
                  prevent.kernel.costs().irq_overhead +
                      prevent.kernel.costs().kthread_wakeup);
    }
    Fixture detect(RacePolicy::kDetect);
    {
        const vm::VAddr base =
            detect.proc.mmap(170 * 4096, vm::PageSize::k4K);
        detect.submit_migration(base, 170);
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
        Fixture f(policy);
        const vm::VAddr base = f.proc.mmap(32 * 4096, vm::PageSize::k4K);
        f.submit_migration(base, 32);
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
