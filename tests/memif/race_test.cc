/**
 * @file
 * Tests of the three §5.2 race policies under a CPU access that lands
 * mid-migration: proceed-and-fail (detect), proceed-and-recover (also
 * while a faulted DMA attempt waits on its recovery ladder), and
 * Linux-style prevention, which the Linux baseline itself respects.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "check/reference_model.h"
#include "dma/engine.h"
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

// A replication whose source run overlaps an in-flight migration must
// not read it: under the semi-final protocol the PTEs already name the
// new frames, which hold no bytes until the migration's copy lands.
// Eight small replications keep the kernel thread awake, so with
// multi-TC dispatch the late replication's copy runs beside the
// migration's instead of queueing behind it on one TC.
class ReplicationOverMigration
    : public ::testing::TestWithParam<MemifConfig (*)()> {};

TEST_P(ReplicationOverMigration, IsBusyUntilTheCopyLands)
{
    MemifFixture f(GetParam()());
    const vm::VAddr warm_src = f.region(64 * 4096, 3);
    const vm::VAddr warm_dst = f.region(64 * 4096, 4);
    const vm::VAddr base = f.region(256 * 4096, 7);
    const vm::VAddr copy = f.region(2 * 4096, 9);
    for (vm::VAddr off = 0; off < 64 * 4096; off += 8 * 4096)
        f.submit(MovOp::kReplicate, warm_src + off, 8, warm_dst + off);
    const std::uint32_t mig =
        f.submit(MovOp::kMigrate, base, 256, f.kernel.fast_node());
    const std::uint32_t rep = f.submit(MovOp::kReplicate, base, 2, copy);
    f.kernel.run();

    EXPECT_EQ(f.user.request(mig).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 256 * 4096, 7));
    EXPECT_TRUE(f.check(warm_dst, 64 * 4096, 3));
    EXPECT_EQ(f.user.request(rep).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.user.request(rep).error, MovError::kBusy);
    EXPECT_TRUE(f.check(copy, 2 * 4096, 9));  // never written
}

INSTANTIATE_TEST_SUITE_P(
    SemiFinalPresets, ReplicationOverMigration,
    ::testing::Values(&MemifConfig::pipelined, &MemifConfig::scaled,
                      &MemifConfig::mmu_aware, &MemifConfig::strided));

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

// Proceed-and-recover after a DMA fault. migrate_64's first attempt
// fails (a TC error, or a hang the watchdog ends), so its new frames
// hold no bytes until the ladder refills them: by a retry after its
// backoff, or by the CPU replay. An access before that must roll the
// migration back, exactly as one mid-copy does; one during the replay
// finds the bytes in and keeps the move. The racing access is a write
// touch of page 10 that then stores kStoreBytes of kStored there, both
// at its instant.

constexpr std::uint64_t kRacedPage = 10;
constexpr std::uint64_t kStoreBytes = 64;
constexpr std::uint8_t kStored = 0xAB;

/** kRecover with @p retries DMA retries before the CPU replay. */
MemifConfig
recover_config(std::uint32_t retries)
{
    MemifConfig cfg = race_config(RacePolicy::kRecover);
    cfg.dma_max_retries = retries;
    return cfg;
}

/** migrate_64 with its first DMA attempt armed to fail at @p site. */
std::uint32_t
migrate_64_failing(MemifFixture &f, std::string_view site)
{
    f.faults().arm_nth(site, 1);
    return migrate_64(f);
}

/** The middle of the window @p span bounds in a calibration run of
 *  migrate_64_failing(@p site) under recover_config(@p retries). */
sim::SimTime
error_window_mid(const test::TraceSpan &span, std::uint32_t retries,
                 std::string_view site = dma::kFaultTcError)
{
    const test::DmaWindow w = test::dma_window(
        span, [site](MemifFixture &f) { return migrate_64_failing(f, site); },
        recover_config(retries));
    EXPECT_LT(w.start, w.complete);
    return w.mid();
}

/** What the racing access at @p when made of migrate_64_failing(@p site)
 *  under recover_config(@p retries), once the machine ran dry. */
struct RacedMove {
    MovStatus status = MovStatus::kFree;
    std::uint64_t migrations_aborted = 0;
    std::uint8_t seen = 0;             ///< first byte the access read
    std::uint8_t pattern = 0;          ///< pattern 7's byte there
    bool bytes_ok = false;             ///< pattern 7 plus the store
    std::uint32_t pages_on_slow = 0;
    std::uint32_t pages_on_fast = 0;
    bool fast_frames_restored = false;
};

RacedMove
race_after_error(std::uint32_t retries, sim::SimTime when,
                 std::string_view site = dma::kFaultTcError)
{
    MemifFixture f(recover_config(retries));
    const std::uint64_t fast_free =
        f.kernel.phys().node(f.kernel.fast_node()).free_frames();
    const std::uint32_t idx = migrate_64_failing(f, site);
    const vm::VAddr base = f.user.request(idx).src_base;
    const vm::VAddr va = base + kRacedPage * 4096;
    RacedMove r;
    f.kernel.eq().schedule_at(when, [&] {
        // The touch runs its fault hook before its first suspension.
        f.kernel.spawn(f.proc.touch(va, /*write=*/true, nullptr));
        EXPECT_TRUE(f.proc.as().read(va, &r.seen, 1));
        const std::vector<std::uint8_t> store(kStoreBytes, kStored);
        EXPECT_TRUE(f.proc.as().write(va, store.data(), kStoreBytes));
    });
    f.kernel.run();

    EXPECT_EQ(f.user.retrieve_completed(), idx);
    r.status = f.user.request(idx).load_status();
    r.migrations_aborted = f.dev.stats().migrations_aborted;
    std::vector<std::uint8_t> want(64 * 4096);
    check::fill_pattern(7, want);
    r.pattern = want[kRacedPage * 4096];
    std::fill_n(want.begin() + kRacedPage * 4096, kStoreBytes, kStored);
    r.bytes_ok = f.read(base, want.size()) == want;
    for (std::uint64_t i = 0; i < 64; ++i) {
        const mem::NodeId node = f.node_of_page(base, i);
        r.pages_on_slow += node == f.kernel.slow_node();
        r.pages_on_fast += node == f.kernel.fast_node();
    }
    r.fast_frames_restored =
        f.kernel.phys().node(f.kernel.fast_node()).free_frames() == fast_free;
    return r;
}

/** The access rolled the migration back: it read the old bytes, its
 *  store survived, and the region and the fast node are as before. */
void
expect_rolled_back(const RacedMove &r)
{
    EXPECT_EQ(r.status, MovStatus::kAborted);
    EXPECT_EQ(r.migrations_aborted, 1u);
    EXPECT_EQ(r.seen, r.pattern);
    EXPECT_TRUE(r.bytes_ok);
    EXPECT_EQ(r.pages_on_slow, 64u);
    EXPECT_TRUE(r.fast_frames_restored);
}

/** The access found the bytes in: the move completed, and the store
 *  it made on the new frame survived. */
void
expect_moved(const RacedMove &r)
{
    EXPECT_EQ(r.status, MovStatus::kDone);
    EXPECT_EQ(r.migrations_aborted, 0u);
    EXPECT_EQ(r.seen, r.pattern);
    EXPECT_TRUE(r.bytes_ok);
    EXPECT_EQ(r.pages_on_fast, 64u);
}

TEST(RaceRecover, TouchInRetryBackoffAbortsTheMigration)
{
    // Between the error and the retry's start, no attempt is running
    // and the new frames are empty.
    const sim::SimTime when =
        error_window_mid({.from = sim::TracePoint::kDmaError,
                          .to = sim::TracePoint::kDmaStart,
                          .to_nth = 2},
                         /*retries=*/3);
    expect_rolled_back(race_after_error(3, when));
}

TEST(RaceRecover, TouchBeforeCpuFallbackAbortsTheMigration)
{
    // No retries: the error interrupt's entry runs, then the CPU replay
    // starts. Before it starts, the new frames are empty.
    const sim::SimTime when =
        error_window_mid({.from = sim::TracePoint::kDmaError,
                          .to = sim::TracePoint::kFallbackCopy},
                         /*retries=*/0);
    expect_rolled_back(race_after_error(0, when));
}

TEST(RaceRecover, TouchDuringCpuReplayKeepsTheMove)
{
    // The replay copies its bytes when it starts and is charged the
    // CPU time after: an access while it runs finds the new frames
    // full, so the supervisor's release keeps the move and the store.
    const sim::SimTime when =
        error_window_mid({.from = sim::TracePoint::kFallbackCopy,
                          .to = sim::TracePoint::kReleaseDone},
                         /*retries=*/0);
    expect_moved(race_after_error(0, when));
}

TEST(RaceRecover, TouchDuringCpuReplayAfterAHangKeepsTheMove)
{
    // The same window after a hung attempt the watchdog cancelled: the
    // replayed bytes are just as landed as after an error.
    const sim::SimTime when =
        error_window_mid({.from = sim::TracePoint::kFallbackCopy,
                          .to = sim::TracePoint::kReleaseDone},
                         /*retries=*/0, dma::kFaultStuck);
    expect_moved(race_after_error(0, when, dma::kFaultStuck));
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
