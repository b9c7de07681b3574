/**
 * @file
 * DMA error-recovery tests: injected TC errors, lost completion
 * interrupts and stuck transfers against the driver's watchdog, retry,
 * CPU-copy fallback and rollback machinery. Every scenario must end
 * with a terminal request status, intact data, and no leaked frames.
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include <vector>

#include "check/reference_model.h"
#include "dma/engine.h"
#include "memif/user_api.h"
#include "memif_fixture.h"
#include "os/kernel.h"
#include "os/process.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/types.h"

namespace memif::core {
namespace {

using Fixture = test::MemifFixture;

TEST(Recovery, TcErrorIsRetriedToSuccess)
{
    Fixture f;
    const vm::VAddr src = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(16 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(src, 16 * 4096, 42);
    f.faults().arm_nth(dma::kFaultTcError, 1);  // first transfer errors

    const std::uint32_t idx = f.submit(MovOp::kReplicate, src, 16, dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 16 * 4096, 42));
    EXPECT_EQ(f.dev.stats().dma_errors, 1u);
    EXPECT_EQ(f.dev.stats().dma_retries, 1u);
    EXPECT_EQ(f.dev.stats().fallback_copies, 0u);
    EXPECT_EQ(f.kernel.dma_engine().stats().transfers_failed, 1u);
}

TEST(Recovery, PersistentErrorFallsBackToCpuCopy)
{
    Fixture f;
    const vm::VAddr src = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(16 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(src, 16 * 4096, 7);
    f.faults().arm_probability(dma::kFaultTcError, 1.0);  // every transfer

    const std::uint32_t idx = f.submit(MovOp::kReplicate, src, 16, dst);
    f.kernel.run();

    // 1 original start + 3 retries all error out, then the CPU copies.
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 16 * 4096, 7));
    EXPECT_EQ(f.dev.stats().dma_errors, 4u);
    EXPECT_EQ(f.dev.stats().dma_retries, 3u);
    EXPECT_EQ(f.dev.stats().fallback_copies, 1u);
}

TEST(Recovery, FallbackCompletesMigrationOntoNewFrames)
{
    Fixture f;
    const vm::VAddr base = f.proc.mmap(8 * 4096, vm::PageSize::k4K);
    f.fill(base, 8 * 4096, 3);
    f.faults().arm_probability(dma::kFaultTcError, 1.0);

    const std::uint32_t idx =
        f.submit(MovOp::kMigrate, base, 8, f.kernel.fast_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 8 * 4096, 3));
    vm::Vma *vma = f.proc.as().find_vma(base);
    for (std::uint64_t i = 0; i < 8; ++i)
        EXPECT_EQ(f.kernel.phys().node_of(vma->pte(i).pfn),
                  f.kernel.fast_node());
    EXPECT_EQ(f.dev.stats().fallback_copies, 1u);
}

TEST(Recovery, NoFallbackRollsBackMigration)
{
    MemifConfig cfg;
    cfg.cpu_copy_fallback = false;
    Fixture f(cfg);
    const vm::VAddr base = f.proc.mmap(8 * 4096, vm::PageSize::k4K);
    f.fill(base, 8 * 4096, 11);
    const std::uint64_t outstanding_before =
        f.kernel.phys().outstanding_pages();
    f.faults().arm_probability(dma::kFaultTcError, 1.0);

    const std::uint32_t idx =
        f.submit(MovOp::kMigrate, base, 8, f.kernel.fast_node());
    f.kernel.run();

    // The request fails, but the region is exactly as before: old PTEs
    // restored (still on the slow node), data intact, no frame leaked.
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.user.request(idx).error, MovError::kDmaError);
    EXPECT_TRUE(f.check(base, 8 * 4096, 11));
    vm::Vma *vma = f.proc.as().find_vma(base);
    for (std::uint64_t i = 0; i < 8; ++i) {
        const vm::Pte pte = vma->pte(i);
        EXPECT_EQ(f.kernel.phys().node_of(pte.pfn), f.kernel.slow_node());
        EXPECT_FALSE(pte.young);
        EXPECT_FALSE(pte.migration);
    }
    EXPECT_EQ(f.kernel.phys().outstanding_pages(), outstanding_before);
    EXPECT_EQ(f.dev.stats().rollbacks, 1u);
    // The region stays usable after the rollback.
    f.fill(base, 8 * 4096, 12);
    EXPECT_TRUE(f.check(base, 8 * 4096, 12));
}

TEST(Recovery, NoFallbackLeavesReplicationDestinationUntouched)
{
    MemifConfig cfg;
    cfg.cpu_copy_fallback = false;
    Fixture f(cfg);
    const vm::VAddr src = f.proc.mmap(8 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(8 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(src, 8 * 4096, 21);
    f.fill(dst, 8 * 4096, 99);  // pre-existing destination content
    f.faults().arm_probability(dma::kFaultTcError, 1.0);

    const std::uint32_t idx = f.submit(MovOp::kReplicate, src, 8, dst);
    f.kernel.run();

    // All-or-nothing: error completions move no bytes, so the failed
    // replication must not have scribbled on the destination.
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.user.request(idx).error, MovError::kDmaError);
    EXPECT_TRUE(f.check(dst, 8 * 4096, 99));
    EXPECT_TRUE(f.check(src, 8 * 4096, 21));
    EXPECT_EQ(f.dev.stats().rollbacks, 0u);  // nothing to roll back
}

TEST(Recovery, LostInterruptIsCaughtByWatchdog)
{
    Fixture f;
    const vm::VAddr src = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(16 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(src, 16 * 4096, 55);
    f.faults().arm_nth(dma::kFaultLostIrq, 1);

    const std::uint32_t idx = f.submit(MovOp::kReplicate, src, 16, dst);
    f.kernel.run();

    // The bytes landed; only the interrupt was dropped. The watchdog
    // notices, reclaims the descriptor chain, and releases normally —
    // no retry and no second copy.
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 16 * 4096, 55));
    EXPECT_EQ(f.dev.stats().watchdog_timeouts, 1u);
    EXPECT_EQ(f.dev.stats().dma_retries, 0u);
    EXPECT_EQ(f.kernel.dma_engine().stats().interrupts_lost, 1u);
    EXPECT_EQ(f.kernel.dma_engine().stats().transfers_started, 1u);
    // One IRQ entry — the deadline's own; no second entry is charged
    // for an interrupt that never arrived. The rest of the interrupt-
    // context time is the Notify and the kernel-thread wakeup.
    const sim::CostModel &cm = f.kernel.costs();
    EXPECT_EQ(f.kernel.cpu().accounting().context(sim::ExecContext::kIrq),
              cm.irq_overhead + cm.queue_op + cm.kthread_wakeup);
}

TEST(Recovery, StuckTransferTimesOutAndRetries)
{
    Fixture f;
    const vm::VAddr src = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(16 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(src, 16 * 4096, 66);
    f.faults().arm_nth(dma::kFaultStuck, 1);

    const std::uint32_t idx = f.submit(MovOp::kReplicate, src, 16, dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 16 * 4096, 66));
    EXPECT_EQ(f.dev.stats().watchdog_timeouts, 1u);
    EXPECT_EQ(f.dev.stats().dma_retries, 1u);
    EXPECT_EQ(f.kernel.dma_engine().stats().transfers_cancelled, 1u);
}

TEST(Recovery, PolledStuckTransferIsSupervisedByKthread)
{
    // The second small request is served by the kernel thread in polled
    // mode (the kicked first one is irq-driven); its timed wait doubles
    // as the watchdog when the transfer hangs.
    Fixture f;
    const vm::VAddr src = f.proc.mmap(32 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(32 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(src, 32 * 4096, 17);
    f.faults().arm_nth(dma::kFaultStuck, 2);  // the polled transfer

    std::uint32_t idx0 = kNoRequest, idx1 = kNoRequest;
    auto app = [&]() -> sim::Task {
        for (int r = 0; r < 2; ++r) {
            const vm::VAddr off = static_cast<vm::VAddr>(r) * 16 * 4096;
            // 16 pages, 64 KB: below the poll threshold.
            const std::uint32_t idx =
                f.prepare(MovOp::kReplicate, src + off, 16, dst + off);
            (r == 0 ? idx0 : idx1) = idx;
            co_await f.user.submit(idx);
        }
    };
    f.kernel.spawn(app());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx0).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.user.request(idx1).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 32 * 4096, 17));
    EXPECT_EQ(f.dev.stats().watchdog_timeouts, 1u);
    EXPECT_EQ(f.dev.stats().dma_retries, 1u);
    EXPECT_EQ(f.dev.stats().polled_completions, 1u);
}

TEST(Recovery, LostErrorInterruptIsRetriedNotReleased)
{
    // Every transfer is interrupt-driven. The second one fails with a
    // TC error AND its error interrupt is lost. Before its deadline the
    // kernel thread starts the third request and goes to sleep. The
    // errored record waits for its supervisor, so the deadline finds
    // the real status: it retries the copy instead of releasing bytes
    // that never moved.
    MemifConfig cfg;
    cfg.poll_threshold_bytes = 0;
    cfg.watchdog_margin = 20.0;  // the deadline lands after that sleep
    Fixture f(cfg);
    const vm::VAddr src = f.proc.mmap(48 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(48 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(src, 48 * 4096, 23);
    f.faults().arm_nth(dma::kFaultTcError, 2);
    f.faults().arm_nth(dma::kFaultLostIrq, 2);

    std::uint32_t idx[3] = {kNoRequest, kNoRequest, kNoRequest};
    auto app = [&]() -> sim::Task {
        for (int r = 0; r < 3; ++r) {
            const vm::VAddr off = static_cast<vm::VAddr>(r) * 16 * 4096;
            idx[r] = f.prepare(MovOp::kReplicate, src + off, 16, dst + off);
            co_await f.user.submit(idx[r]);
        }
    };
    f.kernel.spawn(app());
    f.kernel.run();

    for (const std::uint32_t i : idx)
        EXPECT_EQ(f.user.request(i).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 48 * 4096, 23));
    EXPECT_EQ(f.dev.stats().dma_errors, 1u);
    EXPECT_EQ(f.dev.stats().dma_retries, 1u);
    EXPECT_EQ(f.dev.stats().watchdog_timeouts, 1u);
    EXPECT_EQ(f.kernel.dma_engine().stats().interrupts_lost, 1u);
}

TEST(Recovery, LostErrorInterruptSurvivesAFullEngineTable)
{
    // One 16 MB replication out of the far node fails with a TC error
    // whose interrupt is lost, so only its deadline learns of it. Until
    // then a second instance on the same kernel runs thousands of
    // one-page replications through the same engine. However many
    // records that traffic leaves behind, the errored one stays until
    // its supervisor reads it: the deadline retries the copy instead of
    // releasing a destination no byte reached.
    Fixture f(MemifConfig{}, os::KernelConfig{.far_bytes = 64ull << 20});
    constexpr std::uint32_t kBigPages = 256;  // 64 KB pages
    constexpr std::uint64_t kBig = kBigPages * (64ull << 10);
    const vm::VAddr src =
        f.region(kBig, 31, f.kernel.far_node(), vm::PageSize::k64K);
    const vm::VAddr dst =
        f.region(kBig, 32, f.kernel.slow_node(), vm::PageSize::k64K);
    f.faults().arm_nth(dma::kFaultTcError, 1);
    f.faults().arm_nth(dma::kFaultLostIrq, 1);
    const std::uint32_t big =
        f.submit(MovOp::kReplicate, src, kBigPages, dst);
    const dma::EngineStats &es = f.kernel.dma_engine().stats();
    while (es.transfers_started == 0 && f.kernel.eq().step()) {
    }
    ASSERT_EQ(es.transfers_started, 1u);

    os::Process &p2 = f.kernel.create_process();
    auto &other = f.open_device(p2);
    const vm::VAddr osrc = p2.mmap(4096, vm::PageSize::k4K);
    const vm::VAddr odst = p2.mmap(4096, vm::PageSize::k4K);
    std::vector<std::uint8_t> page(4096);
    check::fill_pattern(33, page);
    ASSERT_TRUE(p2.as().write(osrc, page.data(), page.size()));
    constexpr int kSmall = 4000;
    int small_done = 0;
    auto loop = [&]() -> sim::Task {
        for (int r = 0; r < kSmall; ++r) {
            const std::uint32_t idx =
                f.prepare(other.user, MovOp::kReplicate, osrc, 1, odst);
            co_await other.user.submit(idx);
            std::uint32_t done = kNoRequest;
            while ((done = other.user.retrieve_completed()) == kNoRequest)
                co_await other.user.poll();
            if (other.user.request(done).load_status() == MovStatus::kDone)
                ++small_done;
            other.user.free_request(done);
        }
    };
    sim::Task task = loop();
    f.kernel.run();
    task.rethrow_if_failed();

    EXPECT_EQ(small_done, kSmall);
    EXPECT_EQ(f.user.request(big).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, kBig, 31));
    EXPECT_EQ(f.dev.stats().dma_errors, 1u);
    EXPECT_EQ(f.dev.stats().dma_retries, 1u);
    EXPECT_EQ(f.dev.stats().watchdog_timeouts, 1u);
    EXPECT_EQ(es.transfers_failed, 1u);
    EXPECT_EQ(es.interrupts_lost, 1u);
}

TEST(Recovery, FallbackUnderRacePreventionDefersRelease)
{
    // Under kPrevent the Release step cannot run in interrupt context;
    // the CPU-copy fallback must hand it to the kernel thread just like
    // the normal interrupt path does.
    MemifConfig cfg;
    cfg.race_policy = RacePolicy::kPrevent;
    Fixture f(cfg);
    const vm::VAddr base = f.proc.mmap(8 * 4096, vm::PageSize::k4K);
    f.fill(base, 8 * 4096, 29);
    f.faults().arm_probability(dma::kFaultTcError, 1.0);

    const std::uint32_t idx =
        f.submit(MovOp::kMigrate, base, 8, f.kernel.fast_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 8 * 4096, 29));
    vm::Vma *vma = f.proc.as().find_vma(base);
    for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(f.kernel.phys().node_of(vma->pte(i).pfn),
                  f.kernel.fast_node());
        EXPECT_FALSE(vma->pte(i).migration);
    }
    EXPECT_EQ(f.dev.stats().fallback_copies, 1u);
}

TEST(Recovery, InjectedAllocationFailureReportsNoMemory)
{
    Fixture f;
    const vm::VAddr base = f.proc.mmap(8 * 4096, vm::PageSize::k4K);
    f.fill(base, 8 * 4096, 44);
    const std::uint64_t outstanding_before =
        f.kernel.phys().outstanding_pages();
    // The third destination-page allocation fails: the first two must
    // be given back.
    f.faults().arm_nth(kFaultAllocFail, 3);

    const std::uint32_t idx =
        f.submit(MovOp::kMigrate, base, 8, f.kernel.fast_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.user.request(idx).error, MovError::kNoMemory);
    EXPECT_TRUE(f.check(base, 8 * 4096, 44));
    EXPECT_EQ(f.kernel.phys().outstanding_pages(), outstanding_before);
}

TEST(Recovery, ArmedAtZeroRateCostsNothing)
{
    // The zero-overhead claim, as a unit test: a run with the injector
    // armed at probability 0 (every hook consulted, nothing fires) and
    // the watchdog armed throughout must end at the exact same virtual
    // time as a plain run.
    auto elapsed = [](bool arm) {
        Fixture f;
        if (arm) {
            f.faults().arm_probability(dma::kFaultTcError, 0.0);
            f.faults().arm_probability(dma::kFaultStuck, 0.0);
            f.faults().arm_probability(dma::kFaultLostIrq, 0.0);
            f.faults().arm_probability(kFaultAllocFail, 0.0);
        }
        const vm::VAddr src = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
        const vm::VAddr dst = f.proc.mmap(64 * 4096, vm::PageSize::k4K,
                                          f.kernel.fast_node());
        f.submit(MovOp::kReplicate, src, 64, dst);
        f.kernel.run();
        EXPECT_EQ(f.dev.stats().requests_completed, 1u);
        EXPECT_EQ(f.dev.stats().watchdog_timeouts, 0u);
        return f.kernel.eq().now();
    };
    EXPECT_EQ(elapsed(false), elapsed(true));
}

TEST(Recovery, SameSeedReproducesIdenticalOutcome)
{
    auto run = [](std::uint64_t seed) {
        Fixture f(MemifConfig{}, os::KernelConfig{.fault_seed = seed});
        f.faults().arm_probability(dma::kFaultTcError, 0.5);
        const vm::VAddr src = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
        const vm::VAddr dst =
            f.proc.mmap(64 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
        for (int r = 0; r < 4; ++r) {
            const vm::VAddr off = static_cast<vm::VAddr>(r) * 16 * 4096;
            f.submit(MovOp::kReplicate, src + off, 16, dst + off);
        }
        f.kernel.run();
        return std::tuple{f.kernel.eq().now(), f.dev.stats().dma_errors,
                          f.dev.stats().dma_retries,
                          f.dev.stats().fallback_copies};
    };
    EXPECT_EQ(run(1234), run(1234));
    // A different seed picks different victims (with overwhelming
    // probability for 4+ transfers at rate 0.5 — and deterministically
    // for these particular seeds).
    EXPECT_NE(run(1234), run(4321));
}

}  // namespace
}  // namespace memif::core
