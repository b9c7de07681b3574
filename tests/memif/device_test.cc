/**
 * @file
 * End-to-end tests of the memif service: replication and migration
 * through the full stack (user library -> shared queues -> driver ->
 * DMA engine -> interrupt/kthread paths -> completion notifications),
 * plus validation failures and execution-path selection.
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "memif/user_api.h"
#include "memif_fixture.h"
#include "os/kernel.h"
#include "os/process.h"
#include "sim/types.h"

namespace memif::core {
namespace {

using Fixture = test::MemifFixture;

TEST(MemifDevice, ReplicationCopiesBytes)
{
    Fixture f;
    const vm::VAddr src = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(16 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(src, 16 * 4096, 42);

    const std::uint32_t idx =
        f.submit(MovOp::kReplicate, src, 16, dst, 0xBEEF);
    f.kernel.run();

    const std::uint32_t done = f.user.retrieve_completed();
    ASSERT_EQ(done, idx);
    EXPECT_EQ(f.user.request(done).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.user.request(done).user_tag, 0xBEEFu);
    EXPECT_TRUE(f.check(dst, 16 * 4096, 42));
    EXPECT_TRUE(f.check(src, 16 * 4096, 42));  // source untouched
    EXPECT_EQ(f.dev.stats().replications, 1u);
    f.user.free_request(done);
}

TEST(MemifDevice, MigrationMovesPagesToFastNode)
{
    Fixture f;
    const vm::VAddr base = f.proc.mmap(32 * 4096, vm::PageSize::k4K);
    f.fill(base, 32 * 4096, 9);
    const std::uint64_t slow_free_before =
        f.kernel.phys().node(f.kernel.slow_node()).free_frames();

    const std::uint32_t idx =
        f.submit(MovOp::kMigrate, base, 32, f.kernel.fast_node());
    f.kernel.run();

    ASSERT_EQ(f.user.retrieve_completed(), idx);
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 32 * 4096, 9));
    vm::Vma *vma = f.proc.as().find_vma(base);
    for (std::uint64_t i = 0; i < 32; ++i) {
        const vm::Pte pte = vma->pte(i);
        EXPECT_EQ(f.kernel.phys().node_of(pte.pfn), f.kernel.fast_node());
        EXPECT_FALSE(pte.young);  // finalized
        EXPECT_FALSE(pte.migration);
    }
    // Old frames freed back to the slow node.
    EXPECT_EQ(f.kernel.phys().node(f.kernel.slow_node()).free_frames(),
              slow_free_before + 32);
    EXPECT_EQ(f.dev.stats().migrations, 1u);
    EXPECT_EQ(f.dev.stats().pages_moved, 32u);
}

TEST(MemifDevice, BurstOfRequestsNeedsOnlyOneKick)
{
    // The headline interface property (§6.4): a stream of submissions
    // costs one ioctl; the kernel thread pulls the rest.
    Fixture f;
    const vm::VAddr src = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(64 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(src, 64 * 4096, 1);

    auto app = [&]() -> sim::Task {
        for (int r = 0; r < 8; ++r) {
            const std::uint32_t idx = f.user.alloc_request();
            MovReq &req = f.user.request(idx);
            req.op = MovOp::kReplicate;
            req.src_base = src + static_cast<vm::VAddr>(r) * 8 * 4096;
            req.dst_base = dst + static_cast<vm::VAddr>(r) * 8 * 4096;
            req.num_pages = 8;
            co_await f.user.submit(idx);
        }
    };
    f.kernel.spawn(app());
    f.kernel.run();

    EXPECT_EQ(f.user.stats().submits, 8u);
    EXPECT_EQ(f.user.stats().kicks, 1u);
    EXPECT_EQ(f.dev.stats().kick_ioctls, 1u);
    int completed = 0;
    while (f.user.retrieve_completed() != kNoRequest) ++completed;
    EXPECT_EQ(completed, 8);
    EXPECT_TRUE(f.check(dst, 64 * 4096, 1));
    EXPECT_TRUE(f.dev.idle());
}

TEST(MemifDevice, NewBurstAfterIdleKicksAgain)
{
    Fixture f;
    const vm::VAddr src = f.proc.mmap(8 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(8 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(src, 8 * 4096, 5);

    f.submit(MovOp::kReplicate, src, 4, dst);
    f.kernel.run();  // drain; kthread recolors staging blue
    f.submit(MovOp::kReplicate, src + 4 * 4096, 4, dst + 4 * 4096);
    f.kernel.run();

    EXPECT_EQ(f.user.stats().kicks, 2u);
    int completed = 0;
    while (f.user.retrieve_completed() != kNoRequest) ++completed;
    EXPECT_EQ(completed, 2);
}

TEST(MemifDevice, SmallRequestsUsePolledMode)
{
    // §5.4: below the 512 KB threshold the kthread turns the interrupt
    // off and polls; the kick-started first request is always irq-driven.
    Fixture f;
    const vm::VAddr src = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(64 * 4096, vm::PageSize::k4K, f.kernel.fast_node());

    auto app = [&]() -> sim::Task {
        for (int r = 0; r < 4; ++r) {
            const std::uint32_t idx = f.user.alloc_request();
            MovReq &req = f.user.request(idx);
            req.op = MovOp::kReplicate;
            req.src_base = src + static_cast<vm::VAddr>(r) * 16 * 4096;
            req.dst_base = dst + static_cast<vm::VAddr>(r) * 16 * 4096;
            req.num_pages = 16;  // 64 KB each: small
            co_await f.user.submit(idx);
        }
    };
    f.kernel.spawn(app());
    f.kernel.run();

    EXPECT_EQ(f.dev.stats().irq_completions, 1u);     // the kicked one
    EXPECT_EQ(f.dev.stats().polled_completions, 3u);  // kthread-polled
}

TEST(MemifDevice, LargeRequestsStayInterruptDriven)
{
    Fixture f(MemifConfig{.capacity = 64,
                          .gang_lookup = true,
                          .race_policy = RacePolicy::kDetect,
                          .poll_threshold_bytes = 512 * 1024});
    const vm::VAddr src = f.proc.mmap(2 << 20, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(2 << 20, vm::PageSize::k4K, f.kernel.fast_node());

    auto app = [&]() -> sim::Task {
        for (int r = 0; r < 3; ++r) {
            const std::uint32_t idx = f.user.alloc_request();
            MovReq &req = f.user.request(idx);
            req.op = MovOp::kReplicate;
            // 170 pages ~ 680 KB > threshold.
            req.src_base = src + static_cast<vm::VAddr>(r) * 170 * 4096;
            req.dst_base = dst + static_cast<vm::VAddr>(r) * 170 * 4096;
            req.num_pages = 170;
            co_await f.user.submit(idx);
        }
    };
    f.kernel.spawn(app());
    f.kernel.run();
    EXPECT_EQ(f.dev.stats().irq_completions, 3u);
    EXPECT_EQ(f.dev.stats().polled_completions, 0u);
}

TEST(MemifDevice, PollSleepsUntilCompletion)
{
    Fixture f;
    const vm::VAddr src = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(16 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(src, 16 * 4096, 77);

    sim::SimTime woke_at = 0;
    std::uint32_t got = kNoRequest;
    auto app = [&]() -> sim::Task {
        const std::uint32_t idx = f.user.alloc_request();
        MovReq &req = f.user.request(idx);
        req.op = MovOp::kReplicate;
        req.src_base = src;
        req.dst_base = dst;
        req.num_pages = 16;
        co_await f.user.submit(idx);
        // Nothing completed yet: go to sleep like Fig. 2's poll(fdset).
        EXPECT_EQ(f.user.retrieve_completed(), kNoRequest);
        co_await f.user.poll();
        woke_at = f.kernel.eq().now();
        got = f.user.retrieve_completed();
    };
    f.kernel.spawn(app());
    f.kernel.run();

    ASSERT_NE(got, kNoRequest);
    EXPECT_EQ(f.user.request(got).load_status(), MovStatus::kDone);
    EXPECT_GE(woke_at, f.user.request(got).complete_time);
}

TEST(MemifDevice, CompletionCarriesTimestamps)
{
    Fixture f;
    const vm::VAddr src = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(16 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    const std::uint32_t idx = f.submit(MovOp::kReplicate, src, 16, dst);
    f.kernel.run();
    const MovReq &req = f.user.request(idx);
    EXPECT_EQ(req.submit_time, 0u);  // submitted at t=0
    EXPECT_GT(req.complete_time, req.submit_time);
}

// ----- validation failures ---------------------------------------------

TEST(MemifDevice, RejectsUnmappedSource)
{
    Fixture f;
    const std::uint32_t idx =
        f.submit(MovOp::kMigrate, 0xBAD000, 4, f.kernel.fast_node());
    f.kernel.run();
    ASSERT_EQ(f.user.retrieve_completed(), idx);
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.user.request(idx).error, MovError::kBadAddress);
    EXPECT_EQ(f.dev.stats().validation_failures, 1u);
}

TEST(MemifDevice, RejectsBadNode)
{
    Fixture f;
    const vm::VAddr src = f.proc.mmap(4 * 4096, vm::PageSize::k4K);
    const std::uint32_t idx = f.submit(MovOp::kMigrate, src, 4, 99);
    f.kernel.run();
    ASSERT_EQ(f.user.retrieve_completed(), idx);
    EXPECT_EQ(f.user.request(idx).error, MovError::kBadNode);
}

TEST(MemifDevice, RejectsZeroAndOversizedRequests)
{
    Fixture f;
    const vm::VAddr src = f.proc.mmap(4 * 4096, vm::PageSize::k4K);
    const std::uint32_t a = f.submit(MovOp::kMigrate, src, 0,
                                     f.kernel.fast_node());
    f.kernel.run();
    EXPECT_EQ(f.user.request(a).error, MovError::kBadRequest);

    const std::uint32_t b = f.submit(MovOp::kMigrate, src, 1000,
                                     f.kernel.fast_node());
    f.kernel.run();
    EXPECT_EQ(f.user.request(b).error, MovError::kBadRequest);
}

TEST(MemifDevice, RejectsOverlappingReplication)
{
    Fixture f;
    const vm::VAddr src = f.proc.mmap(16 * 4096, vm::PageSize::k4K);
    const std::uint32_t idx =
        f.submit(MovOp::kReplicate, src, 8, src + 4 * 4096);
    f.kernel.run();
    ASSERT_EQ(f.user.retrieve_completed(), idx);
    EXPECT_EQ(f.user.request(idx).error, MovError::kBadRequest);
}

TEST(MemifDevice, RejectsRangePastVmaEnd)
{
    Fixture f;
    const vm::VAddr src = f.proc.mmap(4 * 4096, vm::PageSize::k4K);
    const std::uint32_t idx =
        f.submit(MovOp::kMigrate, src, 8, f.kernel.fast_node());
    f.kernel.run();
    EXPECT_EQ(f.user.request(idx).error, MovError::kBadAddress);
}

TEST(MemifDevice, ReportsDestinationExhaustion)
{
    Fixture f;
    // 8 MB cannot fit in 6 MB SRAM: a 512-page (2 MB) migration works,
    // three of them exhaust, the fourth fails cleanly.
    const vm::VAddr src = f.proc.mmap(8ull << 20, vm::PageSize::k4K);
    std::vector<std::uint32_t> idxs;
    for (int r = 0; r < 4; ++r)
        idxs.push_back(f.submit(MovOp::kMigrate,
                                src + static_cast<vm::VAddr>(r) * (2 << 20),
                                512, f.kernel.fast_node()));
    f.kernel.run();
    EXPECT_EQ(f.user.request(idxs[0]).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.user.request(idxs[1]).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.user.request(idxs[2]).load_status(), MovStatus::kDone);
    EXPECT_EQ(f.user.request(idxs[3]).load_status(), MovStatus::kFailed);
    EXPECT_EQ(f.user.request(idxs[3]).error, MovError::kNoMemory);
    // No frame leaked by the failed attempt.
    EXPECT_EQ(f.kernel.phys().node(f.kernel.fast_node()).free_frames(), 0u);
}

TEST(MemifDevice, FreeListExhaustionIsGraceful)
{
    Fixture f(MemifConfig{.capacity = 4,
                          .gang_lookup = true,
                          .race_policy = RacePolicy::kDetect,
                          .poll_threshold_bytes = 512 * 1024});
    std::vector<std::uint32_t> held;
    for (int i = 0; i < 4; ++i) {
        const std::uint32_t idx = f.user.alloc_request();
        ASSERT_NE(idx, kNoRequest);
        held.push_back(idx);
    }
    EXPECT_EQ(f.user.alloc_request(), kNoRequest);
    f.user.free_request(held.back());
    EXPECT_NE(f.user.alloc_request(), kNoRequest);
}

TEST(MemifDevice, MigrationOf2MPagesWorks)
{
    Fixture f;
    const vm::VAddr base = f.proc.mmap(4ull << 20, vm::PageSize::k2M);
    f.fill(base, 4ull << 20, 33);
    const std::uint32_t idx =
        f.submit(MovOp::kMigrate, base, 2, f.kernel.fast_node());
    f.kernel.run();
    ASSERT_EQ(f.user.retrieve_completed(), idx);
    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 4ull << 20, 33));
    vm::Vma *vma = f.proc.as().find_vma(base);
    EXPECT_EQ(f.kernel.phys().node_of(vma->pte(0).pfn),
              f.kernel.fast_node());
}

TEST(MemifDevice, TeardownMidFlightIsSafe)
{
    // Destroying an instance with a transfer still running must cancel
    // it cleanly: no callback into the dead device, no frame leaks
    // from the request that never completed (its new pages are simply
    // part of the cancelled move; the old mapping remains usable).
    Fixture f;
    // The device goes away with its request in flight: nothing is
    // left to check for quiescence.
    f.check_quiesce_on_teardown = false;
    const vm::VAddr base = f.proc.mmap(512 * 4096, vm::PageSize::k4K);
    f.submit(MovOp::kMigrate, base, 512,  // 2 MB: long DMA
             f.kernel.fast_node());
    // Advance until the transfer has been triggered but not yet
    // completed: the teardown then races only the engine.
    while (f.kernel.dma_engine().stats().transfers_started == 0)
        f.kernel.run_until(f.kernel.eq().now() + sim::microseconds(100));
    ASSERT_EQ(f.kernel.dma_engine().stats().transfers_completed, 0u);
    f.close_device();  // dev + user destroyed here, DMA in flight
    f.kernel.run();  // drain the (cancelled) completion event: no crash
    EXPECT_EQ(f.kernel.dma_engine().stats().transfers_cancelled, 1u);
}

}  // namespace
}  // namespace memif::core
