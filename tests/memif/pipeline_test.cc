/**
 * @file
 * Tests for the throughput-pipeline levers (SG coalescing, multi-TC
 * dispatch, batched TLB shootdown): each must be byte-identical to the
 * paper-default path — including under injected DMA errors, where
 * retries and the CPU fallback replay the coalesced SG — while the
 * DeviceStats counters attribute what each lever actually did. Also
 * covers mixed-granularity replication (the destination walk uses the
 * destination VMA's geometry) and descriptor-capacity fairness at the
 * device level.
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include <vector>

#include "dma/engine.h"
#include "memif/user_api.h"
#include "memif_fixture.h"
#include "os/kernel.h"
#include "os/process.h"
#include "sim/types.h"

namespace memif::core {
namespace {

using Fixture = test::MemifFixture;

unsigned
tcs_used(const DeviceStats &stats)
{
    unsigned n = 0;
    for (const std::uint64_t d : stats.tc_dispatches)
        if (d) ++n;
    return n;
}

TEST(Pipeline, CoalescedMigrationIsByteIdentical)
{
    MemifConfig cfg;
    cfg.sg_coalescing = true;
    Fixture f(cfg);
    const vm::VAddr base = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
    f.fill(base, 64 * 4096, 23);

    const std::uint32_t idx =
        f.submit(MovOp::kMigrate, base, 64, f.kernel.fast_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 64 * 4096, 23));
    vm::Vma *vma = f.proc.as().find_vma(base);
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(f.kernel.phys().node_of(vma->pte(i).pfn),
                  f.kernel.fast_node());
    // The buddy allocator hands back adjacent frames, so the 64-entry
    // list collapses; every original entry is accounted for either as
    // an emitted run or a saved descriptor write.
    const DeviceStats &s = f.dev.stats();
    EXPECT_LT(s.sg_entries_emitted, 64u);
    EXPECT_EQ(s.sg_entries_emitted + s.descriptor_writes_saved, 64u);
}

TEST(Pipeline, CoalescedReplicationIsByteIdentical)
{
    MemifConfig cfg;
    cfg.sg_coalescing = true;
    Fixture f(cfg);
    const vm::VAddr src = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(64 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(src, 64 * 4096, 41);

    const std::uint32_t idx = f.submit(MovOp::kReplicate, src, 64, dst);
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst, 64 * 4096, 41));
    EXPECT_TRUE(f.check(src, 64 * 4096, 41));
    EXPECT_LT(f.dev.stats().sg_entries_emitted, 64u);
}

TEST(Pipeline, CoalescedFallbackUnderTcErrorsMatchesUncoalesced)
{
    // Retries and the CPU fallback replay the *coalesced* SG; with
    // every transfer erroring out, both configurations must still land
    // the exact same bytes (the acceptance property: coalescing is
    // invisible except in time and counters).
    for (const bool coalesce : {false, true}) {
        MemifConfig cfg;
        cfg.sg_coalescing = coalesce;
        Fixture f(cfg);
        const vm::VAddr src = f.proc.mmap(32 * 4096, vm::PageSize::k4K);
        const vm::VAddr dst =
            f.proc.mmap(32 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
        f.fill(src, 32 * 4096, 67);
        f.faults().arm_probability(dma::kFaultTcError, 1.0);

        const std::uint32_t idx = f.submit(MovOp::kReplicate, src, 32, dst);
        f.kernel.run();

        EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
        EXPECT_TRUE(f.check(dst, 32 * 4096, 67)) << "coalesce=" << coalesce;
        EXPECT_EQ(f.dev.stats().fallback_copies, 1u);
        EXPECT_EQ(f.dev.stats().dma_retries, 3u);
    }
}

TEST(Pipeline, CoalescedMidChainErrorMigrationRecovers)
{
    // A mid-stream TC error on a coalesced migration: the retry path
    // replays the coalesced SG and the final memory image matches the
    // default path bit for bit.
    for (const bool coalesce : {false, true}) {
        MemifConfig cfg;
        cfg.sg_coalescing = coalesce;
        Fixture f(cfg);
        const vm::VAddr base = f.proc.mmap(32 * 4096, vm::PageSize::k4K);
        f.fill(base, 32 * 4096, 19);
        f.faults().arm_nth(dma::kFaultTcError, 1);  // first transfer dies

        const std::uint32_t idx =
            f.submit(MovOp::kMigrate, base, 32, f.kernel.fast_node());
        f.kernel.run();

        EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
        EXPECT_TRUE(f.check(base, 32 * 4096, 19)) << "coalesce=" << coalesce;
        vm::Vma *vma = f.proc.as().find_vma(base);
        for (std::uint64_t i = 0; i < 32; ++i)
            EXPECT_EQ(f.kernel.phys().node_of(vma->pte(i).pfn),
                      f.kernel.fast_node());
        EXPECT_EQ(f.dev.stats().dma_retries, 1u);
        EXPECT_EQ(f.dev.stats().fallback_copies, 0u);
    }
}

TEST(Pipeline, BatchedShootdownFlushesOncePerVma)
{
    MemifConfig cfg;
    cfg.batched_tlb_shootdown = true;
    Fixture f(cfg);
    const vm::VAddr base = f.proc.mmap(32 * 4096, vm::PageSize::k4K);
    f.fill(base, 32 * 4096, 51);

    const std::uint32_t idx =
        f.submit(MovOp::kMigrate, base, 32, f.kernel.fast_node());
    f.kernel.run();

    EXPECT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(base, 32 * 4096, 51));
    // One VMA dirtied -> exactly one ranged flush instead of 32
    // per-page broadcasts.
    EXPECT_EQ(f.dev.stats().ranged_tlb_flushes, 1u);
}

TEST(Pipeline, MultiTcDispatchSpreadsAcrossControllers)
{
    Fixture f(MemifConfig::pipelined());
    const vm::VAddr src = f.proc.mmap(128 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst =
        f.proc.mmap(128 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(src, 128 * 4096, 3);

    auto app = [&]() -> sim::Task {
        for (int r = 0; r < 8; ++r) {
            const std::uint32_t idx = f.user.alloc_request();
            MovReq &req = f.user.request(idx);
            req.op = MovOp::kReplicate;
            req.src_base = src + static_cast<vm::VAddr>(r) * 16 * 4096;
            req.dst_base = dst + static_cast<vm::VAddr>(r) * 16 * 4096;
            req.num_pages = 16;
            co_await f.user.submit(idx);
        }
    };
    f.kernel.spawn(app());
    f.kernel.run();

    EXPECT_TRUE(f.check(dst, 128 * 4096, 3));
    int completed = 0;
    while (f.user.retrieve_completed() != kNoRequest) ++completed;
    EXPECT_EQ(completed, 8);
    // The kthread configures request N+1 while N is still copying, so
    // the stream spreads over more than one transfer controller (and
    // never drops to polled mode, which would serialise it).
    EXPECT_GE(tcs_used(f.dev.stats()), 2u);
    EXPECT_EQ(f.dev.stats().polled_completions, 0u);
    // Wakeup accounting: every notify is counted exactly once, split by
    // whether it found the thread asleep. A pipelined stream must hit
    // both cases — first IRQ wakes the thread, later IRQs land while it
    // is still draining (the undercount the split was added to expose).
    const DeviceStats &s = f.dev.stats();
    EXPECT_EQ(s.kthread_wakeups,
              s.wakeups_from_sleep + s.notifies_while_running);
    EXPECT_GT(s.wakeups_from_sleep, 0u);
    EXPECT_GT(s.notifies_while_running, 0u);
}

TEST(Pipeline, ReplicationAcrossMixedPageSizesBothDirections)
{
    // 4 KB source pages into a 64 KB destination region: the
    // destination walk must use the destination VMA's geometry (4
    // large pages, not 64), and chunks are emitted at the finer 4 KB
    // granularity.
    Fixture f;
    const vm::VAddr src4 = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst64 =
        f.proc.mmap(4 * 65536, vm::PageSize::k64K, f.kernel.fast_node());
    f.fill(src4, 64 * 4096, 81);
    const std::uint32_t a = f.submit(MovOp::kReplicate, src4, 64, dst64);
    f.kernel.run();
    ASSERT_EQ(f.user.request(a).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst64, 64 * 4096, 81));

    // And the reverse: 64 KB source pages into a 4 KB region.
    const vm::VAddr src64 = f.proc.mmap(4 * 65536, vm::PageSize::k64K);
    const vm::VAddr dst4 =
        f.proc.mmap(64 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(src64, 4 * 65536, 82);
    const std::uint32_t b = f.submit(MovOp::kReplicate, src64, 4, dst4);
    f.kernel.run();
    ASSERT_EQ(f.user.request(b).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst4, 4 * 65536, 82));
}

TEST(Pipeline, MixedPageSizeReplicationWithCoalescing)
{
    // The same cross-granularity replication with the pipeline levers
    // on: coalescing merges the within-large-page runs back together,
    // and the result is still byte-identical.
    Fixture f(MemifConfig::pipelined());
    const vm::VAddr src4 = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
    const vm::VAddr dst64 =
        f.proc.mmap(4 * 65536, vm::PageSize::k64K, f.kernel.fast_node());
    f.fill(src4, 64 * 4096, 91);
    const std::uint32_t idx = f.submit(MovOp::kReplicate, src4, 64, dst64);
    f.kernel.run();
    ASSERT_EQ(f.user.request(idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(dst64, 64 * 4096, 91));
    EXPECT_LT(f.dev.stats().sg_entries_emitted, 64u);
}

TEST(Pipeline, ParamSizedRequestCompletesAmongSmallStream)
{
    // Device-level FIFO fairness: a request needing the whole 512-entry
    // PaRAM, submitted into a stream of small pipelined requests, must
    // still complete (the capacity gate queues it ahead of later small
    // ones instead of letting them starve it).
    Fixture f(MemifConfig::pipelined());
    const vm::VAddr big = f.proc.mmap(512 * 4096, vm::PageSize::k4K);
    const vm::VAddr small_src = f.proc.mmap(64 * 4096, vm::PageSize::k4K);
    const vm::VAddr small_dst =
        f.proc.mmap(64 * 4096, vm::PageSize::k4K, f.kernel.fast_node());
    f.fill(big, 512 * 4096, 7);
    f.fill(small_src, 64 * 4096, 8);

    std::uint32_t big_idx = kNoRequest;
    auto app = [&]() -> sim::Task {
        for (int r = 0; r < 8; ++r) {
            if (r == 2) {
                big_idx = f.user.alloc_request();
                MovReq &req = f.user.request(big_idx);
                req.op = MovOp::kMigrate;
                req.src_base = big;
                req.num_pages = 512;  // the whole PaRAM
                req.dst_node = f.kernel.fast_node();
                co_await f.user.submit(big_idx);
            }
            const std::uint32_t idx = f.user.alloc_request();
            MovReq &req = f.user.request(idx);
            req.op = MovOp::kReplicate;
            req.src_base = small_src + static_cast<vm::VAddr>(r) * 8 * 4096;
            req.dst_base = small_dst + static_cast<vm::VAddr>(r) * 8 * 4096;
            req.num_pages = 8;
            co_await f.user.submit(idx);
        }
    };
    f.kernel.spawn(app());
    f.kernel.run();

    ASSERT_NE(big_idx, kNoRequest);
    EXPECT_EQ(f.user.request(big_idx).load_status(), MovStatus::kDone);
    EXPECT_TRUE(f.check(big, 512 * 4096, 7));
    EXPECT_TRUE(f.check(small_dst, 64 * 4096, 8));
    int completed = 0;
    while (f.user.retrieve_completed() != kNoRequest) ++completed;
    EXPECT_EQ(completed, 9);
    EXPECT_TRUE(f.dev.idle());
}

}  // namespace
}  // namespace memif::core
