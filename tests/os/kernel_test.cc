/**
 * @file
 * Unit tests for the Kernel facade and Process basics.
 */
#include "os/kernel.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "mem/copier.h"
#include "os/process.h"
#include "sim/types.h"

namespace memif::os {
namespace {

TEST(Kernel, BuildsKeystoneMachine)
{
    Kernel k;
    EXPECT_EQ(k.phys().node_count(), 2u);
    EXPECT_TRUE(k.phys().node(k.fast_node()).is_fast());
    EXPECT_FALSE(k.phys().node(k.slow_node()).is_fast());
    EXPECT_EQ(k.cpu().num_cores(), 4u);
}

TEST(Kernel, CreateProcessAssignsPids)
{
    Kernel k;
    Process &a = k.create_process();
    Process &b = k.create_process();
    EXPECT_NE(a.pid(), b.pid());
    EXPECT_EQ(k.process_count(), 2u);
}

TEST(Kernel, SyscallCrossingChargesCost)
{
    Kernel k;
    auto coro = [&]() -> sim::Task { co_await k.syscall_crossing(); };
    sim::Task t = coro();
    k.run();
    EXPECT_EQ(k.eq().now(), k.costs().syscall_crossing);
    EXPECT_EQ(k.cpu().accounting().op(sim::Op::kSyscall),
              k.costs().syscall_crossing);
}

TEST(Kernel, SpawnKeepsTasksAliveUntilDone)
{
    Kernel k;
    int finished = 0;
    // The lambda outlives every spawned frame (closure is not copied
    // into coroutine frames; the index is a by-value parameter).
    auto coro = [&k, &finished](int i) -> sim::Task {
        co_await sim::Delay{k.eq(),
                            static_cast<sim::Duration>(100 * (i + 1))};
        ++finished;
    };
    for (int i = 0; i < 5; ++i) k.spawn(coro(i));
    k.run();
    EXPECT_EQ(finished, 5);
}

TEST(Kernel, SpawnRethrowsSynchronousFailures)
{
    Kernel k;
    auto bad = []() -> sim::Task {
        throw std::runtime_error("sync failure");
        co_return;
    };
    EXPECT_THROW(k.spawn(bad()), std::runtime_error);
}

TEST(Process, MmapDefaultsToSlowNode)
{
    Kernel k;
    Process &p = k.create_process();
    const vm::VAddr base = p.mmap(4096, vm::PageSize::k4K);
    ASSERT_NE(base, 0u);
    const vm::Vma *vma = p.as().find_vma(base);
    EXPECT_EQ(k.phys().node_of(vma->pte(0).pfn), k.slow_node());
}

TEST(Process, StreamComputeIsBandwidthBound)
{
    Kernel k;
    Process &p = k.create_process();
    const vm::VAddr slow_buf = p.mmap(1 << 20, vm::PageSize::k4K);
    const vm::VAddr fast_buf =
        p.mmap(1 << 20, vm::PageSize::k4K, k.fast_node());

    sim::Duration slow_d = 0, fast_d = 0;
    auto coro = [&]() -> sim::Task {
        co_await p.stream_compute(slow_buf, 1 << 20, 1e12, &slow_d);
        co_await p.stream_compute(fast_buf, 1 << 20, 1e12, &fast_d);
    };
    sim::Task t = coro();
    k.run();
    // 6.2 GB/s vs 24 GB/s: the fast buffer streams ~3.9x faster.
    EXPECT_GT(slow_d, 3 * fast_d);
    EXPECT_LT(slow_d, 5 * fast_d);
}

TEST(Kernel, RunReturnsWithTheCopyFifoEmpty)
{
    // On a fresh thread whose FIFO no copier may serve, only run()'s own
    // wait can land the span posted by an event.
    std::thread t([] {
        mem::set_copier_limit(0);
        Kernel k;
        mem::PhysicalMemory &pm = k.phys();
        const std::uint64_t bytes = std::uint64_t{1} << 20;
        const mem::Pfn src = pm.allocate(k.slow_node(), 8);
        const mem::Pfn dst = pm.allocate(k.fast_node(), 8);
        std::memset(pm.span(src, bytes), 0x6B, bytes);
        std::byte *to = pm.span(dst, bytes);
        const std::byte *from = pm.span(src, bytes);
        k.eq().schedule_after(10, [=] { mem::post_copy(to, from, bytes); });
        const std::uint64_t by_waiters = mem::copies_landed_by_waiters();
        k.run();
        EXPECT_EQ(mem::copies_landed_by_waiters(), by_waiters + 1);
        EXPECT_EQ(std::memcmp(to, from, bytes), 0);
    });
    t.join();
}

}  // namespace
}  // namespace memif::os
