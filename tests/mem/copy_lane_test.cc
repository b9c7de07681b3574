/**
 * @file
 * Tests for the copy lane behind mem::post_copy: posted spans land in
 * post order, a small copy queued behind a large one lands after it,
 * every PhysicalMemory byte accessor and ~PhysicalMemory wait for the
 * lane, copies below the threshold never start it, and a waiting thread
 * lands the spans of a parked lane itself.
 *
 * A lane belongs to the thread that posts, and its thread starts parked.
 * Tests that need a lane nobody wakes post with wake = false on a fresh
 * thread, so only a waiter can land those spans:
 * lane_copies_by_waiters() then counts exactly the spans a wait landed.
 */
#include "mem/copier.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "mem/phys.h"

namespace memif::mem {
namespace {

constexpr std::size_t kBig = std::size_t{1} << 20;

/** A buffer of @p n bytes whose contents depend on @p seed. */
std::vector<std::byte>
pattern(std::size_t n, unsigned seed)
{
    std::vector<std::byte> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<std::byte>((i * 29 + seed * 71) ^ (i >> 11));
    return v;
}

/** Run @p fn on a new thread, whose copy lane starts empty. */
template <typename Fn>
void
on_fresh_thread(Fn fn)
{
    std::thread t(fn);
    t.join();
}

TEST(CopyLane, PostedCopiesLandInFifoOrder)
{
    for (int round = 0; round < 8; ++round) {
        const std::vector<std::byte> a = pattern(kBig, round);
        std::vector<std::byte> b = pattern(kBig, round + 100);
        std::vector<std::byte> c = pattern(kBig, round + 200);
        const std::uint64_t posts = lane_posts();
        post_copy(b.data(), a.data(), kBig);
        post_copy(c.data(), b.data(), kBig);
        wait_copies();
        EXPECT_EQ(lane_posts(), posts + 2);
        ASSERT_TRUE(c == a) << "round " << round;
        ASSERT_TRUE(b == a) << "round " << round;
    }
}

TEST(CopyLane, SmallCopyQueuedBehindALargeOneLandsAfterIt)
{
    on_fresh_thread([] {
        const std::vector<std::byte> a = pattern(kBig, 1);
        std::vector<std::byte> b = pattern(kBig, 2);
        std::vector<std::byte> c(kPageSize);
        const std::uint64_t posts = lane_posts();
        // The large span sits on a parked lane, so the small copy that
        // reads its destination must queue behind it.
        post_copy(b.data(), a.data(), kBig, false);
        post_copy(c.data(), b.data() + 5, kPageSize, false);
        EXPECT_EQ(lane_posts(), posts + 2);
        wait_copies();
        EXPECT_EQ(std::memcmp(c.data(), a.data() + 5, kPageSize), 0);
    });
}

TEST(CopyLane, ByteAccessorsSeeEveryPostedByte)
{
    PhysicalMemory pm;
    const auto [slow, fast] = KeystoneMemory::build(pm, 16ull << 20);
    const unsigned order = 8;  // 1 MB blocks
    const std::uint64_t bytes = kPageSize << order;
    const Pfn src = pm.allocate(slow, order);
    const Pfn dst = pm.allocate(fast, order);
    const Pfn other = pm.allocate(slow, order);
    const std::uint64_t src_pa = src << kPageShift;
    const std::uint64_t dst_pa = dst << kPageShift;
    for (unsigned round = 0; round < 6; ++round) {
        const std::vector<std::byte> want = pattern(bytes, round);
        std::memcpy(pm.span(src, bytes), want.data(), bytes);
        ASSERT_TRUE(pm.post_copy_at(dst_pa, src_pa, bytes));
        switch (round % 3) {
        case 0:
            EXPECT_EQ(std::memcmp(pm.span(dst, bytes), want.data(), bytes),
                      0);
            break;
        case 1:
            EXPECT_EQ(std::memcmp(pm.try_span_at(dst_pa, bytes),
                                  want.data(), bytes),
                      0);
            break;
        default:
            pm.copy(other, dst, bytes);
            EXPECT_EQ(std::memcmp(pm.span(other, bytes), want.data(), bytes),
                      0);
        }
    }
    // A span that straddles two nodes is refused, and nothing is posted.
    const std::uint64_t posts = lane_posts();
    const std::uint64_t boundary = pm.node(fast).base_pfn() << kPageShift;
    EXPECT_FALSE(pm.post_copy_at(dst_pa, boundary - kPageSize, 2 * kPageSize));
    EXPECT_EQ(lane_posts(), posts);
}

TEST(CopyLane, PhysicalMemoryDestructorEmptiesTheLane)
{
    on_fresh_thread([] {
        const std::uint64_t by_waiters = lane_copies_by_waiters();
        {
            PhysicalMemory pm;
            const auto [slow, fast] = KeystoneMemory::build(pm, 16ull << 20);
            const Pfn src = pm.allocate(slow, 8);
            const Pfn dst = pm.allocate(fast, 8);
            // Nobody wakes the lane: only the destructor's wait can land
            // the span before the backing is unmapped.
            post_copy(pm.span(dst, kBig), pm.span(src, kBig), kBig, false);
            EXPECT_EQ(lane_copies_by_waiters(), by_waiters);
        }
        EXPECT_EQ(lane_copies_by_waiters(), by_waiters + 1);
    });
}

TEST(CopyLane, NeverStartsBelowTheThreshold)
{
    on_fresh_thread([] {
        const unsigned lanes = copy_lanes_started();
        const std::uint64_t posts = lane_posts();
        PhysicalMemory pm;
        const auto [slow, fast] = KeystoneMemory::build(pm, 16ull << 20);
        const Pfn src = pm.allocate(slow, 6);  // 256 KB blocks
        const Pfn dst = pm.allocate(fast, 6);
        const std::uint64_t src_pa = src << kPageShift;
        const std::uint64_t dst_pa = dst << kPageShift;
        std::memset(pm.span(src, kParallelCopyMin), 0x5D, kParallelCopyMin);
        for (std::uint64_t n = 1; n < kParallelCopyMin; n = n * 3 + 1)
            ASSERT_TRUE(pm.post_copy_at(dst_pa, src_pa, n));
        ASSERT_TRUE(pm.post_copy_at(dst_pa, src_pa, kParallelCopyMin - 1));
        std::vector<std::byte> a(kParallelCopyMin), b(kParallelCopyMin);
        post_copy(b.data(), a.data(), kParallelCopyMin - 1);
        EXPECT_EQ(copy_lanes_started(), lanes);
        EXPECT_EQ(lane_posts(), posts);
        EXPECT_EQ(std::memcmp(pm.span(dst, kParallelCopyMin - 1),
                              pm.span(src, kParallelCopyMin - 1),
                              kParallelCopyMin - 1),
                  0);

        // The first span at the threshold starts this thread's lane.
        post_copy(b.data(), a.data(), kParallelCopyMin);
        EXPECT_EQ(copy_lanes_started(), lanes + 1);
        EXPECT_EQ(lane_posts(), posts + 1);
        wait_copies();
    });
}

TEST(CopyLane, WaiterDrainsAParkedLane)
{
    on_fresh_thread([] {
        // A chain through more buffers than the lane holds: the posts
        // past kLaneDepth land the oldest span first, and the final
        // wait lands the rest, all on this thread.
        constexpr std::size_t kHops = 2 * kLaneDepth + 1;
        std::vector<std::vector<std::byte>> bufs;
        for (std::size_t i = 0; i <= kHops; ++i)
            bufs.push_back(pattern(kParallelCopyMin, 10 + i));
        const std::vector<std::byte> first = bufs[0];
        const std::uint64_t by_waiters = lane_copies_by_waiters();
        for (std::size_t i = 0; i < kHops; ++i)
            post_copy(bufs[i + 1].data(), bufs[i].data(), kParallelCopyMin,
                      false);
        EXPECT_EQ(lane_copies_by_waiters(), by_waiters + kHops - kLaneDepth);
        wait_copies();
        EXPECT_EQ(lane_copies_by_waiters(), by_waiters + kHops);
        for (std::size_t i = 1; i <= kHops; ++i)
            ASSERT_TRUE(bufs[i] == first) << "buffer " << i;
    });
}

TEST(CopyLane, LanesOfSeveralThreadsStayApart)
{
    // Each thread chains copies through its own lane while the others
    // do the same; every chain lands whole and in order.
    constexpr unsigned kThreads = 3;
    std::vector<int> bad(kThreads, 0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &bad] {
            for (unsigned r = 0; r < 6; ++r) {
                const std::vector<std::byte> a = pattern(kBig, t * 16 + r);
                std::vector<std::byte> b(kBig), c(kBig), d(kPageSize);
                post_copy(b.data(), a.data(), kBig);
                post_copy(c.data(), b.data(), kBig);
                post_copy(d.data(), c.data() + kBig / 2, kPageSize);
                wait_copies();
                bad[t] += c != a;
                bad[t] += std::memcmp(d.data(), a.data() + kBig / 2,
                                      kPageSize) != 0;
            }
        });
    }
    for (std::thread &th : threads) th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(bad[t], 0) << "thread " << t;
}

}  // namespace
}  // namespace memif::mem
