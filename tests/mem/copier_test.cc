/**
 * @file
 * Tests for mem::copy_bytes: every size and alignment lands exactly what
 * memcpy would and nothing outside the range, with helpers or without,
 * from several threads at once; copies below the threshold start no
 * helper. The explicit helper counts make the pool run on any host, so
 * a sanitizer build checks the join/leave protocol everywhere.
 */
#include "mem/copier.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "mem/phys.h"
#include "sim/random.h"

namespace memif::mem {
namespace {

constexpr std::size_t kGuard = 128;

/** Copy @p n bytes at the given offsets with @p helpers and check the
 *  destination against memcpy, guard bytes included. */
void
check_copy(std::size_t n, std::size_t src_off, std::size_t dst_off,
           unsigned helpers, std::uint64_t seed)
{
    std::vector<std::byte> src(src_off + n);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<std::byte>((i * 131 + seed * 17) ^ (i >> 9));
    std::vector<std::byte> dst(dst_off + n + kGuard, std::byte{0xA5});
    std::vector<std::byte> want = dst;
    if (n > 0) std::memcpy(want.data() + dst_off, src.data() + src_off, n);

    copy_bytes(dst.data() + dst_off, src.data() + src_off, n, helpers);
    ASSERT_TRUE(dst == want) << n << " bytes from +" << src_off << " to +"
                             << dst_off << " with " << helpers
                             << " helpers";
}

TEST(Copier, EverySizeMatchesMemcpy)
{
    std::vector<std::size_t> sizes = {0,
                                      1,
                                      kParallelCopyMin - 1,
                                      kParallelCopyMin,
                                      kParallelCopyMin + 1,
                                      kParallelCopyMin + kCopyChunk / 2 + 3,
                                      5 * kCopyChunk + 4097,
                                      std::size_t{2} << 20};
    sim::Rng rng(41);
    for (int i = 0; i < 6; ++i)
        sizes.push_back(rng.next_below(std::size_t{3} << 20));
    std::uint64_t seed = 1;
    for (const std::size_t n : sizes)
        for (const unsigned helpers : {0u, 2u, 3u})
            for (const std::size_t src_off : {0, 5})
                for (const std::size_t dst_off : {0, 3})
                    check_copy(n, src_off, dst_off, helpers, seed++);
}

TEST(Copier, OverlappingRangesMove)
{
    std::vector<std::byte> buf(kParallelCopyMin * 2);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<std::byte>(i * 7);
    std::vector<std::byte> want = buf;
    std::memmove(want.data() + 100, want.data(), kParallelCopyMin);
    copy_bytes(buf.data() + 100, buf.data(), kParallelCopyMin, 2);
    EXPECT_TRUE(buf == want);
}

TEST(Copier, ConcurrentCallersEachLandTheirBytes)
{
    // Four threads copy at once: one holds the pool at a time and the
    // others copy serially, and every span lands whole.
    constexpr unsigned kThreads = 4;
    constexpr int kRounds = 12;
    constexpr std::size_t kBytes = std::size_t{1} << 20;
    std::vector<std::thread> threads;
    std::vector<int> bad(kThreads, 0);
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &bad] {
            std::vector<std::byte> src(kBytes), dst(kBytes + kGuard);
            for (int r = 0; r < kRounds; ++r) {
                const auto tag = static_cast<std::byte>(t * 16 + r);
                std::memset(src.data(), static_cast<int>(tag), kBytes);
                std::memset(dst.data(), 0xEE, dst.size());
                copy_bytes(dst.data(), src.data(), kBytes, 2 + t % 2);
                for (std::size_t i = 0; i < kBytes; ++i)
                    bad[t] += dst[i] != tag;
                for (std::size_t i = kBytes; i < dst.size(); ++i)
                    bad[t] += dst[i] != std::byte{0xEE};
            }
        });
    }
    for (std::thread &th : threads) th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(bad[t], 0) << "thread " << t;
}

TEST(Copier, CopiesBelowTheThresholdStartNoHelper)
{
    const unsigned started = copy_helpers_started();
    const std::uint64_t spans = parallel_copies();

    // A run of node-to-node copies that all stay below the threshold.
    PhysicalMemory pm;
    const auto [slow, fast] = KeystoneMemory::build(pm, 16ull << 20);
    const Pfn src = pm.allocate(slow, 6);  // 256 KB blocks
    const Pfn dst = pm.allocate(fast, 6);
    std::memset(pm.span(src, kParallelCopyMin), 0x3C, kParallelCopyMin);
    for (std::uint64_t pages = 1; pages < kParallelCopyMin / kPageSize;
         pages *= 2)
        pm.copy(dst, src, pages * kPageSize);
    pm.copy(dst, src, kParallelCopyMin - kPageSize);
    std::vector<std::byte> a(kParallelCopyMin), b(kParallelCopyMin);
    copy_bytes(b.data(), a.data(), kParallelCopyMin - 1);
    EXPECT_EQ(copy_helpers_started(), started);
    EXPECT_EQ(parallel_copies(), spans);

    // The first span at the threshold starts the pool (when asked for
    // helpers) and is split over it.
    copy_bytes(b.data(), a.data(), kParallelCopyMin, 2);
    EXPECT_GE(copy_helpers_started(), 2u);
    EXPECT_EQ(parallel_copies(), spans + 1);
    EXPECT_EQ(std::memcmp(pm.span(dst, kParallelCopyMin - kPageSize),
                          pm.span(src, kParallelCopyMin - kPageSize),
                          kParallelCopyMin - kPageSize),
              0);
}

}  // namespace
}  // namespace memif::mem
