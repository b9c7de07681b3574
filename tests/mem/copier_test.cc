/**
 * @file
 * Tests for the host copier behind mem::post_copy and mem::copy_bytes:
 * every size and alignment lands exactly what memcpy would and nothing
 * outside the range, posted spans land in post order, every
 * PhysicalMemory byte accessor and ~PhysicalMemory wait for them,
 * copies below the threshold start nothing, the FIFOs of several
 * threads stay apart and share one set of copier threads, and a waiter
 * lands every span itself when no copier may serve its FIFO.
 *
 * A FIFO belongs to the thread that posts. Tests that change its copier
 * limit run on a fresh thread, so the limit dies with it; with the
 * limit at 0 only waits land spans, and copies_landed_by_waiters() then
 * counts exactly the spans a wait landed.
 */
#include "mem/copier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "mem/phys.h"
#include "sim/random.h"

namespace memif::mem {
namespace {

constexpr std::size_t kGuard = 128;
constexpr std::size_t kBig = std::size_t{1} << 20;
/** A limit no copier id reaches: every copier may serve. */
constexpr unsigned kAll = ~0u;

/** A buffer of @p n bytes whose contents depend on @p seed. Every
 *  8-byte word differs from every other, so a chunk landed at the wrong
 *  offset shows. Filled a word at a time: under TSan a byte-at-a-time
 *  fill cost more than the copies it fed. */
std::vector<std::byte>
pattern(std::size_t n, std::uint64_t seed)
{
    std::vector<std::byte> v(n);
    const std::uint64_t salt = seed * 0xBF58476D1CE4E5B9ull;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const std::uint64_t word = (i + 1) * 0x9E3779B97F4A7C15ull ^ salt;
        std::memcpy(v.data() + i, &word, 8);
    }
    for (; i < n; ++i) v[i] = static_cast<std::byte>(i ^ salt);
    return v;
}

/** Run @p fn on a new thread, whose FIFO starts empty. */
template <typename Fn>
void
on_fresh_thread(Fn fn)
{
    std::thread t(fn);
    t.join();
}

/** Copier threads this host runs: min(cores, kCopyCoreCap) - 1. */
unsigned
host_copiers()
{
    const unsigned cores = std::max(std::thread::hardware_concurrency(), 1u);
    return std::min(cores, kCopyCoreCap) - 1;
}

/** Threads of this process, from /proc/self/status (0 when unknown). */
unsigned
process_threads()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<unsigned>(std::stoul(line.substr(8)));
    return 0;
}

/** process_threads() once it is at most @p bound, or after about a
 *  second: a joined thread may still be counted for a moment. */
unsigned
process_threads_settled(unsigned bound)
{
    unsigned n = process_threads();
    for (int i = 0; i < 1000 && n > bound; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        n = process_threads();
    }
    return n;
}

/** Copy @p n bytes at the given offsets and check the destination
 *  is what memcpy would leave: the source bytes, and the guard bytes
 *  on both sides untouched. memcmp, not a byte loop, does the checks. */
void
check_copy(std::size_t n, std::size_t src_off, std::size_t dst_off,
           std::uint64_t seed)
{
    const std::vector<std::byte> src = pattern(src_off + n, seed);
    const std::vector<std::byte> guard(kGuard, std::byte{0xA5});
    std::vector<std::byte> dst(dst_off + n + kGuard, std::byte{0xA5});

    copy_bytes(dst.data() + dst_off, src.data() + src_off, n);
    const std::byte *landed = dst.data() + dst_off;
    ASSERT_EQ(std::memcmp(dst.data(), guard.data(), dst_off), 0)
        << "guard before " << n << " bytes to +" << dst_off;
    if (n > 0) {  // an empty source has no data() to hand memcmp
        ASSERT_EQ(std::memcmp(landed, src.data() + src_off, n), 0)
            << n << " bytes from +" << src_off << " to +" << dst_off;
    }
    ASSERT_EQ(std::memcmp(landed + n, guard.data(), kGuard), 0)
        << "guard after " << n << " bytes to +" << dst_off;
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
    // No copier, one, and all of them serve the FIFO.
    for (const unsigned limit : {0u, 1u, kAll}) {
        on_fresh_thread([&] {
            set_copier_limit(limit);
            std::uint64_t seed = limit;
            for (const std::size_t n : sizes)
                for (const std::size_t src_off : {0, 5})
                    for (const std::size_t dst_off : {0, 3})
                        check_copy(n, src_off, dst_off, seed++);
        });
    }
}

TEST(Copier, OverlappingRangesMove)
{
    for (const std::ptrdiff_t shift : {100, -100}) {
        std::vector<std::byte> buf = pattern(kParallelCopyMin * 2, 3);
        std::byte *from = buf.data() + (shift < 0 ? 100 : 0);
        std::vector<std::byte> want = buf;
        std::memmove(want.data() + (from - buf.data()) + shift,
                     want.data() + (from - buf.data()), kParallelCopyMin);
        copy_bytes(from + shift, from, kParallelCopyMin);
        EXPECT_TRUE(buf == want) << "shift " << shift;
        // The same move posted behind a large span.
        const std::vector<std::byte> fresh = pattern(buf.size(), 3);
        std::copy(fresh.begin(), fresh.end(), buf.begin());
        const std::vector<std::byte> big = pattern(kBig, 4);
        std::vector<std::byte> other(kBig);
        post_copy(other.data(), big.data(), kBig);
        post_copy(from + shift, from, kParallelCopyMin);
        wait_copies();
        EXPECT_TRUE(other == big);
        EXPECT_TRUE(buf == want) << "shift " << shift << ", posted";
    }
}

TEST(Copier, PostedCopiesLandInFifoOrder)
{
    for (int round = 0; round < 8; ++round) {
        const std::vector<std::byte> a = pattern(kBig, round);
        std::vector<std::byte> b = pattern(kBig, round + 100);
        std::vector<std::byte> c = pattern(kBig, round + 200);
        const std::uint64_t posts = copies_posted();
        post_copy(b.data(), a.data(), kBig);
        post_copy(c.data(), b.data(), kBig);
        wait_copies();
        EXPECT_EQ(copies_posted(), posts + 2);
        ASSERT_TRUE(c == a) << "round " << round;
        ASSERT_TRUE(b == a) << "round " << round;
    }
}

TEST(Copier, SmallCopyQueuedBehindALargeOneLandsAfterIt)
{
    on_fresh_thread([] {
        set_copier_limit(0);
        const std::vector<std::byte> a = pattern(kBig, 1);
        std::vector<std::byte> b = pattern(kBig, 2);
        std::vector<std::byte> c(kPageSize);
        const std::uint64_t posts = copies_posted();
        // No copier serves the large span, so the small copy that reads
        // its destination must queue behind it.
        post_copy(b.data(), a.data(), kBig);
        post_copy(c.data(), b.data() + 5, kPageSize);
        EXPECT_EQ(copies_posted(), posts + 2);
        wait_copies();
        EXPECT_EQ(std::memcmp(c.data(), a.data() + 5, kPageSize), 0);
    });
}

TEST(Copier, ByteAccessorsSeeEveryPostedByte)
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
    const std::uint64_t posts = copies_posted();
    const std::uint64_t boundary = pm.node(fast).base_pfn() << kPageShift;
    EXPECT_FALSE(pm.post_copy_at(dst_pa, boundary - kPageSize, 2 * kPageSize));
    EXPECT_EQ(copies_posted(), posts);
}

TEST(Copier, PhysicalMemoryDestructorEmptiesTheFifo)
{
    on_fresh_thread([] {
        set_copier_limit(0);
        const std::uint64_t by_waiters = copies_landed_by_waiters();
        {
            PhysicalMemory pm;
            const auto [slow, fast] = KeystoneMemory::build(pm, 16ull << 20);
            const Pfn src = pm.allocate(slow, 8);
            const Pfn dst = pm.allocate(fast, 8);
            // No copier serves the FIFO: only the destructor's wait can
            // land the span before the backing is unmapped.
            post_copy(pm.span(dst, kBig), pm.span(src, kBig), kBig);
            EXPECT_EQ(copies_landed_by_waiters(), by_waiters);
        }
        EXPECT_EQ(copies_landed_by_waiters(), by_waiters + 1);
    });
}

TEST(Copier, NeverStartsBelowTheThreshold)
{
    on_fresh_thread([] {
        const unsigned started = copiers_started();
        const std::uint64_t posts = copies_posted();
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
        for (std::uint64_t pages = 1; pages < kParallelCopyMin / kPageSize;
             pages *= 2)
            pm.copy(dst, src, pages * kPageSize);
        pm.copy(dst, src, kParallelCopyMin - kPageSize);
        std::vector<std::byte> a(kParallelCopyMin), b(kParallelCopyMin);
        post_copy(b.data(), a.data(), kParallelCopyMin - 1);
        copy_bytes(b.data(), a.data(), kParallelCopyMin - 1);
        EXPECT_EQ(copiers_started(), started);
        EXPECT_EQ(copies_posted(), posts);
        EXPECT_EQ(std::memcmp(pm.span(dst, kParallelCopyMin - 1),
                              pm.span(src, kParallelCopyMin - 1),
                              kParallelCopyMin - 1),
                  0);

        // The first span at the threshold is posted and starts the
        // copiers (if an earlier test has not).
        post_copy(b.data(), a.data(), kParallelCopyMin);
        EXPECT_EQ(copiers_started(), host_copiers());
        EXPECT_EQ(copies_posted(), posts + 1);
        wait_copies();
    });
}

TEST(Copier, WaiterLandsEverySpanWithNoCopier)
{
    on_fresh_thread([] {
        set_copier_limit(0);
        // A chain through more buffers than the FIFO holds: the posts
        // past kLaneDepth land the oldest span first, and the final
        // wait lands the rest, all on this thread.
        constexpr std::size_t kHops = 2 * kLaneDepth + 1;
        std::vector<std::vector<std::byte>> bufs;
        for (std::size_t i = 0; i <= kHops; ++i)
            bufs.push_back(pattern(kParallelCopyMin, 10 + i));
        const std::vector<std::byte> first = bufs[0];
        const std::uint64_t by_waiters = copies_landed_by_waiters();
        for (std::size_t i = 0; i < kHops; ++i)
            post_copy(bufs[i + 1].data(), bufs[i].data(), kParallelCopyMin);
        EXPECT_EQ(copies_landed_by_waiters(),
                  by_waiters + kHops - kLaneDepth);
        wait_copies();
        EXPECT_EQ(copies_landed_by_waiters(), by_waiters + kHops);
        for (std::size_t i = 1; i <= kHops; ++i)
            ASSERT_TRUE(bufs[i] == first) << "buffer " << i;
    });
}

TEST(Copier, WaiterReturnsWhenCopiersLandItsTarget)
{
    // Copiers race the waiter for every chunk, so many of these waits
    // spin while a copier lands the last chunk of the target span (or
    // of one before it); each must still return once its target lands.
    // With copiers running, the rounds go on (for at most about 10 s of
    // a busy host) until a copier has landed some span's last chunk.
    // Spans stay within one chunk of kParallelCopyMin: four full chunks
    // and a last one of any length give the same races as longer spans
    // at under half the bytes to copy and compare (under TSan the
    // compare took about 70% of the test's time).
    constexpr int kRounds = 1500;
    std::vector<std::byte> a = pattern(kParallelCopyMin + kCopyChunk, 5);
    std::vector<std::byte> b(a.size()), c(kCopyChunk);
    sim::Rng rng(7);
    const std::uint64_t by_waiters = copies_landed_by_waiters();
    const auto until = std::chrono::steady_clock::now() +
                       std::chrono::seconds(10);
    std::uint64_t spans = 0;
    const auto copiers_landed = [&] {
        return copies_landed_by_waiters() - by_waiters < spans;
    };
    for (int r = 0;
         r < kRounds || (copiers_started() > 0 && !copiers_landed() &&
                         std::chrono::steady_clock::now() < until);
         ++r) {
        const std::size_t n = kParallelCopyMin + rng.next_below(kCopyChunk);
        a[r % n] = static_cast<std::byte>(r);
        post_copy(b.data(), a.data(), n);
        if (r % 2 != 0) post_copy(c.data(), b.data() + n - kPageSize, 64);
        spans += 1 + r % 2;
        wait_copies();
        ASSERT_EQ(std::memcmp(b.data(), a.data(), n), 0) << "round " << r;
        if (r % 2 != 0) {
            ASSERT_EQ(std::memcmp(c.data(), a.data() + n - kPageSize, 64), 0)
                << "round " << r;
        }
    }
    if (copiers_started() > 0) {
        EXPECT_TRUE(copiers_landed());
    }
}

TEST(Copier, ConcurrentCallersEachLandTheirBytes)
{
    // Each thread chains posted copies through its own FIFO and makes
    // synchronous ones, while the others do the same; every chain lands
    // whole and in order, and nothing lands outside its range.
    constexpr unsigned kThreads = 4;
    std::vector<int> bad(kThreads, 0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &bad] {
            for (unsigned r = 0; r < 6; ++r) {
                const std::vector<std::byte> a = pattern(kBig, t * 16 + r);
                std::vector<std::byte> b(kBig), c(kBig), d(kPageSize);
                std::vector<std::byte> e(kBig + kGuard, std::byte{0xEE});
                post_copy(b.data(), a.data(), kBig);
                post_copy(c.data(), b.data(), kBig);
                post_copy(d.data(), c.data() + kBig / 2, kPageSize);
                wait_copies();
                copy_bytes(e.data(), c.data(), kBig);
                bad[t] += c != a;
                bad[t] += std::memcmp(d.data(), a.data() + kBig / 2,
                                      kPageSize) != 0;
                bad[t] += std::memcmp(e.data(), a.data(), kBig) != 0;
                for (std::size_t i = kBig; i < e.size(); ++i)
                    bad[t] += e[i] != std::byte{0xEE};
            }
        });
    }
    for (std::thread &th : threads) th.join();
    for (unsigned t = 0; t < kThreads; ++t)
        EXPECT_EQ(bad[t], 0) << "thread " << t;
}

TEST(Copier, PostingThreadsShareOneSetOfCopiers)
{
    // Four threads each post a large span at once: they share the
    // process's copier threads instead of starting threads of their
    // own.
    const unsigned threads_before = process_threads();
    const unsigned copiers_before = copiers_started();
    std::vector<std::thread> threads;
    std::vector<int> bad(4, 0);
    for (unsigned t = 0; t < 4; ++t) {
        threads.emplace_back([t, &bad] {
            const std::vector<std::byte> a = pattern(kBig, 40 + t);
            std::vector<std::byte> b(kBig);
            post_copy(b.data(), a.data(), kBig);
            wait_copies();
            bad[t] += b != a;
        });
    }
    for (std::thread &th : threads) th.join();
    for (unsigned t = 0; t < 4; ++t) EXPECT_EQ(bad[t], 0) << "thread " << t;
    EXPECT_EQ(copiers_started(), host_copiers());
    if (threads_before > 0) {
        const unsigned bound =
            threads_before + host_copiers() - copiers_before;
        EXPECT_LE(process_threads_settled(bound), bound);
    }
}

}  // namespace
}  // namespace memif::mem
