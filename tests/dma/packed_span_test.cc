/**
 * @file
 * Oracle tests for packed frames: a frame whose arrays sit back to back
 * on both sides (BIDX == ACNT) lands as one span through
 * mem::post_copy. Whatever the engine does, the bytes and
 * `bytes_copied` must be those of a naive per-array walk: at unaligned
 * offsets, across the parallel-copy threshold, when the run straddles
 * the boundary between two nodes, and for strided and 3D geometries
 * that stay on the walk. A frame of 256 KB or more is posted to the
 * thread's copy FIFO, and what reads it afterwards sees it landed.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "dma/descriptor.h"
#include "dma/engine.h"
#include "mem/copier.h"
#include "mem/phys.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"

namespace memif::dma {
namespace {

struct Fixture {
    sim::EventQueue eq;
    mem::PhysicalMemory pm;
    sim::CostModel cm;
    mem::NodeId slow, fast;
    Edma3Engine engine{eq, pm, cm};

    Fixture()
    {
        auto ids = mem::KeystoneMemory::build(pm, 16ull << 20);
        slow = ids.first;
        fast = ids.second;
    }

    /** First byte address of @p node. */
    std::uint64_t
    base(mem::NodeId node) const
    {
        return pm.node(node).base_pfn() << mem::kPageShift;
    }

    /** Host pointer to @p len bytes at @p pa (inside one node), found
     *  through PhysicalMemory::span, which asserts that. */
    std::byte *
    at(std::uint64_t pa, std::uint64_t len)
    {
        const std::uint64_t off = pa & (mem::kPageSize - 1);
        return pm.span(pa >> mem::kPageShift, off + len) + off;
    }

    /** Fill [pa, pa + len) with a pattern seeded by @p s, one page at a
     *  time so the range may straddle two nodes. */
    void
    fill(std::uint64_t pa, std::uint64_t len, std::uint8_t s)
    {
        for (std::uint64_t i = 0; i < len;) {
            const std::uint64_t n =
                std::min(len - i, mem::kPageSize - ((pa + i) & 4095));
            std::byte *p = at(pa + i, n);
            for (std::uint64_t k = 0; k < n; ++k, ++i)
                p[k] = static_cast<std::byte>(s + i * 13 + (i >> 8));
        }
    }

    /** One array the walk lands: destination address and its bytes. */
    using Landed = std::pair<std::uint64_t, std::vector<std::byte>>;

    /** What a naive per-array walk of @p d lands, read before it runs. */
    std::vector<Landed>
    walk(const TransferDescriptor &d)
    {
        std::vector<Landed> out;
        for (std::uint32_t c = 0; c < (d.c_cnt ? d.c_cnt : 1); ++c) {
            for (std::uint32_t b = 0; b < d.b_cnt; ++b) {
                const std::uint64_t src = d.src +
                                          c * std::int64_t{d.src_cidx} +
                                          b * std::int64_t{d.src_bidx};
                const std::uint64_t dst = d.dst +
                                          c * std::int64_t{d.dst_cidx} +
                                          b * std::int64_t{d.dst_bidx};
                const std::byte *p = at(src, d.a_cnt);
                out.emplace_back(dst, std::vector<std::byte>(p, p + d.a_cnt));
            }
        }
        return out;
    }

    /** Run @p d alone on the engine and check it against walk(). */
    void
    check(const TransferDescriptor &d)
    {
        const std::vector<Landed> want = walk(d);
        const std::uint64_t before = engine.stats().bytes_copied;
        engine.param_ram().write_full(0, d);
        engine.start_chain(0, 0, false, nullptr);
        eq.run();
        EXPECT_EQ(engine.stats().bytes_copied - before, d.total_bytes());
        for (const auto &[dst, bytes] : want)
            ASSERT_EQ(std::memcmp(at(dst, bytes.size()), bytes.data(),
                                  bytes.size()),
                      0)
                << "array landing at " << dst;
    }
};

TEST(PackedSpan, PackedDescriptorLandsTheWalksBytes)
{
    struct Shape {
        std::uint16_t a_cnt, b_cnt;
    };
    constexpr std::uint16_t kAtThreshold = mem::kParallelCopyMin / 4096;
    for (const Shape s : {Shape{4096, 2}, Shape{4096, 63},
                          Shape{4096, kAtThreshold},
                          Shape{4096, kAtThreshold + 1}, Shape{4096, 512},
                          Shape{1000, 300}, Shape{4095, 65}}) {
        for (const std::uint64_t src_off : {0, 100}) {
            for (const std::uint64_t dst_off : {0, 3}) {
                SCOPED_TRACE(testing::Message()
                             << s.a_cnt << " x " << s.b_cnt << " from +"
                             << src_off << " to +" << dst_off);
                Fixture f;
                const std::uint64_t bytes = std::uint64_t{s.a_cnt} * s.b_cnt;
                const std::uint64_t src = f.base(f.slow) + src_off;
                const std::uint64_t dst = f.base(f.fast) + dst_off;
                f.fill(src, bytes, 7);
                // Guard bytes on both sides of the destination.
                constexpr std::uint64_t kGuard = 64;
                f.fill(f.base(f.fast), dst_off + bytes + kGuard, 0xC3);
                const std::byte *lo = f.at(f.base(f.fast), dst_off);
                const std::byte *hi = f.at(dst + bytes, kGuard);
                const std::vector<std::byte> lo_was(lo, lo + dst_off);
                const std::vector<std::byte> hi_was(hi, hi + kGuard);

                f.check(TransferDescriptor::strided(src, dst, s.a_cnt,
                                                    s.b_cnt, s.a_cnt,
                                                    s.a_cnt));
                EXPECT_EQ(std::vector<std::byte>(lo, lo + dst_off), lo_was);
                EXPECT_EQ(std::vector<std::byte>(hi, hi + kGuard), hi_was);
            }
        }
    }
}

TEST(PackedSpan, PackedRunStraddlingANodeBoundaryFallsBack)
{
    // The slow node's last frames and the fast node's first frames have
    // adjacent PFNs; a packed run across them is not one host span.
    const std::uint64_t bytes = 2 * mem::kParallelCopyMin;
    {
        Fixture f;
        const std::uint64_t src = f.base(f.fast) - bytes / 2;
        const std::uint64_t dst = f.base(f.fast) + (1ull << 20);
        f.fill(src, bytes, 11);
        f.check(TransferDescriptor::contiguous(src, dst, bytes));
    }
    {
        Fixture f;
        const std::uint64_t src = f.base(f.slow) + (1ull << 20);
        const std::uint64_t dst = f.base(f.fast) - bytes / 2;
        f.fill(src, bytes, 13);
        f.check(TransferDescriptor::contiguous(src, dst, bytes));
    }
}

TEST(PackedSpan, StridedAnd3DGeometriesLandTheWalksBytes)
{
    Fixture f;
    const std::uint64_t src = f.base(f.slow) + 40;
    const std::uint64_t dst = f.base(f.fast) + 8;
    f.fill(src, 4ull << 20, 17);

    // 2D: padded source pitch, packed destination.
    f.check(TransferDescriptor::strided(src, dst, 3000, 200, 4096, 3000));
    // 2D: packed source, padded destination pitch.
    f.check(TransferDescriptor::strided(src, dst, 2048, 300, 2048, 2500));

    // 3D with packed frames (each 256 KB, one span) at frame strides
    // that leave gaps on both sides.
    TransferDescriptor d =
        TransferDescriptor::strided(src, dst, 4096, 64, 4096, 4096);
    d.c_cnt = 3;
    d.src_cidx = 300 << 10;
    d.dst_cidx = 260 << 10;
    f.check(d);

    // 3D whose frames are not packed.
    d = TransferDescriptor::strided(src, dst, 512, 100, 1024, 640);
    d.c_cnt = 4;
    d.src_cidx = 128 << 10;
    d.dst_cidx = 70 << 10;
    f.check(d);
}

TEST(PackedSpan, LargePackedDescriptorGoesThroughTheLane)
{
    // One 1 MB packed frame is one post to the copy FIFO; the chain
    // behind it (a small entry that reads the large one's destination)
    // queues behind it, and reading the bytes waits for both.
    Fixture f;
    const std::uint64_t big = std::uint64_t{1} << 20;
    const std::uint64_t src = f.base(f.slow);
    const std::uint64_t dst = f.base(f.fast);
    const std::uint64_t tail = f.base(f.slow) + (2ull << 20);
    f.fill(src, big, 23);
    TransferDescriptor d = TransferDescriptor::contiguous(src, dst, big);
    d.link = 1;
    f.engine.param_ram().write_full(0, d);
    f.engine.param_ram().write_full(
        1, TransferDescriptor::contiguous(dst + big - 4096, tail, 4096));
    const std::uint64_t posts = mem::copies_posted();
    f.engine.start_chain(0, 0, false, nullptr);
    f.eq.run();
    EXPECT_GE(mem::copies_posted(), posts + 1);
    EXPECT_EQ(f.engine.stats().bytes_copied, big + 4096);
    EXPECT_EQ(std::memcmp(f.at(dst, big), f.at(src, big), big), 0);
    EXPECT_EQ(std::memcmp(f.at(tail, 4096), f.at(src + big - 4096, 4096),
                          4096),
              0);
}

TEST(PackedSpan, ChainBelowTheThresholdStartsNoHelper)
{
    const unsigned started = mem::copiers_started();
    const std::uint64_t posts = mem::copies_posted();
    Fixture f;
    const std::uint64_t frame = mem::kParallelCopyMin - mem::kPageSize;
    f.fill(f.base(f.slow), 4 * frame, 19);
    for (DescIndex i = 0; i < 4; ++i) {
        TransferDescriptor d = TransferDescriptor::contiguous(
            f.base(f.slow) + i * frame, f.base(f.fast) + i * frame, frame);
        d.link = i < 3 ? static_cast<DescIndex>(i + 1) : kNullLink;
        f.engine.param_ram().write_full(i, d);
    }
    f.engine.start_chain(0, 0, false, nullptr);
    f.eq.run();
    EXPECT_EQ(f.engine.stats().bytes_copied, 4 * frame);
    EXPECT_EQ(std::memcmp(f.at(f.base(f.fast), 4 * frame),
                          f.at(f.base(f.slow), 4 * frame), 4 * frame),
              0);
    EXPECT_EQ(mem::copiers_started(), started);
    EXPECT_EQ(mem::copies_posted(), posts);
}

}  // namespace
}  // namespace memif::dma
