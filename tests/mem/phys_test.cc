/**
 * @file
 * Unit tests for physical memory nodes: PFN resolution, allocation
 * bookkeeping, the reverse map, real byte movement, first-touch backing
 * and descriptors, capacity checks, and the KeyStone II default layout.
 */
#include "mem/phys.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace memif::mem {
namespace {

// A node's descriptor table is a first-touch mapping: it is never
// constructed or destroyed frame by frame.
static_assert(std::is_trivially_destructible_v<PageFrame>);

void
add_two_nodes(PhysicalMemory &pm)
{
    pm.add_node(NodeConfig{
        .name = "slow", .bytes = 8ull << 20, .bandwidth_bps = 6.2e9,
        .is_fast = false});
    pm.add_node(NodeConfig{
        .name = "fast", .bytes = 2ull << 20, .bandwidth_bps = 24.0e9,
        .is_fast = true});
}

TEST(Phys, NodesGetDisjointPfnRanges)
{
    PhysicalMemory pm;
    add_two_nodes(pm);
    ASSERT_EQ(pm.node_count(), 2u);
    const MemoryNode &a = pm.node(0);
    const MemoryNode &b = pm.node(1);
    EXPECT_EQ(a.base_pfn(), 0u);
    EXPECT_EQ(b.base_pfn(), a.num_frames());
    EXPECT_EQ(pm.node_of(0), 0u);
    EXPECT_EQ(pm.node_of(a.num_frames()), 1u);
    EXPECT_EQ(pm.node_of(a.num_frames() + b.num_frames()), kInvalidNode);
}

TEST(Phys, OutstandingPagesSumsAcrossNodes)
{
    PhysicalMemory pm;
    add_two_nodes(pm);
    EXPECT_EQ(pm.outstanding_pages(), 0u);
    const Pfn a = pm.allocate(0, 1);  // 2 frames slow
    const Pfn b = pm.allocate(1, 2);  // 4 frames fast
    EXPECT_EQ(pm.outstanding_pages(), 6u);
    pm.free(a, 1);
    pm.free(b, 2);
    EXPECT_EQ(pm.outstanding_pages(), 0u);
}

TEST(Phys, AllocateMarksFramesAndFreeClears)
{
    PhysicalMemory pm;
    add_two_nodes(pm);
    const Pfn head = pm.allocate(1, 2);  // 4 frames on the fast node
    ASSERT_NE(head, kInvalidPfn);
    EXPECT_EQ(pm.node_of(head), 1u);
    for (Pfn p = head; p < head + 4; ++p) {
        EXPECT_TRUE(pm.frame(p).allocated);
        EXPECT_EQ(pm.frame(p).is_block_head, p == head);
        EXPECT_EQ(pm.frame(p).order, 2);
    }
    pm.free(head, 2);
    for (Pfn p = head; p < head + 4; ++p)
        EXPECT_FALSE(pm.frame(p).allocated);
}

TEST(Phys, ExhaustionReturnsInvalidPfn)
{
    PhysicalMemory pm;
    pm.add_node(NodeConfig{.name = "tiny", .bytes = 4 * kPageSize,
                           .bandwidth_bps = 1e9, .is_fast = true});
    EXPECT_NE(pm.allocate(0, 2), kInvalidPfn);
    EXPECT_EQ(pm.allocate(0, 0), kInvalidPfn);
}

TEST(Phys, CopyMovesRealBytes)
{
    PhysicalMemory pm;
    add_two_nodes(pm);
    const Pfn src = pm.allocate(0, 0);
    const Pfn dst = pm.allocate(1, 0);
    std::byte *s = pm.span(src, kPageSize);
    for (std::uint64_t i = 0; i < kPageSize; ++i)
        s[i] = static_cast<std::byte>(i * 7 + 3);
    pm.copy(dst, src, kPageSize);
    EXPECT_EQ(std::memcmp(pm.span(dst, kPageSize), s, kPageSize), 0);
}

TEST(Phys, SpanCoversMultiFrameBlocks)
{
    PhysicalMemory pm;
    add_two_nodes(pm);
    const Pfn head = pm.allocate(0, 4);  // 64 KB block
    std::byte *p = pm.span(head, 16 * kPageSize);
    ASSERT_NE(p, nullptr);
    p[16 * kPageSize - 1] = std::byte{0xAB};
    EXPECT_EQ(pm.span(head + 15, kPageSize)[kPageSize - 1], std::byte{0xAB});
}

TEST(Phys, TrySpanAtRefusesANodeStraddle)
{
    PhysicalMemory pm;
    add_two_nodes(pm);
    const std::uint64_t boundary = pm.node(1).base_pfn() << kPageShift;
    // Inside one node, at any byte offset: the host address of the byte.
    EXPECT_EQ(pm.try_span_at(boundary - 3 * kPageSize + 5, 2 * kPageSize),
              pm.span(pm.node(1).base_pfn() - 3, kPageSize) + 5);
    EXPECT_EQ(pm.try_span_at(boundary, 2 * kPageSize),
              pm.span(pm.node(1).base_pfn(), kPageSize));
    EXPECT_NE(pm.try_span_at(boundary - 8, 8), nullptr);
    // Adjacent PFNs on two nodes are not one span, nor is memory's end.
    EXPECT_EQ(pm.try_span_at(boundary - 8, 9), nullptr);
    EXPECT_EQ(pm.try_span_at(boundary - kPageSize, 2 * kPageSize), nullptr);
    const std::uint64_t end = boundary + pm.node(1).bytes();
    EXPECT_NE(pm.try_span_at(end - 16, 16), nullptr);
    EXPECT_EQ(pm.try_span_at(end - 16, 17), nullptr);
    EXPECT_EQ(pm.try_span_at(end, 1), nullptr);
}

TEST(Phys, FreshMemoryIsZeroed)
{
    PhysicalMemory pm;
    add_two_nodes(pm);
    const Pfn p = pm.allocate(0, 0);
    const std::byte *d = pm.span(p, kPageSize);
    for (std::uint64_t i = 0; i < kPageSize; ++i)
        ASSERT_EQ(d[i], std::byte{0});
}

/** This process's resident set in bytes, from /proc/self/statm. */
std::uint64_t
resident_bytes()
{
    std::ifstream statm("/proc/self/statm");
    std::uint64_t size = 0, resident = 0;
    statm >> size >> resident;
    return resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

TEST(Phys, BackingIsCommittedOnFirstWrite)
{
    const std::uint64_t before = resident_bytes();
    PhysicalMemory pm;
    pm.add_node(NodeConfig{.name = "big", .bytes = 512ull << 20,
                           .bandwidth_bps = 6.2e9, .is_fast = false});
    // Modelled capacity is address space, not host memory, and so are
    // the node's 4 MB of frame descriptors. The bound leaves room for
    // the buddy allocator's bitmaps and one transparent huge page.
    constexpr std::uint64_t kSlack = 3ull << 20;
    EXPECT_LT(resident_bytes(), before + kSlack);

    const Pfn p = pm.allocate(0, 0);
    ASSERT_NE(p, kInvalidPfn);
    std::byte *d = pm.span(p, kPageSize);
    for (std::uint64_t i = 0; i < kPageSize; ++i)
        ASSERT_EQ(d[i], std::byte{0}) << "untouched frame byte " << i;
    for (std::uint64_t i = 0; i < kPageSize; ++i)
        d[i] = static_cast<std::byte>(i * 13 + 5);
    for (std::uint64_t i = 0; i < kPageSize; ++i)
        ASSERT_EQ(d[i], static_cast<std::byte>(i * 13 + 5));

    // No scrub on allocation: the frame comes back with its old bytes.
    pm.free(p, 0);
    ASSERT_EQ(pm.allocate(0, 0), p);
    d = pm.span(p, kPageSize);
    for (std::uint64_t i = 0; i < kPageSize; ++i)
        ASSERT_EQ(d[i], static_cast<std::byte>(i * 13 + 5));
    EXPECT_LT(resident_bytes(), before + kSlack);
}

/** Applies reverse-map edits to one frame and to a plain vector, the
 *  frame's old representation, and checks that the two agree. */
class RmapModel {
  public:
    RmapModel(PhysicalMemory &pm, Pfn pfn) : pm_(pm), pfn_(pfn) {}

    void
    add(void *owner, std::uint64_t vaddr,
        RmapKind kind = RmapKind::kAddressSpace)
    {
        pm_.add_rmap(pfn_, owner, vaddr, kind);
        model_.push_back(RmapEntry{owner, vaddr, kind});
        check();
    }

    void
    remove(void *owner, std::uint64_t vaddr,
           RmapKind kind = RmapKind::kAddressSpace)
    {
        const RmapEntry e{owner, vaddr, kind};
        bool found = false;
        for (auto it = model_.begin(); it != model_.end(); ++it) {
            if (*it == e) {
                model_.erase(it);
                found = true;
                break;
            }
        }
        EXPECT_EQ(pm_.remove_rmap(pfn_, owner, vaddr, kind), found);
        check();
    }

  private:
    void
    check() const
    {
        ASSERT_EQ(pm_.frame(pfn_).mapcount(), model_.size());
        const std::span<const RmapEntry> got = pm_.rmaps(pfn_);
        ASSERT_EQ(got.size(), model_.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_TRUE(got[i] == model_[i]) << "entry " << i;
    }

    PhysicalMemory &pm_;
    Pfn pfn_;
    std::vector<RmapEntry> model_;
};

TEST(Phys, RmapKeepsInsertionOrderAcrossRemovals)
{
    PhysicalMemory pm;
    add_two_nodes(pm);
    const Pfn p = pm.allocate(0, 0);
    int a = 0, b = 0, c = 0;
    RmapModel rm(pm, p);
    rm.add(&a, 0x1000);
    rm.add(&b, 0x2000);
    rm.add(&c, 0x3000);
    rm.remove(&a, 0x1000);  // the first: [b, c]
    rm.add(&a, 0x4000);     // [b, c, a]
    rm.remove(&c, 0x3000);  // the middle: [b, a]
    rm.remove(&c, 0x3000);  // gone already: no change
    rm.remove(&b, 0x2000);  // back to one mapping, held inline
    rm.add(&b, 0x5000);     // shared again: [a, b]
    rm.remove(&b, 0x5000);
    rm.remove(&a, 0x4000);
    rm.remove(&a, 0x4000);  // unmapped: nothing to remove
    pm.free(p, 0);
    EXPECT_EQ(pm.outstanding_pages(), 0u);
}

TEST(Phys, RmapMixesPageCacheAndAddressSpaceEntries)
{
    PhysicalMemory pm;
    add_two_nodes(pm);
    const Pfn p = pm.allocate(1, 0);
    int file = 0, as1 = 0, as2 = 0;
    RmapModel rm(pm, p);
    rm.add(&file, 7, RmapKind::kPageCache);
    rm.add(&as1, 0x7000);
    // Same owner and offset as the cache entry but another kind: a
    // separate mapping.
    rm.add(&file, 7);
    rm.add(&as2, 0x9000);
    rm.remove(&as1, 7, RmapKind::kPageCache);  // wrong owner: no change
    rm.remove(&file, 7, RmapKind::kPageCache);
    rm.remove(&file, 7);
    rm.remove(&as1, 0x7000);
    EXPECT_EQ(pm.rmaps(p)[0].owner, &as2);
    rm.remove(&as2, 0x9000);
    pm.free(p, 0);
}

TEST(Phys, NodeWithASharedFrameTearsDownWhole)
{
    // Destroyed while one frame still holds three mappings: the node
    // owns the shared frame's store, so nothing leaks (checked under
    // LeakSanitizer).
    int a = 0, b = 0, c = 0;
    auto pm = std::make_unique<PhysicalMemory>();
    add_two_nodes(*pm);
    const Pfn p = pm->allocate(0, 0);
    pm->add_rmap(p, &a, 0x1000);
    pm->add_rmap(p, &b, 0x1000);
    pm->add_rmap(p, &c, 3, RmapKind::kPageCache);
    EXPECT_EQ(pm->frame(p).mapcount(), 3u);
    pm.reset();
}

TEST(PhysDeathTest, CapacityMustBeANonzeroPageMultiple)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (const std::uint64_t bytes : {std::uint64_t{0}, kPageSize + 1}) {
        EXPECT_EXIT(
            {
                PhysicalMemory pm;
                pm.add_node(NodeConfig{.name = "odd", .bytes = bytes,
                                       .bandwidth_bps = 1e9});
            },
            ::testing::ExitedWithCode(1),
            "node 'odd': capacity must be a nonzero page multiple")
            << bytes << " bytes";
    }
}

TEST(PhysDeathTest, UnmappableCapacityNamesTheNode)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_EXIT(
        {
            PhysicalMemory pm;
            pm.add_node(NodeConfig{.name = "huge", .bytes = 1ull << 62,
                                   .bandwidth_bps = 1e9});
        },
        ::testing::ExitedWithCode(1),
        "node 'huge': cannot map 4611686018427387904 bytes");
}

TEST(Phys, KeystoneLayoutMatchesTable2)
{
    PhysicalMemory pm;
    const auto [slow, fast] = KeystoneMemory::build(pm);
    EXPECT_EQ(pm.node(slow).name(), "ddr3-slow");
    EXPECT_EQ(pm.node(fast).name(), "sram-fast");
    EXPECT_FALSE(pm.node(slow).is_fast());
    EXPECT_TRUE(pm.node(fast).is_fast());
    EXPECT_EQ(pm.node(fast).bytes(), 6ull << 20);   // 6 MB SRAM
    EXPECT_DOUBLE_EQ(pm.node(slow).bandwidth_bps(), 6.2e9);
    EXPECT_DOUBLE_EQ(pm.node(fast).bandwidth_bps(), 24.0e9);
}

TEST(Phys, FastNodeCapacityIsScarce)
{
    // The 6 MB SRAM only holds 1536 4 KB frames: allocating three
    // 2 MB blocks exhausts it, mirroring the paper's §6.7 observation.
    PhysicalMemory pm;
    const auto [slow, fast] = KeystoneMemory::build(pm);
    (void)slow;
    EXPECT_NE(pm.allocate(fast, 9), kInvalidPfn);
    EXPECT_NE(pm.allocate(fast, 9), kInvalidPfn);
    EXPECT_NE(pm.allocate(fast, 9), kInvalidPfn);
    EXPECT_EQ(pm.allocate(fast, 9), kInvalidPfn);
}


TEST(Phys, ListBuildMatchesTwoNodeBuild)
{
    // The list overload with the classic pair must be frame-for-frame
    // identical to the historical two-node build.
    PhysicalMemory a, b;
    const auto pair = KeystoneMemory::build(a, 16ull << 20);
    const std::vector<NodeId> ids = KeystoneMemory::build(
        b, {NodeConfig{.name = "ddr3-slow",
                       .bytes = 16ull << 20,
                       .bandwidth_bps = 6.2e9,
                       .is_fast = false},
            NodeConfig{.name = "sram-fast",
                       .bytes = 6ull << 20,
                       .bandwidth_bps = 24.0e9,
                       .is_fast = true}});
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], pair.first);
    EXPECT_EQ(ids[1], pair.second);
    for (NodeId n : {pair.first, pair.second}) {
        EXPECT_EQ(a.node(n).base_pfn(), b.node(n).base_pfn());
        EXPECT_EQ(a.node(n).num_frames(), b.node(n).num_frames());
        EXPECT_EQ(a.node(n).is_fast(), b.node(n).is_fast());
    }
}

TEST(Phys, ListBuildTakesArbitraryNodeCounts)
{
    PhysicalMemory pm;
    const std::vector<NodeId> ids = KeystoneMemory::build(
        pm, {NodeConfig{.name = "ddr", .bytes = 8ull << 20,
                        .bandwidth_bps = 6.2e9},
            NodeConfig{.name = "sram", .bytes = 2ull << 20,
                       .bandwidth_bps = 24.0e9, .is_fast = true},
            NodeConfig{.name = "far", .bytes = 32ull << 20,
                       .bandwidth_bps = 1.2e9, .latency_ns = 8000}});
    ASSERT_EQ(ids.size(), 3u);
    ASSERT_EQ(pm.node_count(), 3u);
    EXPECT_EQ(pm.node(ids[2]).latency_ns(), 8000u);
    // Ranges stay disjoint in declaration order.
    EXPECT_GT(pm.node(ids[1]).base_pfn(), pm.node(ids[0]).base_pfn());
    EXPECT_GT(pm.node(ids[2]).base_pfn(), pm.node(ids[1]).base_pfn());
}

TEST(Phys, SlitDistancesDefaultAndOverride)
{
    PhysicalMemory pm;
    add_two_nodes(pm);
    const NodeId far = pm.add_node(NodeConfig{
        .name = "far", .bytes = 4ull << 20, .bandwidth_bps = 1.2e9});
    EXPECT_EQ(pm.distance(0, 0), 10u);   // on-node
    EXPECT_EQ(pm.distance(0, 1), 20u);   // default remote
    pm.set_distance(0, far, 30);
    pm.set_distance(1, far, 40);
    EXPECT_EQ(pm.distance(0, far), 30u);
    EXPECT_EQ(pm.distance(far, 0), 30u);  // symmetric
    EXPECT_EQ(pm.distance(1, far), 40u);
    EXPECT_EQ(pm.distance(0, 1), 20u);    // untouched pair keeps default
}

}  // namespace
}  // namespace memif::mem
