/**
 * @file
 * Unit and property tests for the buddy allocator.
 */
#include "mem/buddy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "sim/random.h"

namespace memif::mem {
namespace {

TEST(Buddy, FreshAllocatorHasAllFramesFree)
{
    BuddyAllocator b(1024);
    EXPECT_EQ(b.free_frames(), 1024u);
    EXPECT_TRUE(b.can_allocate(BuddyAllocator::kMaxOrder));
}

TEST(Buddy, AllocatedBlocksAreAlignedAndDisjoint)
{
    BuddyAllocator b(1024);
    std::set<std::uint64_t> used;
    for (unsigned order = 0; order <= 4; ++order) {
        const std::uint64_t head = b.allocate(order);
        ASSERT_NE(head, BuddyAllocator::kInvalidFrame);
        EXPECT_EQ(head % (1u << order), 0u) << "order " << order;
        for (std::uint64_t f = head; f < head + (1u << order); ++f) {
            EXPECT_TRUE(used.insert(f).second) << "frame " << f;
        }
    }
}

TEST(Buddy, ExhaustionReturnsInvalid)
{
    BuddyAllocator b(16);
    std::vector<std::uint64_t> heads;
    for (int i = 0; i < 16; ++i) {
        const std::uint64_t h = b.allocate(0);
        ASSERT_NE(h, BuddyAllocator::kInvalidFrame);
        heads.push_back(h);
    }
    EXPECT_EQ(b.free_frames(), 0u);
    EXPECT_EQ(b.allocate(0), BuddyAllocator::kInvalidFrame);
    for (auto h : heads) b.free(h, 0);
    EXPECT_EQ(b.free_frames(), 16u);
}

TEST(Buddy, OutstandingPagesTracksLiveAllocations)
{
    BuddyAllocator b(1024);
    EXPECT_EQ(b.outstanding_pages(), 0u);
    const std::uint64_t a = b.allocate(0);
    const std::uint64_t c = b.allocate(3);
    EXPECT_EQ(b.outstanding_pages(), 1u + 8u);
    b.free(a, 0);
    EXPECT_EQ(b.outstanding_pages(), 8u);
    b.free(c, 3);
    EXPECT_EQ(b.outstanding_pages(), 0u);  // leak-free
}

TEST(Buddy, FreeCoalescesBackToMaxOrder)
{
    BuddyAllocator b(1u << BuddyAllocator::kMaxOrder);
    std::vector<std::uint64_t> heads;
    for (unsigned i = 0; i < (1u << BuddyAllocator::kMaxOrder); ++i)
        heads.push_back(b.allocate(0));
    EXPECT_FALSE(b.can_allocate(1));
    for (auto h : heads) b.free(h, 0);
    // Everything must have merged into one max-order block again.
    EXPECT_EQ(b.free_blocks(BuddyAllocator::kMaxOrder), 1u);
    EXPECT_NE(b.allocate(BuddyAllocator::kMaxOrder),
              BuddyAllocator::kInvalidFrame);
}

TEST(Buddy, SplitsLargerBlocksOnDemand)
{
    BuddyAllocator b(1u << 6);
    const std::uint64_t a = b.allocate(0);
    EXPECT_EQ(a, 0u);
    // The rest of the initial order-6 block must still be allocatable.
    EXPECT_NE(b.allocate(5), BuddyAllocator::kInvalidFrame);
    EXPECT_NE(b.allocate(4), BuddyAllocator::kInvalidFrame);
    EXPECT_EQ(b.free_frames(), 64u - 1 - 32 - 16);
}

TEST(Buddy, NonPowerOfTwoCapacityIsFullyUsable)
{
    BuddyAllocator b(1000);  // not a power of two
    EXPECT_EQ(b.free_frames(), 1000u);
    std::uint64_t got = 0;
    while (b.allocate(0) != BuddyAllocator::kInvalidFrame) ++got;
    EXPECT_EQ(got, 1000u);
}

TEST(BuddyDeath, DoubleFreePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    BuddyAllocator b(64);
    const std::uint64_t h = b.allocate(2);
    b.free(h, 2);
    EXPECT_DEATH(b.free(h, 2), "double free");
}

TEST(BuddyDeath, WrongOrderFreePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    BuddyAllocator b(64);
    const std::uint64_t h = b.allocate(2);
    EXPECT_DEATH(b.free(h, 3), "mismatch");
}

/** Property: random alloc/free churn never corrupts accounting. */
class BuddyChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuddyChurn, RandomChurnPreservesInvariants)
{
    sim::Rng rng(GetParam());
    constexpr std::uint64_t kFrames = 2048;
    BuddyAllocator b(kFrames);
    struct Block { std::uint64_t head; unsigned order; };
    std::vector<Block> held;
    std::uint64_t held_frames = 0;

    for (int step = 0; step < 4000; ++step) {
        const bool do_alloc = held.empty() || rng.next_below(100) < 55;
        if (do_alloc) {
            const unsigned order =
                static_cast<unsigned>(rng.next_below(6));
            const std::uint64_t head = b.allocate(order);
            if (head != BuddyAllocator::kInvalidFrame) {
                ASSERT_EQ(head % (1u << order), 0u);
                ASSERT_LE(head + (1u << order), kFrames);
                held.push_back({head, order});
                held_frames += 1u << order;
            }
        } else {
            const std::size_t pick = rng.next_below(held.size());
            std::swap(held[pick], held.back());
            b.free(held.back().head, held.back().order);
            held_frames -= 1u << held.back().order;
            held.pop_back();
        }
        ASSERT_EQ(b.free_frames(), kFrames - held_frames);
    }
    for (const auto &blk : held) b.free(blk.head, blk.order);
    EXPECT_EQ(b.free_frames(), kFrames);
    EXPECT_TRUE(b.can_allocate(BuddyAllocator::kMaxOrder));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyChurn,
                         ::testing::Values(1, 2, 3, 17, 99, 12345));

/**
 * The set-based buddy allocator the bitmap free lists replaced, kept as
 * an oracle: its std::set per order hands out the lowest free head.
 */
class SetBuddy {
  public:
    explicit SetBuddy(std::uint64_t frames)
        : lists_(BuddyAllocator::kMaxOrder + 1)
    {
        for (std::uint64_t f = 0; f < frames;) {
            unsigned o = BuddyAllocator::kMaxOrder;
            while (o > 0 && ((f & ((1ull << o) - 1)) != 0 ||
                             f + (1ull << o) > frames))
                --o;
            lists_[o].insert(f);
            f += 1ull << o;
        }
    }

    std::uint64_t
    allocate(unsigned order)
    {
        unsigned o = order;
        while (o <= BuddyAllocator::kMaxOrder && lists_[o].empty()) ++o;
        if (o > BuddyAllocator::kMaxOrder) return BuddyAllocator::kInvalidFrame;
        const std::uint64_t head = *lists_[o].begin();
        lists_[o].erase(lists_[o].begin());
        while (o > order) {
            --o;
            lists_[o].insert(head + (1ull << o));
        }
        return head;
    }

    void
    free(std::uint64_t block, unsigned o)
    {
        while (o < BuddyAllocator::kMaxOrder &&
               lists_[o].erase(block ^ (1ull << o)) == 1) {
            block &= ~(1ull << o);
            ++o;
        }
        lists_[o].insert(block);
    }

    std::size_t free_blocks(unsigned o) const { return lists_[o].size(); }

  private:
    std::vector<std::set<std::uint64_t>> lists_;
};

/** Property: seeded allocate/free/bulk calls on an odd-sized node hand
 *  out exactly the blocks of the std::set oracle, and every order holds
 *  the same number of free blocks after each call. */
class BuddyOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BuddyOracle, MatchesTheSetBasedAllocator)
{
    sim::Rng rng(GetParam());
    // Not a power of two, and large enough for two summary levels.
    constexpr std::uint64_t kFrames = 300'000 + 4'096 + 37;
    BuddyAllocator b(kFrames);
    SetBuddy oracle(kFrames);
    struct Block {
        std::uint64_t head;
        unsigned order;
    };
    std::vector<Block> held;
    for (int step = 0; step < 20'000; ++step) {
        const std::uint64_t roll = rng.next_below(100);
        if (held.empty() || roll < 50) {
            const auto order = static_cast<unsigned>(
                rng.next_below(BuddyAllocator::kMaxOrder + 1));
            const std::uint64_t head = b.allocate(order);
            ASSERT_EQ(head, oracle.allocate(order)) << "step " << step;
            if (head != BuddyAllocator::kInvalidFrame)
                held.push_back({head, order});
        } else if (roll < 55) {
            const auto order = static_cast<unsigned>(rng.next_below(4));
            const std::uint64_t n = 1 + rng.next_below(64);
            std::vector<std::uint64_t> got;
            if (b.allocate_bulk(order, n, got)) {
                for (const std::uint64_t head : got) {
                    ASSERT_EQ(head, oracle.allocate(order)) << "step " << step;
                    held.push_back({head, order});
                }
            }
        } else {
            const std::size_t pick = rng.next_below(held.size());
            std::swap(held[pick], held.back());
            b.free(held.back().head, held.back().order);
            oracle.free(held.back().head, held.back().order);
            held.pop_back();
        }
        for (unsigned o = 0; o <= BuddyAllocator::kMaxOrder; ++o)
            ASSERT_EQ(b.free_blocks(o), oracle.free_blocks(o))
                << "order " << o << " at step " << step;
    }
    for (const Block &blk : held) b.free(blk.head, blk.order);
    EXPECT_EQ(b.free_frames(), kFrames);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BuddyOracle, ::testing::Values(5, 23, 2024));

TEST(BuddyBulk, AllocateBulkReturnsAlignedDisjointBlocks)
{
    BuddyAllocator b(256);
    std::vector<std::uint64_t> heads;
    ASSERT_TRUE(b.allocate_bulk(2, 8, heads));
    ASSERT_EQ(heads.size(), 8u);
    std::set<std::uint64_t> used;
    for (const std::uint64_t h : heads) {
        EXPECT_EQ(h % 4, 0u);
        for (std::uint64_t f = h; f < h + 4; ++f)
            EXPECT_TRUE(used.insert(f).second) << "frame " << f;
    }
    EXPECT_EQ(b.allocated_frames(), 32u);
    for (const std::uint64_t h : heads) b.free(h, 2);
    EXPECT_EQ(b.allocated_frames(), 0u);
}

TEST(BuddyBulk, AllOrNothingOnExhaustion)
{
    BuddyAllocator b(16);
    const std::uint64_t held = b.allocate(3);  // 8 of 16 frames gone
    ASSERT_NE(held, BuddyAllocator::kInvalidFrame);
    std::vector<std::uint64_t> heads;
    // 3 order-2 blocks = 12 frames > the 8 remaining: must refuse and
    // leave the allocator exactly as it was.
    EXPECT_FALSE(b.allocate_bulk(2, 3, heads));
    EXPECT_TRUE(heads.empty());
    EXPECT_EQ(b.free_frames(), 8u);
    EXPECT_TRUE(b.allocate_bulk(2, 2, heads));
    EXPECT_EQ(heads.size(), 2u);
    EXPECT_EQ(b.free_frames(), 0u);
}

/**
 * The consistency contract the magazine refill path depends on:
 * can_allocate(order, n) true must mean allocate_bulk(order, n)
 * succeeds with no intervening alloc/free, and false must mean it
 * fails — under arbitrary fragmentation, where counting free FRAMES
 * (rather than carvable blocks) would get the answer wrong.
 */
TEST(BuddyBulk, CanAllocateAgreesWithAllocateBulkUnderFragmentation)
{
    sim::Rng rng(4242);
    BuddyAllocator b(512);
    // Fragment: allocate everything at order 0, free a random subset.
    std::vector<std::uint64_t> singles;
    for (std::uint64_t h; (h = b.allocate(0)) != BuddyAllocator::kInvalidFrame;)
        singles.push_back(h);
    std::vector<std::uint64_t> kept;
    for (const std::uint64_t h : singles) {
        if (rng.next_below(100) < 60)
            b.free(h, 0);
        else
            kept.push_back(h);
    }
    for (unsigned order = 0; order <= 4; ++order) {
        for (std::uint64_t n = 1; n <= 64; n *= 2) {
            const bool predicted = b.can_allocate(order, n);
            std::vector<std::uint64_t> heads;
            const bool got = b.allocate_bulk(order, n, heads);
            ASSERT_EQ(got, predicted)
                << "order " << order << " n " << n;
            ASSERT_EQ(heads.size(), got ? n : 0u);
            for (const std::uint64_t h : heads) b.free(h, order);
        }
    }
    for (const std::uint64_t h : kept) b.free(h, 0);
    EXPECT_EQ(b.allocated_frames(), 0u);
}

/** Bulk/free churn under fragmentation must never leak split blocks:
 *  allocated_frames() must track exactly what the test holds, and end
 *  at zero with everything coalesced back to max order. */
TEST(BuddyBulk, FragmentationStressLeaksNoSplitBlocks)
{
    sim::Rng rng(977);
    constexpr std::uint64_t kFrames = 1u << BuddyAllocator::kMaxOrder;
    BuddyAllocator b(kFrames);
    struct Block { std::uint64_t head; unsigned order; };
    std::vector<Block> held;
    std::uint64_t held_frames = 0;

    for (int step = 0; step < 3000; ++step) {
        const int roll = static_cast<int>(rng.next_below(100));
        if (held.empty() || roll < 40) {
            const unsigned order = static_cast<unsigned>(rng.next_below(4));
            const std::uint64_t n = 1 + rng.next_below(8);
            std::vector<std::uint64_t> heads;
            if (b.allocate_bulk(order, n, heads)) {
                for (const std::uint64_t h : heads) {
                    held.push_back({h, order});
                    held_frames += std::uint64_t{1} << order;
                }
            } else {
                ASSERT_TRUE(heads.empty());
            }
        } else if (roll < 45) {
            const unsigned order = static_cast<unsigned>(rng.next_below(6));
            const std::uint64_t h = b.allocate(order);
            if (h != BuddyAllocator::kInvalidFrame) {
                held.push_back({h, order});
                held_frames += std::uint64_t{1} << order;
            }
        } else {
            const std::size_t pick = rng.next_below(held.size());
            std::swap(held[pick], held.back());
            b.free(held.back().head, held.back().order);
            held_frames -= std::uint64_t{1} << held.back().order;
            held.pop_back();
        }
        ASSERT_EQ(b.allocated_frames(), held_frames);
    }
    for (const auto &blk : held) b.free(blk.head, blk.order);
    EXPECT_EQ(b.allocated_frames(), 0u);
    EXPECT_EQ(b.free_blocks(BuddyAllocator::kMaxOrder), 1u);
}

}  // namespace
}  // namespace memif::mem
