#include "mem/buddy.h"

#include "sim/log.h"

namespace memif::mem {

FreeMap::FreeMap(std::uint64_t bits) : bits_(bits)
{
    std::uint64_t words = (bits + 63) / 64;
    for (;;) {
        levels_.emplace_back(words == 0 ? 1 : words, 0);
        if (words <= 1) break;
        words = (words + 63) / 64;
    }
}

void
FreeMap::insert(std::uint64_t i)
{
    MEMIF_ASSERT(i < bits_ && !contains(i), "bad FreeMap insert");
    ++count_;
    for (std::vector<std::uint64_t> &level : levels_) {
        std::uint64_t &word = level[i / 64];
        const bool was_empty = word == 0;
        word |= std::uint64_t{1} << (i % 64);
        if (!was_empty) return;
        i /= 64;
    }
}

void
FreeMap::erase(std::uint64_t i)
{
    MEMIF_ASSERT(contains(i), "bad FreeMap erase");
    --count_;
    for (std::vector<std::uint64_t> &level : levels_) {
        std::uint64_t &word = level[i / 64];
        word &= ~(std::uint64_t{1} << (i % 64));
        if (word != 0) return;
        i /= 64;
    }
}

bool
FreeMap::contains(std::uint64_t i) const
{
    return i < bits_ && (levels_[0][i / 64] >> (i % 64) & 1) != 0;
}

std::uint64_t
FreeMap::lowest() const
{
    MEMIF_ASSERT(count_ > 0, "lowest() of an empty FreeMap");
    std::uint64_t i = 0;
    for (auto level = levels_.rbegin(); level != levels_.rend(); ++level)
        i = i * 64 + static_cast<std::uint64_t>(
                         __builtin_ctzll((*level)[i]));
    return i;
}

namespace {

/** One FreeMap per order, each with a bit per block head of that
 *  order in @p num_frames frames. */
std::vector<FreeMap>
free_maps(std::uint64_t num_frames)
{
    std::vector<FreeMap> maps;
    maps.reserve(BuddyAllocator::kMaxOrder + 1);
    for (unsigned o = 0; o <= BuddyAllocator::kMaxOrder; ++o)
        maps.emplace_back((num_frames + (std::uint64_t{1} << o) - 1) >> o);
    return maps;
}

}  // namespace

BuddyAllocator::BuddyAllocator(std::uint64_t num_frames)
    : num_frames_(num_frames),
      free_lists_(free_maps(num_frames))
{
    // Seed the free lists with the largest naturally aligned blocks that
    // fit, walking the range front to back (handles non-power-of-two
    // node sizes).
    std::uint64_t frame = 0;
    while (frame < num_frames_) {
        unsigned order = kMaxOrder;
        while (order > 0 &&
               ((frame & ((std::uint64_t{1} << order) - 1)) != 0 ||
                frame + (std::uint64_t{1} << order) > num_frames_)) {
            --order;
        }
        free_lists_[order].insert(frame >> order);
        free_frames_ += std::uint64_t{1} << order;
        frame += std::uint64_t{1} << order;
    }
    MEMIF_ASSERT(free_frames_ == num_frames_);
}

std::uint64_t
BuddyAllocator::allocate(unsigned order)
{
    MEMIF_ASSERT(order <= kMaxOrder, "order %u too large", order);
    // Find the smallest order with a free block.
    unsigned o = order;
    while (o <= kMaxOrder && free_lists_[o].empty()) ++o;
    if (o > kMaxOrder) return kInvalidFrame;

    const std::uint64_t head = free_lists_[o].lowest() << o;
    free_lists_[o].erase(head >> o);

    // Split down to the requested order, returning the upper halves.
    while (o > order) {
        --o;
        free_lists_[o].insert((head >> o) + 1);
    }

    free_frames_ -= std::uint64_t{1} << order;
    return head;
}

bool
BuddyAllocator::allocate_bulk(unsigned order, std::uint64_t n,
                              std::vector<std::uint64_t> &out)
{
    MEMIF_ASSERT(order <= kMaxOrder, "order %u too large", order);
    if (!can_allocate(order, n)) return false;
    out.reserve(out.size() + n);
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t head = allocate(order);
        // can_allocate(order, n) is exact, so exhaustion here is a bug.
        MEMIF_ASSERT(head != kInvalidFrame);
        out.push_back(head);
    }
    return true;
}

void
BuddyAllocator::free(std::uint64_t head, unsigned order)
{
    MEMIF_ASSERT(head < num_frames_, "frame %llu out of range",
                 static_cast<unsigned long long>(head));
    MEMIF_ASSERT(order <= kMaxOrder);
    free_frames_ += std::uint64_t{1} << order;

    // Coalesce with the buddy while possible.
    std::uint64_t block = head;
    unsigned o = order;
    while (o < kMaxOrder) {
        const std::uint64_t buddy = buddy_of(block, o);
        if (!free_lists_[o].contains(buddy >> o)) break;
        // A same-order free buddy exists: merge.
        free_lists_[o].erase(buddy >> o);
        block = block < buddy ? block : buddy;
        ++o;
    }
    free_lists_[o].insert(block >> o);
}

bool
BuddyAllocator::can_allocate(unsigned order) const
{
    for (unsigned o = order; o <= kMaxOrder; ++o)
        if (!free_lists_[o].empty()) return true;
    return false;
}

bool
BuddyAllocator::can_allocate(unsigned order, std::uint64_t n) const
{
    MEMIF_ASSERT(order <= kMaxOrder, "order %u too large", order);
    // Every free block at order o >= order yields 2^(o-order) blocks of
    // the requested order; splitting never wastes frames, so this count
    // is exactly what allocate_bulk can hand out.
    std::uint64_t blocks = 0;
    for (unsigned o = order; o <= kMaxOrder; ++o) {
        blocks += static_cast<std::uint64_t>(free_lists_[o].size())
                  << (o - order);
        if (blocks >= n) return true;
    }
    return blocks >= n;
}

}  // namespace memif::mem
