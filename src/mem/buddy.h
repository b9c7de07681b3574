/**
 * @file
 * A classic binary buddy allocator over a frame range, the analogue of
 * Linux's zoned page allocator that both the baseline migration path and
 * the memif driver allocate destination pages from.
 *
 * Frames are addressed by *local* index within the node. The allocator
 * detects double frees and frees of never-allocated blocks (they panic:
 * in this codebase such a call is always a library bug).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace memif::mem {

/**
 * A set of small integers as a bitmap with summary levels above it (a
 * bit per nonzero word of the level below), so the lowest member is
 * found by one word scan per level. Sized once; inserting and erasing
 * never allocate.
 */
class FreeMap {
  public:
    /** An empty set over [0, @p bits). */
    explicit FreeMap(std::uint64_t bits);

    void insert(std::uint64_t i);
    void erase(std::uint64_t i);
    bool contains(std::uint64_t i) const;
    /** Lowest member; the set must not be empty. */
    std::uint64_t lowest() const;
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }

  private:
    std::uint64_t bits_;
    /** levels_[0] has a bit per member; each level above a bit per
     *  nonzero word below it; the top level is one word. */
    std::vector<std::vector<std::uint64_t>> levels_;
    std::size_t count_ = 0;
};

class BuddyAllocator {
  public:
    /** Largest supported block: 2^kMaxOrder frames (4 MB at 4 KB). */
    static constexpr unsigned kMaxOrder = 10;
    static constexpr std::uint64_t kInvalidFrame = ~std::uint64_t{0};

    explicit BuddyAllocator(std::uint64_t num_frames);

    /**
     * Allocate a 2^order-frame block, naturally aligned.
     * @return the head frame index or kInvalidFrame when exhausted.
     */
    std::uint64_t allocate(unsigned order);

    /**
     * Allocate @p n naturally aligned 2^order-frame blocks in one call,
     * appending the head frames to @p out. All-or-nothing: when fewer
     * than @p n blocks can be carved out, no frame is allocated and the
     * call returns false with @p out untouched.
     */
    bool allocate_bulk(unsigned order, std::uint64_t n,
                       std::vector<std::uint64_t> &out);

    /** Free a block previously allocated with the same order. */
    void free(std::uint64_t head, unsigned order);

    std::uint64_t num_frames() const { return num_frames_; }
    std::uint64_t free_frames() const { return free_frames_; }

    /** Frames currently allocated and not yet freed. Leak check: at a
     *  quiesced point this must equal the frames a test knowingly
     *  holds — anything above that is a leaked block. */
    std::uint64_t outstanding_pages() const
    {
        return num_frames_ - free_frames_;
    }

    /** Free blocks currently held at @p order (diagnostic). */
    std::size_t free_blocks(unsigned order) const
    {
        return free_lists_[order].size();
    }

    /** True if a block of @p order could be allocated right now. */
    bool can_allocate(unsigned order) const;

    /**
     * True if @p n blocks of @p order could all be allocated right now.
     * Exact (counts whole blocks carvable at >= order, not just free
     * frames), so a true answer guarantees allocate_bulk(order, n)
     * succeeds with no intervening alloc/free.
     */
    bool can_allocate(unsigned order, std::uint64_t n) const;

    /** Alias of outstanding_pages() under the Linux-ish name used by
     *  leak-check tests. */
    std::uint64_t allocated_frames() const { return outstanding_pages(); }

  private:
    std::uint64_t buddy_of(std::uint64_t head, unsigned order) const
    {
        return head ^ (std::uint64_t{1} << order);
    }

    std::uint64_t num_frames_;
    std::uint64_t free_frames_ = 0;
    /** Free block heads per order, as head >> order. The lowest-address
     *  block is always handed out first, which keeps behaviour
     *  deterministic. */
    std::vector<FreeMap> free_lists_;
    /** Allocation order of each allocated head frame, +1 (0 = not a head). */
    std::vector<std::uint8_t> allocated_order_;
};

}  // namespace memif::mem
