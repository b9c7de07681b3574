/**
 * @file
 * Gang translation cache: the driver-side cache of recent gang-lookup
 * results that lets repeated moves over hot regions skip the radix
 * page-table walk entirely (the TLB-prefetching / MMU-aware-DMA idea
 * applied to the memif submission path).
 *
 * Entries are keyed by (Vma, first page index) and cover a contiguous
 * page run. Invalidation is precise and eager: the AddressSpace
 * translation-invalidation hook (TLB shootdowns, CPU-side PTE CASes,
 * munmap / address-space teardown) drops every overlapping entry, so a
 * hit can never return a translation the page tables have moved away
 * from. Each entry carries the generation (a monotonic event counter)
 * at which it was recorded, which diagnostics and tests use to tell a
 * re-recorded entry from a surviving one.
 *
 * Purely functional: probe/maintenance *time* is charged by the driver
 * from CostModel::xlate_probe.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "vm/pte.h"
#include "vm/vma.h"

namespace memif {

class XlateCache {
  public:
    struct Entry {
        const vm::Vma *vma = nullptr;
        std::uint64_t first_page = 0;
        /** Cached translations for pages [first_page, first_page+size). */
        std::vector<vm::Pte> ptes;
        /** Invalidation-event generation at record time. */
        std::uint64_t generation = 0;
        /** LRU stamp (bumped on hit). */
        std::uint64_t tick = 0;

        std::uint64_t num_pages() const { return ptes.size(); }

        bool
        covers(const vm::Vma *v, std::uint64_t first, std::uint64_t n) const
        {
            return vma == v && first >= first_page &&
                   first + n <= first_page + num_pages();
        }
    };

    explicit XlateCache(std::size_t max_entries)
        : max_entries_(max_entries ? max_entries : 1)
    {
    }

    /**
     * Entry covering pages [first, first+n) of @p vma, or nullptr.
     * A hit refreshes the entry's LRU position.
     */
    const Entry *lookup(const vm::Vma *vma, std::uint64_t first,
                        std::uint64_t n);

    /**
     * Record the @p n live PTEs of @p vma from page @p first on (a
     * fresh walk of that run). Replaces any entry with the same key,
     * reusing its storage; evicts the least recently used entry when
     * the cache is full. No-op for n == 0.
     */
    void record(const vm::Vma *vma, std::uint64_t first, std::uint64_t n);

    /**
     * Drop every entry overlapping pages [first, first+n) of @p vma
     * and bump the generation. Pending prefetches overlapping the range
     * are marked killed so their eventual fill_prefetch() is discarded
     * (the walk they snapshot may predate the PTE change).
     * @return the number of entries dropped.
     */
    std::uint64_t invalidate(const vm::Vma *vma, std::uint64_t first,
                             std::uint64_t n);

    /**
     * An in-flight ahead-of-stream translation prefetch: issued when
     * the walk is scheduled, filled when it completes. The window
     * between the two is where an invalidation can land; the
     * generation check at fill time is what makes that race safe.
     */
    struct Pending {
        const vm::Vma *vma = nullptr;
        std::uint64_t first_page = 0;
        std::uint64_t num_pages = 0;
        std::uint64_t token = 0;
        bool killed = false;
    };

    /**
     * Register an in-flight prefetch for pages [first, first+n) of
     * @p vma. @return a token to pass to fill_prefetch() when the
     * simulated walk completes.
     */
    std::uint64_t begin_prefetch(const vm::Vma *vma, std::uint64_t first,
                                 std::uint64_t n);

    /**
     * Complete the prefetch registered under @p token. If no
     * invalidation overlapped the range in the meantime, the range's
     * PTEs as they are live *now* are record()ed and true is returned;
     * otherwise the fill is dropped (stale walk) and false is returned.
     */
    bool fill_prefetch(std::uint64_t token);

    /** Retire the prefetch registered under @p token without recording
     *  anything (the move it ran ahead of is gone). */
    void cancel_prefetch(std::uint64_t token);

    /** In-flight prefetches (diagnostics / tests). */
    const std::vector<Pending> &pending_prefetches() const
    {
        return pending_;
    }

    std::size_t size() const { return entries_.size(); }
    std::uint64_t generation() const { return generation_; }

    /** All live entries (diagnostics / invariant checks: eager
     *  invalidation means every surviving entry must still match the
     *  live page tables). */
    const std::vector<Entry> &entries() const { return entries_; }

  private:
    std::size_t max_entries_;
    std::uint64_t generation_ = 0;
    std::uint64_t tick_ = 0;
    std::uint64_t next_token_ = 0;
    std::vector<Entry> entries_;
    std::vector<Pending> pending_;
};

}  // namespace memif
