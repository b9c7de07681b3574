/**
 * @file
 * Unit tests for the gang translation cache on its own: run-wide
 * invalidation against the single-page calls it replaces, and reuse of
 * dropped entries' PTE storage.
 */
#include "memif/xlate_cache.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "mem/phys.h"
#include "sim/random.h"
#include "vm/addr_space.h"
#include "vm/pte.h"
#include "vm/vma.h"

namespace memif {
namespace {

struct Fixture {
    mem::PhysicalMemory pm;
    mem::NodeId slow = 0, fast = 0;
    std::unique_ptr<vm::AddressSpace> as;
    vm::Vma *a = nullptr;
    vm::Vma *b = nullptr;

    Fixture()
    {
        const auto ids = mem::KeystoneMemory::build(pm, 32ull << 20);
        slow = ids.first;
        fast = ids.second;
        as = std::make_unique<vm::AddressSpace>(pm);
        a = as->find_vma(as->mmap(64 * 4096, vm::PageSize::k4K, slow));
        b = as->find_vma(as->mmap(64 * 4096, vm::PageSize::k4K, slow));
    }
};

/** Everything about an entry except its generation, which a run-wide
 *  invalidation is allowed to advance less. */
struct EntryView {
    const vm::Vma *vma;
    std::uint64_t first_page;
    std::vector<std::uint64_t> ptes;
    std::uint64_t tick;
    bool operator==(const EntryView &) const = default;
};

std::vector<EntryView>
view(const XlateCache &c)
{
    std::vector<EntryView> out;
    for (const XlateCache::Entry &e : c.entries()) {
        EntryView v{e.vma, e.first_page, {}, e.tick};
        for (const vm::Pte &p : e.ptes) v.ptes.push_back(p.pack());
        out.push_back(v);
    }
    return out;
}

std::vector<std::pair<std::uint64_t, bool>>
killed(const XlateCache &c)
{
    std::vector<std::pair<std::uint64_t, bool>> out;
    for (const XlateCache::Pending &p : c.pending_prefetches())
        out.emplace_back(p.token, p.killed);
    return out;
}

TEST(XlateCacheUnit, RunInvalidationMatchesSinglePageCalls)
{
    Fixture f;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        sim::Rng rng(seed);
        // Two caches fed the same history; small enough that records
        // also evict.
        XlateCache run(12), pages(12);
        const auto pick_vma = [&]() -> vm::Vma * {
            return rng.next_below(2) ? f.a : f.b;
        };
        for (int op = 0; op < 40; ++op) {
            vm::Vma *vma = pick_vma();
            const std::uint64_t first = rng.next_below(60);
            const std::uint64_t n = 1 + rng.next_below(64 - first);
            switch (rng.next_below(4)) {
                case 0:
                    run.begin_prefetch(vma, first, n);
                    pages.begin_prefetch(vma, first, n);
                    break;
                case 1:
                    run.lookup(vma, first, n);
                    pages.lookup(vma, first, n);
                    break;
                default:
                    run.record(vma, first, n);
                    pages.record(vma, first, n);
            }
        }
        for (int inv = 0; inv < 6; ++inv) {
            vm::Vma *vma = pick_vma();
            const std::uint64_t lo = rng.next_below(64);
            const std::uint64_t n = 1 + rng.next_below(64 - lo);
            const std::uint64_t gen_run = run.generation();
            const std::uint64_t gen_pages = pages.generation();
            const std::uint64_t dropped = run.invalidate(vma, lo, n);
            std::uint64_t dropped_pages = 0;
            for (std::uint64_t k = 0; k < n; ++k)
                dropped_pages += pages.invalidate(vma, lo + k, 1);
            ASSERT_EQ(dropped, dropped_pages) << "seed " << seed;
            ASSERT_EQ(view(run), view(pages)) << "seed " << seed;
            ASSERT_EQ(killed(run), killed(pages)) << "seed " << seed;
            EXPECT_EQ(run.generation(), gen_run + 1);
            EXPECT_EQ(pages.generation(), gen_pages + n);
            // Both keep going alike: reused storage included.
            const std::uint64_t first = rng.next_below(60);
            run.record(vma, first, 4);
            pages.record(vma, first, 4);
        }
    }
}

TEST(XlateCacheUnit, RecordIntoReusedStorageReadsTheLivePtes)
{
    Fixture f;
    XlateCache cache(4);
    cache.record(f.a, 0, 32);
    ASSERT_EQ(cache.invalidate(f.a, 5, 1), 1u);
    ASSERT_EQ(cache.size(), 0u);

    // Rewrite the live PTEs of b's first pages, then record a shorter
    // run there: the entry must hold exactly those live PTEs, not a
    // tail of the dropped entry's storage.
    std::vector<std::uint64_t> original;
    for (std::uint64_t i = 0; i < 8; ++i) {
        original.push_back(f.b->pte(i).pack());
        vm::Pte moved = f.b->pte(i);
        moved.pfn = f.pm.allocate(f.fast, 0);
        f.b->pte_slot(i).store(moved.pack(), std::memory_order_release);
    }
    cache.record(f.b, 0, 8);
    const XlateCache::Entry *e = cache.lookup(f.b, 0, 8);
    ASSERT_NE(e, nullptr);
    ASSERT_EQ(e->num_pages(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i) {
        EXPECT_EQ(e->ptes[i].pack(), f.b->pte(i).pack()) << "page " << i;
        EXPECT_EQ(f.pm.node_of(e->ptes[i].pfn), f.fast);
    }
    // The stale range is gone for good.
    EXPECT_EQ(cache.lookup(f.a, 0, 32), nullptr);

    // Put b back as mmap left it, so teardown frees what it mapped.
    for (std::uint64_t i = 0; i < 8; ++i) {
        f.pm.free(f.b->pte(i).pfn, 0);
        f.b->pte_slot(i).store(original[i], std::memory_order_release);
    }
}

}  // namespace
}  // namespace memif
