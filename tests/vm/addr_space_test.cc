/**
 * @file
 * Unit tests for address spaces: mmap/munmap, translation, functional
 * read/write across pages, and the access semantics (young clearing,
 * migration blocking) underpinning §5.2.
 */
#include "vm/addr_space.h"

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "mem/phys.h"
#include "sim/random.h"
#include "vm/file_backing.h"
#include "vm/pte.h"
#include "vm/vma.h"

namespace memif::vm {
namespace {

struct Fixture {
    mem::PhysicalMemory pm;
    mem::NodeId slow, fast;
    Fixture()
    {
        auto ids = mem::KeystoneMemory::build(pm, 32ull << 20);
        slow = ids.first;
        fast = ids.second;
    }
};

TEST(AddressSpace, MmapPopulatesPtesAndRmap)
{
    Fixture f;
    AddressSpace as(f.pm);
    const VAddr base = as.mmap(8 * 4096, PageSize::k4K, f.slow);
    ASSERT_NE(base, 0u);
    Vma *vma = as.find_vma(base);
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->num_pages(), 8u);
    for (std::uint64_t i = 0; i < 8; ++i) {
        const Pte pte = vma->pte(i);
        EXPECT_TRUE(pte.present);
        EXPECT_FALSE(pte.young);
        EXPECT_EQ(f.pm.node_of(pte.pfn), f.slow);
        const mem::PageFrame &frame = f.pm.frame(pte.pfn);
        ASSERT_EQ(frame.mapcount(), 1u);
        EXPECT_EQ(frame.rmaps[0].owner, &as);
        EXPECT_EQ(frame.rmaps[0].vaddr, vma->page_vaddr(i));
    }
}

TEST(AddressSpace, MmapAlignsLargePages)
{
    Fixture f;
    AddressSpace as(f.pm);
    const VAddr a = as.mmap(100, PageSize::k4K, f.slow);
    const VAddr b = as.mmap(3 << 20, PageSize::k2M, f.slow);
    EXPECT_EQ(b % (2ull << 20), 0u);
    Vma *vma = as.find_vma(b);
    ASSERT_NE(vma, nullptr);
    EXPECT_EQ(vma->num_pages(), 2u);  // 3 MB rounds up to two 2 MB pages
    EXPECT_NE(a, b);
}

TEST(AddressSpace, MunmapReturnsFramesToBuddy)
{
    Fixture f;
    AddressSpace as(f.pm);
    const std::uint64_t before = f.pm.node(f.fast).free_frames();
    const VAddr base = as.mmap(64 * 4096, PageSize::k4K, f.fast);
    ASSERT_NE(base, 0u);
    EXPECT_EQ(f.pm.node(f.fast).free_frames(), before - 64);
    as.munmap(base);
    EXPECT_EQ(f.pm.node(f.fast).free_frames(), before);
    EXPECT_EQ(as.find_vma(base), nullptr);
}

TEST(AddressSpace, MmapFailsGracefullyWhenNodeExhausted)
{
    Fixture f;
    AddressSpace as(f.pm);
    // The 6 MB fast node cannot back 8 MB.
    const VAddr base = as.mmap(8ull << 20, PageSize::k4K, f.fast);
    EXPECT_EQ(base, 0u);
    // And the failed mapping must not leak frames.
    const std::uint64_t frames = f.pm.node(f.fast).free_frames();
    EXPECT_EQ(frames, (6ull << 20) / 4096);
}

TEST(AddressSpace, ReadWriteRoundTripAcrossPages)
{
    Fixture f;
    AddressSpace as(f.pm);
    const VAddr base = as.mmap(4 * 4096, PageSize::k4K, f.slow);
    std::vector<std::uint8_t> out(3 * 4096 + 123);
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] = static_cast<std::uint8_t>(i * 13 + 1);
    // Start mid-page so the copy straddles boundaries.
    ASSERT_TRUE(as.write(base + 100, out.data(), out.size()));
    std::vector<std::uint8_t> in(out.size());
    ASSERT_TRUE(as.read(base + 100, in.data(), in.size()));
    EXPECT_EQ(in, out);
}

TEST(AddressSpace, TranslateReturnsStablePointers)
{
    Fixture f;
    AddressSpace as(f.pm);
    const VAddr base = as.mmap(4096, PageSize::k4K, f.slow);
    std::byte *p = as.translate(base + 5);
    ASSERT_NE(p, nullptr);
    *p = std::byte{0x5A};
    std::uint8_t v = 0;
    as.read(base + 5, &v, 1);
    EXPECT_EQ(v, 0x5A);
    EXPECT_EQ(as.translate(base - 1), nullptr);
}

TEST(AddressSpace, TouchClearsYoungExactlyOnce)
{
    Fixture f;
    AddressSpace as(f.pm);
    const VAddr base = as.mmap(4096, PageSize::k4K, f.slow);
    Vma *vma = as.find_vma(base);
    // Install a semi-final PTE (young set), as the memif Remap does.
    Pte pte = vma->pte(0);
    pte.young = true;
    vma->pte_slot(0).store(pte.pack(), std::memory_order_release);

    EXPECT_EQ(as.touch(base, false), AccessResult::kClearedYoung);
    EXPECT_EQ(as.stats().young_clears, 1u);
    EXPECT_FALSE(vma->pte(0).young);
    EXPECT_EQ(as.touch(base, false), AccessResult::kOk);
    EXPECT_EQ(as.stats().young_clears, 1u);
}

TEST(AddressSpace, TouchBlocksOnMigrationPte)
{
    Fixture f;
    AddressSpace as(f.pm);
    const VAddr base = as.mmap(4096, PageSize::k4K, f.slow);
    Vma *vma = as.find_vma(base);
    Pte pte = vma->pte(0);
    pte.migration = true;
    vma->pte_slot(0).store(pte.pack(), std::memory_order_release);

    EXPECT_EQ(as.touch(base, true), AccessResult::kBlockedOnMigration);
    EXPECT_EQ(as.stats().migration_blocks, 1u);

    pte.migration = false;
    vma->pte_slot(0).store(pte.pack(), std::memory_order_release);
    EXPECT_EQ(as.touch(base, true), AccessResult::kOk);
}

TEST(AddressSpace, TouchMarksDirtyOnWrite)
{
    Fixture f;
    AddressSpace as(f.pm);
    const VAddr base = as.mmap(4096, PageSize::k4K, f.slow);
    Vma *vma = as.find_vma(base);
    EXPECT_FALSE(vma->pte(0).dirty);
    as.touch(base, false);
    EXPECT_FALSE(vma->pte(0).dirty);
    as.touch(base, true);
    EXPECT_TRUE(vma->pte(0).dirty);
}

TEST(AddressSpace, TouchUnmappedIsHardFault)
{
    Fixture f;
    AddressSpace as(f.pm);
    EXPECT_EQ(as.touch(0xDEAD000, false), AccessResult::kNotPresent);
    EXPECT_EQ(as.stats().hard_faults, 1u);
}

TEST(AddressSpace, DestructorReleasesEverything)
{
    Fixture f;
    const std::uint64_t before = f.pm.node(f.slow).free_frames();
    {
        AddressSpace as(f.pm);
        as.mmap(1 << 20, PageSize::k4K, f.slow);
        as.mmap(2 << 20, PageSize::k2M, f.slow);
        as.mmap(1 << 20, PageSize::k64K, f.slow);
    }
    EXPECT_EQ(f.pm.node(f.slow).free_frames(), before);
}

/** A page cache of frames allocated up front; its rmap entries keep the
 *  frames alive across munmap, as a real file's cache would. */
class StubFile : public FileBacking {
  public:
    StubFile(mem::PhysicalMemory &pm, mem::NodeId node, std::uint64_t pages)
    {
        for (std::uint64_t i = 0; i < pages; ++i) {
            pfns_.push_back(pm.allocate(node, 0));
            pm.frame(pfns_.back())
                .add_rmap(this, i, mem::RmapKind::kPageCache);
        }
    }
    void
    relocate(std::uint64_t page, mem::Pfn pfn) override
    {
        pfns_[page] = pfn;
    }
    mem::Pfn
    cached_pfn(std::uint64_t page) const override
    {
        return pfns_[page];
    }

  private:
    std::vector<mem::Pfn> pfns_;
};

TEST(AddressSpace, FindVmaMatchesALinearScanOverMixedMappings)
{
    Fixture f;
    StubFile file(f.pm, f.slow, 16);
    AddressSpace as(f.pm);
    struct Span {
        VAddr base, end;
        bool large = false;
    };
    std::vector<Span> live;  // the oracle, in mapping order
    const auto oracle = [&live](VAddr va) -> const Span * {
        for (const Span &s : live)
            if (va >= s.base && va < s.end) return &s;
        return nullptr;
    };
    const auto check_probes = [&] {
        std::vector<VAddr> probes = {0, 1};
        for (std::size_t i = 0; i < live.size(); ++i) {
            const Span &s = live[i];
            // Each base, each last byte, one past each end, one below
            // each base — and the middle of the gap to the next span
            // (alignment gaps and munmap holes).
            probes.insert(probes.end(),
                          {s.base, s.end - 1, s.end, s.base - 1});
            if (i + 1 < live.size())
                probes.push_back(s.end + (live[i + 1].base - s.end) / 2);
        }
        if (!live.empty()) probes.push_back(live.back().end + (64ull << 20));
        for (const VAddr va : probes) {
            const Span *want = oracle(va);
            const Vma *got = as.find_vma(va);
            const Vma *got_const = std::as_const(as).find_vma(va);
            ASSERT_EQ(got, got_const);
            if (!want) {
                ASSERT_EQ(got, nullptr) << "va 0x" << std::hex << va;
                continue;
            }
            ASSERT_NE(got, nullptr) << "va 0x" << std::hex << va;
            ASSERT_EQ(got->base(), want->base);
            ASSERT_EQ(got->end(), want->end);
        }
    };

    sim::Rng rng(11);
    int large_pages = 0;  // live 2 MB mappings
    constexpr PageSize kSizes[] = {PageSize::k4K, PageSize::k64K,
                                   PageSize::k2M};
    for (int step = 0; step < 120; ++step) {
        const std::uint64_t pick = rng.next_below(10);
        if (pick < 4 || live.empty()) {
            PageSize ps = kSizes[rng.next_below(3)];
            // Keep the large pages within the node's 32 MB.
            if (ps == PageSize::k2M && large_pages == 6) ps = PageSize::k4K;
            large_pages += ps == PageSize::k2M;
            const std::uint64_t pb = page_bytes(ps);
            const std::uint64_t pages =
                1 + rng.next_below(ps == PageSize::k2M ? 1 : 6);
            // A partial last page still maps a whole one.
            const std::uint64_t bytes = pages * pb - rng.next_below(pb);
            const VAddr base = as.mmap(bytes, ps, f.slow);
            ASSERT_NE(base, 0u);
            live.push_back({base, base + pages * pb, ps == PageSize::k2M});
        } else if (pick < 6) {
            const std::uint64_t first = rng.next_below(8);
            const std::uint64_t pages = 1 + rng.next_below(8);
            const VAddr base = as.mmap_file(file, first, pages);
            ASSERT_NE(base, 0u);
            live.push_back({base, base + pages * 4096, false});
        } else if (pick < 7) {
            const Span src = live[rng.next_below(live.size())];
            const Vma *vma = as.find_vma(src.base);
            const VAddr base = as.mmap_shared(*vma);
            ASSERT_NE(base, 0u);
            live.push_back({base, base + (src.end - src.base), src.large});
            large_pages += src.large;
        } else {
            const std::size_t victim = rng.next_below(live.size());
            as.munmap(live[victim].base);
            large_pages -= live[victim].large;
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(victim));
        }
        check_probes();
    }
    EXPECT_EQ(as.vma_count(), live.size());
}

TEST(Vma, GeometryHelpers)
{
    EXPECT_EQ(page_bytes(PageSize::k4K), 4096u);
    EXPECT_EQ(page_bytes(PageSize::k64K), 65536u);
    EXPECT_EQ(page_bytes(PageSize::k2M), 2u << 20);
    EXPECT_EQ(page_order(PageSize::k4K), 0u);
    EXPECT_EQ(page_order(PageSize::k64K), 4u);
    EXPECT_EQ(page_order(PageSize::k2M), 9u);
    EXPECT_EQ(frames_per_page(PageSize::k2M), 512u);
}

TEST(Pte, PackUnpackRoundTrip)
{
    Pte p;
    p.pfn = 0x12345;
    p.present = true;
    p.writable = true;
    p.young = true;
    p.dirty = false;
    p.migration = true;
    const Pte q = Pte::unpack(p.pack());
    EXPECT_EQ(q, p);
    EXPECT_EQ(q.pfn, 0x12345u);
    EXPECT_TRUE(q.young);
    EXPECT_TRUE(q.migration);
    EXPECT_FALSE(q.dirty);
}

}  // namespace
}  // namespace memif::vm
