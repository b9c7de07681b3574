/**
 * @file
 * Unit tests for the pure move plan (move_plan.h), called directly on
 * real page tables with no MemifDevice, no engine and no event queue.
 * The replication lowering (lower_rows):
 * flat replication across mixed page sizes, 2D rows split at page
 * boundaries and folded into B-count entries, gather, the SVA slot map,
 * the PaRAM bound, and a seeded random-geometry sweep in which copying
 * the returned SG list must reproduce the reference model's per-row
 * byte oracle.
 */
#include "memif/device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "mem/phys.h"
#include "sim/random.h"
#include "vm/addr_space.h"
#include "vm/pte.h"
#include "vm/vma.h"

namespace memif::core {
namespace {

struct Fixture {
    mem::PhysicalMemory pm;
    mem::NodeId slow = mem::KeystoneMemory::build(pm, 64ull << 20).first;
    vm::AddressSpace as{pm};

    /** Map @p bytes at @p psize and fill it with a seeded pattern. */
    vm::Vma *
    map(std::uint64_t bytes, vm::PageSize psize, std::uint64_t seed)
    {
        const vm::VAddr base = as.mmap(bytes, psize, slow);
        vm::Vma *vma = as.find_vma(base);
        sim::Rng rng(seed);
        const std::uint64_t pb = vm::page_bytes(psize);
        for (std::uint64_t i = 0; i < vma->num_pages(); ++i) {
            std::byte *p = pm.span(vma->pte(i).pfn, pb);
            for (std::uint64_t b = 0; b < pb; ++b)
                p[b] = static_cast<std::byte>(rng.next());
        }
        return vma;
    }

    /** The bytes of [va, va + n) as the CPU sees them. */
    std::vector<std::byte>
    read(vm::VAddr va, std::uint64_t n)
    {
        std::vector<std::byte> out(n);
        for (std::uint64_t i = 0; i < n;) {
            const vm::Vma *v = as.find_vma(va + i);
            const std::uint64_t pb = vm::page_bytes(v->page_size());
            const std::uint64_t take =
                std::min(pb - (va + i - v->base()) % pb, n - i);
            std::memcpy(out.data() + i, as.translate(va + i), take);
            i += take;
        }
        return out;
    }

    /** The engine's view of an SG list: every entry (and every row of
     *  a 2D entry) is one physically contiguous copy. */
    void
    copy_sg(const std::vector<dma::SgEntry> &sg)
    {
        const auto at = [this](std::uint64_t pa, std::uint64_t bytes) {
            const std::uint64_t off = pa & (mem::kPageSize - 1);
            return pm.span(pa >> mem::kPageShift, off + bytes) + off;
        };
        for (const dma::SgEntry &e : sg) {
            for (std::uint32_t r = 0; r < e.rows; ++r)
                std::memcpy(at(e.dst_addr + r * e.dst_pitch, e.bytes),
                            at(e.src_addr + r * e.src_pitch, e.bytes),
                            e.bytes);
        }
    }

    /** Source frames as the executor's capture loop hands them over. */
    static std::vector<mem::Pfn>
    frames(const vm::Vma &vma, vm::VAddr base, std::uint64_t pages)
    {
        std::vector<mem::Pfn> out;
        const std::uint64_t first = vma.page_index(base);
        for (std::uint64_t i = 0; i < pages; ++i)
            out.push_back(vma.pte(first + i).pfn);
        return out;
    }

    /** Lower @p w, copy its SG list, and check the destination vma
     *  against the reference model's per-row oracle (row r of
     *  row_bytes lands at dst_base + r * dst_pitch; nothing else of
     *  the destination changes). */
    void
    expect_oracle(const RowWalk &w)
    {
        const vm::Vma &dv = *w.dst_vma;
        std::vector<std::byte> want = read(dv.base(), dv.bytes());
        for (std::uint32_t r = 0; r < w.rows; ++r) {
            const vm::VAddr src = w.row_srcs.empty()
                                      ? w.src_base + r * w.src_pitch
                                      : w.row_srcs[r];
            const std::vector<std::byte> row = read(src, w.row_bytes);
            std::memcpy(want.data() + (w.dst_base - dv.base()) +
                            r * w.dst_pitch,
                        row.data(), w.row_bytes);
        }
        const Lowering low = lower_rows(w);
        ASSERT_EQ(low.error, MovError::kNone);
        copy_sg(low.sg);
        EXPECT_EQ(read(dv.base(), dv.bytes()), want);
    }
};

/** Both ends of every segment of a non-folded walk stay inside one
 *  virtual page on each side, and the segments add up to the rows. */
void
expect_page_bounded(const RowWalk &w, const Lowering &low)
{
    std::uint64_t total = 0;
    for (const XlateSlot &s : low.slots) {
        const std::uint64_t spb = vm::page_bytes(w.src_vma->page_size());
        const std::uint64_t dpb = vm::page_bytes(w.dst_vma->page_size());
        EXPECT_EQ(w.src_vma->page_index(s.src_va),
                  w.src_vma->page_index(s.src_va + s.bytes - 1));
        EXPECT_EQ(w.dst_vma->page_index(s.dst_va),
                  w.dst_vma->page_index(s.dst_va + s.bytes - 1));
        EXPECT_LE(s.bytes, spb);
        EXPECT_LE(s.bytes, dpb);
        total += s.bytes;
    }
    EXPECT_EQ(total, std::uint64_t{w.rows} * w.row_bytes);
}

// ---------------------------------------------------------------------
// Flat replication: the one-row walk.
// ---------------------------------------------------------------------

/** Reference lowering of a flat replication: fixed chunks at the finer
 *  of the two page sizes (validate aligns dst_base to it). */
std::vector<dma::SgEntry>
fixed_chunks(const vm::Vma &sv, const vm::Vma &dv, vm::VAddr src_base,
             vm::VAddr dst_base, std::uint64_t bytes)
{
    const std::uint64_t spb = vm::page_bytes(sv.page_size());
    const std::uint64_t dpb = vm::page_bytes(dv.page_size());
    const std::uint64_t chunk = std::min(spb, dpb);
    const std::uint64_t first = sv.page_index(src_base);
    std::vector<dma::SgEntry> out;
    for (std::uint64_t off = 0; off < bytes; off += chunk) {
        const vm::VAddr dva = dst_base + off;
        const std::uint64_t didx = dv.page_index(dva);
        out.push_back(dma::SgEntry{
            (sv.pte(first + off / spb).pfn << mem::kPageShift) + off % spb,
            (dv.pte(didx).pfn << mem::kPageShift) + dva - dv.page_vaddr(didx),
            chunk});
    }
    return out;
}

void
expect_same_sg(const std::vector<dma::SgEntry> &a,
               const std::vector<dma::SgEntry> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].src_addr, b[i].src_addr) << "entry " << i;
        EXPECT_EQ(a[i].dst_addr, b[i].dst_addr) << "entry " << i;
        EXPECT_EQ(a[i].bytes, b[i].bytes) << "entry " << i;
        EXPECT_EQ(a[i].rows, b[i].rows) << "entry " << i;
        EXPECT_EQ(a[i].src_pitch, b[i].src_pitch) << "entry " << i;
        EXPECT_EQ(a[i].dst_pitch, b[i].dst_pitch) << "entry " << i;
    }
}

TEST(Lowering, FlatReplication4KTo64KMatchesFixedChunks)
{
    Fixture f;
    vm::Vma *sv = f.map(16 * 4096, vm::PageSize::k4K, 1);
    vm::Vma *dv = f.map(2 * 65536, vm::PageSize::k64K, 2);
    // dst_base is aligned to the finer (4 KB) page only, so the run
    // crosses a 64 KB page in the middle.
    const vm::VAddr dst_base = dv->base() + 3 * 4096;
    const std::vector<mem::Pfn> src = Fixture::frames(*sv, sv->base(), 16);
    RowWalk w{.src_vma = sv,
              .dst_vma = dv,
              .src_base = sv->base(),
              .dst_base = dst_base,
              .row_bytes = 16 * 4096,
              .src_frames = src};
    const Lowering low = lower_rows(w);
    ASSERT_EQ(low.error, MovError::kNone);
    EXPECT_EQ(low.sg.size(), 16u);
    EXPECT_TRUE(low.slots.empty());
    EXPECT_EQ(low.descriptors_2d, 0u);
    expect_same_sg(low.sg, fixed_chunks(*sv, *dv, sv->base(), dst_base,
                                        16 * 4096));
    // Reading the live source PTEs instead gives the same list.
    RowWalk live = w;
    live.src_frames = {};
    expect_same_sg(lower_rows(live).sg, low.sg);
    f.expect_oracle(w);
}

TEST(Lowering, FlatReplication64KTo4KMatchesFixedChunks)
{
    Fixture f;
    vm::Vma *sv = f.map(3 * 65536, vm::PageSize::k64K, 3);
    vm::Vma *dv = f.map(64 * 4096, vm::PageSize::k4K, 4);
    const vm::VAddr src_base = sv->base() + 65536;
    const vm::VAddr dst_base = dv->base() + 5 * 4096;
    const std::vector<mem::Pfn> src = Fixture::frames(*sv, src_base, 2);
    const RowWalk w{.src_vma = sv,
                    .dst_vma = dv,
                    .src_base = src_base,
                    .dst_base = dst_base,
                    .row_bytes = 2 * 65536,
                    .src_frames = src};
    const Lowering low = lower_rows(w);
    ASSERT_EQ(low.error, MovError::kNone);
    EXPECT_EQ(low.sg.size(), 32u);
    expect_same_sg(low.sg,
                   fixed_chunks(*sv, *dv, src_base, dst_base, 2 * 65536));
    f.expect_oracle(w);
}

// ---------------------------------------------------------------------
// 2D rows.
// ---------------------------------------------------------------------

TEST(Lowering, RowsSplitAtPageBoundariesOnBothSides)
{
    Fixture f;
    vm::Vma *sv = f.map(16 * 4096, vm::PageSize::k4K, 5);
    vm::Vma *dv = f.map(2 * 65536, vm::PageSize::k64K, 6);
    // 3000-byte rows 5000 apart cross a 4 KB source page now and then;
    // on the destination, 8 rows 9000 apart cross the 64 KB boundary.
    RowWalk w{.src_vma = sv,
              .dst_vma = dv,
              .src_base = sv->base() + 100,
              .dst_base = dv->base() + 65536 - 4 * 9000,
              .rows = 8,
              .row_bytes = 3000,
              .src_pitch = 5000,
              .dst_pitch = 9000,
              .sva_slots = true};
    const Lowering low = lower_rows(w);
    ASSERT_EQ(low.error, MovError::kNone);
    // Count the rows that straddle a page on either side by hand.
    std::uint64_t split = 0;
    for (std::uint32_t r = 0; r < w.rows; ++r) {
        const vm::VAddr s = w.src_base + r * w.src_pitch;
        const vm::VAddr d = w.dst_base + r * w.dst_pitch;
        if (sv->page_index(s) != sv->page_index(s + w.row_bytes - 1) ||
            dv->page_index(d) != dv->page_index(d + w.row_bytes - 1))
            ++split;
    }
    EXPECT_GT(split, 1u);
    EXPECT_EQ(low.row_splits, split);
    EXPECT_EQ(low.sg.size(), w.rows + split);
    expect_page_bounded(w, low);
    f.expect_oracle(w);
}

TEST(Lowering, WholeRowsFoldIntoBCountEntries)
{
    Fixture f;
    vm::Vma *sv = f.map(65536, vm::PageSize::k64K, 7);
    vm::Vma *dv = f.map(65536, vm::PageSize::k64K, 8);
    RowWalk w{.src_vma = sv,
              .dst_vma = dv,
              .src_base = sv->base() + 64,
              .dst_base = dv->base() + 128,
              .rows = 16,
              .row_bytes = 256,
              .src_pitch = 1024,
              .dst_pitch = 2048,
              .fold_2d = true};
    const Lowering folded = lower_rows(w);
    ASSERT_EQ(folded.error, MovError::kNone);
    ASSERT_EQ(folded.sg.size(), 1u);  // one page each side: one train
    EXPECT_EQ(folded.sg[0].rows, 16u);
    EXPECT_EQ(folded.sg[0].bytes, 256u);
    EXPECT_EQ(folded.sg[0].src_pitch, 1024u);
    EXPECT_EQ(folded.sg[0].dst_pitch, 2048u);
    EXPECT_EQ(folded.descriptors_2d, 1u);
    EXPECT_EQ(folded.row_splits, 0u);
    f.expect_oracle(w);

    RowWalk flat = w;
    flat.fold_2d = false;
    const Lowering per_row = lower_rows(flat);
    EXPECT_EQ(per_row.sg.size(), 16u);
    EXPECT_EQ(per_row.descriptors_2d, 0u);
}

TEST(Lowering, GatherReadsEachRowFromItsAddress)
{
    Fixture f;
    vm::Vma *sv = f.map(8 * 4096, vm::PageSize::k4K, 9);
    vm::Vma *dv = f.map(4 * 4096, vm::PageSize::k4K, 10);
    const std::vector<vm::VAddr> rows = {
        sv->base() + 7 * 4096 + 10, sv->base(), sv->base() + 4096 - 100,
        sv->base() + 3 * 4096 + 2000};
    RowWalk w{.src_vma = sv,
              .dst_vma = dv,
              .src_base = sv->base(),
              .dst_base = dv->base() + 50,
              .rows = 4,
              .row_bytes = 600,
              .dst_pitch = 700,
              .row_srcs = rows};
    const Lowering low = lower_rows(w);
    ASSERT_EQ(low.error, MovError::kNone);
    EXPECT_EQ(low.row_splits, 1u);  // the row at 4096 - 100
    EXPECT_EQ(low.sg.size(), 5u);
    f.expect_oracle(w);

    // A row that runs past the end of the source vma is rejected.
    std::vector<vm::VAddr> bad = rows;
    bad[2] = sv->end() - 599;
    w.row_srcs = bad;
    EXPECT_EQ(lower_rows(w).error, MovError::kBadAddress);
    bad[2] = sv->base() - 4096;
    EXPECT_EQ(lower_rows(w).error, MovError::kBadAddress);
    // An address whose row end wraps past 2^64 is outside, too.
    bad[2] = ~vm::VAddr{0} - 100;
    EXPECT_EQ(lower_rows(w).error, MovError::kBadAddress);
}

TEST(Lowering, SvaSlotsMapOneToOneOntoEntries)
{
    Fixture f;
    vm::Vma *sv = f.map(8 * 4096, vm::PageSize::k4K, 11);
    vm::Vma *dv = f.map(65536, vm::PageSize::k64K, 12);
    const RowWalk w{.src_vma = sv,
                    .dst_vma = dv,
                    .src_base = sv->base() + 4000,
                    .dst_base = dv->base(),
                    .rows = 6,
                    .row_bytes = 1500,
                    .src_pitch = 4096,
                    .dst_pitch = 1500,
                    .sva_slots = true};
    const Lowering low = lower_rows(w);
    ASSERT_EQ(low.error, MovError::kNone);
    ASSERT_EQ(low.slots.size(), low.sg.size());
    for (std::size_t i = 0; i < low.sg.size(); ++i) {
        const XlateSlot &s = low.slots[i];
        const dma::SgEntry &e = low.sg[i];
        EXPECT_EQ(e.rows, 1u);
        EXPECT_EQ(s.bytes, e.bytes);
        // The slot's virtual span resolves to exactly the entry.
        const vm::Pte sp = sv->pte(sv->page_index(s.src_va));
        const vm::Pte dp = dv->pte(dv->page_index(s.dst_va));
        EXPECT_EQ(e.src_addr, (sp.pfn << mem::kPageShift) + s.src_va -
                                  sv->page_vaddr(sv->page_index(s.src_va)));
        EXPECT_EQ(e.dst_addr, (dp.pfn << mem::kPageShift) + s.dst_va -
                                  dv->page_vaddr(dv->page_index(s.dst_va)));
    }
    expect_page_bounded(w, low);
    // Without sva_slots the same walk emits no slots.
    RowWalk plain = w;
    plain.sva_slots = false;
    EXPECT_TRUE(lower_rows(plain).slots.empty());
}

// ---------------------------------------------------------------------
// Rejections.
// ---------------------------------------------------------------------

TEST(Lowering, MoreSegmentsThanThePaRAMIsABadRequest)
{
    Fixture f;
    vm::Vma *sv = f.map(512 * 4096, vm::PageSize::k4K, 13);
    vm::Vma *dv = f.map(4 * 65536, vm::PageSize::k64K, 14);
    // 300 rows each straddling a source page: 600 segments > 512.
    const RowWalk w{.src_vma = sv,
                    .dst_vma = dv,
                    .src_base = sv->base() + 4096 - 8,
                    .dst_base = dv->base(),
                    .rows = 300,
                    .row_bytes = 16,
                    .src_pitch = 4096,
                    .dst_pitch = 16};
    const Lowering low = lower_rows(w);
    EXPECT_EQ(low.error, MovError::kBadRequest);
    EXPECT_EQ(low.sg.size(), 600u);
    EXPECT_EQ(low.row_splits, 300u);
    EXPECT_GT(low.sg.size(), dma::DescriptorRam::kEntries);
}

TEST(Lowering, AbsentAndMigratingPagesAreRejected)
{
    Fixture f;
    vm::Vma *sv = f.map(4 * 4096, vm::PageSize::k4K, 15);
    vm::Vma *dv = f.map(4 * 4096, vm::PageSize::k4K, 16);
    const RowWalk w{.src_vma = sv,
                    .dst_vma = dv,
                    .src_base = sv->base(),
                    .dst_base = dv->base(),
                    .row_bytes = 4 * 4096};
    const auto set = [](vm::Vma *v, std::uint64_t i, vm::Pte p) {
        v->pte_slot(i).store(p.pack());
    };
    const vm::Pte d2 = dv->pte(2);
    vm::Pte migrating = d2;
    migrating.migration = true;
    set(dv, 2, migrating);
    EXPECT_EQ(lower_rows(w).error, MovError::kBusy);
    // Within one segment an absent page wins over a migrating one.
    const vm::Pte s2 = sv->pte(2);
    set(sv, 2, vm::Pte{});
    EXPECT_EQ(lower_rows(w).error, MovError::kBadAddress);
    set(sv, 2, s2);
    set(dv, 2, d2);
    EXPECT_EQ(lower_rows(w).error, MovError::kNone);
}

// ---------------------------------------------------------------------
// Seeded random-geometry sweep against the per-row oracle.
// ---------------------------------------------------------------------

TEST(Lowering, RandomGeometriesReproduceThePerRowOracle)
{
    const vm::PageSize sizes[] = {vm::PageSize::k4K, vm::PageSize::k64K};
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Fixture f;
        sim::Rng rng(seed);
        for (int round = 0; round < 24; ++round) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " round " << round);
            const vm::PageSize sps = sizes[rng.next_below(2)];
            const vm::PageSize dps = sizes[rng.next_below(2)];
            const bool gather = rng.next_below(4) == 0;
            // As in the executor: SVA slots need the 1:1 slot <-> entry
            // map, so they never come with 2D folding.
            const bool sva = rng.next_below(2) == 0;
            const bool fold = !gather && !sva && rng.next_below(2) == 0;
            const auto rows = static_cast<std::uint32_t>(
                1 + rng.next_below(48));
            const std::uint64_t row_bytes = 1 + rng.next_below(6000);
            const std::uint64_t src_pitch =
                row_bytes + (rng.next_below(3) == 0 ? 0
                                                    : rng.next_below(5000));
            const std::uint64_t dst_pitch =
                row_bytes + (rng.next_below(3) == 0 ? 0
                                                    : rng.next_below(5000));
            const std::uint64_t src_span = rows * src_pitch + 8192;
            const std::uint64_t dst_span = rows * dst_pitch + 8192;
            vm::Vma *sv = f.map(src_span, sps, seed * 100 + round);
            vm::Vma *dv = f.map(dst_span, dps, seed * 100 + round + 50);
            std::vector<vm::VAddr> row_srcs;
            if (gather) {
                for (std::uint32_t r = 0; r < rows; ++r)
                    row_srcs.push_back(
                        sv->base() + rng.next_below(sv->bytes() - row_bytes));
            }
            const RowWalk w{
                .src_vma = sv,
                .dst_vma = dv,
                .src_base = sv->base() + rng.next_below(4096),
                .dst_base = dv->base() + rng.next_below(4096),
                .rows = rows,
                .row_bytes = row_bytes,
                .src_pitch = src_pitch,
                .dst_pitch = dst_pitch,
                .row_srcs = row_srcs,
                .fold_2d = fold,
                .sva_slots = sva};
            const Lowering low = lower_rows(w);
            if (low.error == MovError::kBadRequest) {
                EXPECT_GT(low.sg.size(), dma::DescriptorRam::kEntries);
                continue;
            }
            ASSERT_EQ(low.error, MovError::kNone);
            if (sva) {
                ASSERT_EQ(low.slots.size(), low.sg.size());
                expect_page_bounded(w, low);
            }
            f.expect_oracle(w);
        }
    }
}


// ---------------------------------------------------------------------
// The move plan: page runs and payload of a validated snapshot.
// ---------------------------------------------------------------------

/** Pages [first, first + pages) of @p vma that the slots' @p side
 *  (0 = source, 1 = destination) spans: the hull the plan must match. */
PageRun
slot_hull(const vm::Vma &vma, const std::vector<XlateSlot> &slots, int side)
{
    std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
    for (const XlateSlot &s : slots) {
        const vm::VAddr va = side == 0 ? s.src_va : s.dst_va;
        lo = std::min(lo, vma.page_index(va));
        hi = std::max(hi, vma.page_index(va + s.bytes - 1));
    }
    return {lo, hi - lo + 1};
}

void
expect_run(const PageRun &got, const PageRun &want)
{
    EXPECT_EQ(got.first, want.first);
    EXPECT_EQ(got.pages, want.pages);
}

TEST(MovePlan, DestinationRunCountsAStraddledLastPage)
{
    Fixture f;
    vm::Vma *sv = f.map(16 * 4096, vm::PageSize::k4K, 1);
    vm::Vma *dv = f.map(16 * 4096, vm::PageSize::k4K, 2);
    // One 2 KB row written at offset 3 KB: bytes [3 KB, 5 KB) touch
    // destination pages 0 and 1, though 2 KB fits in one page.
    ReqSnapshot s{.src_base = sv->base(),
                  .dst_base = dv->base() + 3072,
                  .rows = 1,
                  .row_bytes = 2048,
                  .src_pitch = 2048,
                  .dst_pitch = 2048};
    MovePlan p = plan_move(s, *sv, dv);
    expect_run(p.dst, {0, 2});
    expect_run(p.src, {0, 1});
    EXPECT_EQ(p.payload_bytes, 2048u);

    // A flat 4 KB-page replication into 64 KB pages at a 4 KB-aligned
    // base: 256 KB from offset 4 KB spans five destination pages.
    vm::Vma *big = f.map(5 * 65536, vm::PageSize::k64K, 3);
    vm::Vma *flat_src = f.map(64 * 4096, vm::PageSize::k4K, 4);
    s = ReqSnapshot{.src_base = flat_src->base(),
                    .dst_base = big->base() + 4096,
                    .num_pages = 64};
    p = plan_move(s, *flat_src, big);
    expect_run(p.dst, {0, 5});
    expect_run(p.src, {0, 64});
    EXPECT_EQ(p.payload_bytes, 64u * 4096);

    // A migration plans its source run alone.
    s = ReqSnapshot{.op = MovOp::kMigrate,
                    .src_base = flat_src->base() + 8 * 4096,
                    .num_pages = 3};
    p = plan_move(s, *flat_src, nullptr);
    expect_run(p.src, {8, 3});
    expect_run(p.dst, {0, 0});
    EXPECT_EQ(p.payload_bytes, 3u * 4096);
}

TEST(MovePlan, RandomGeometriesPlanTheHullOfTheirLowering)
{
    // Oracle: the plan's runs are the hull of the pages the row walk
    // touches (its SVA slots name every segment's virtual span), and
    // its payload is the walk's byte total; a gather's source run is
    // its whole vma.
    const vm::PageSize sizes[] = {vm::PageSize::k4K, vm::PageSize::k64K};
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Fixture f;
        sim::Rng rng(seed);
        for (int round = 0; round < 24; ++round) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " round " << round);
            const vm::PageSize sps = sizes[rng.next_below(2)];
            const vm::PageSize dps = sizes[rng.next_below(2)];
            const std::uint64_t spb = vm::page_bytes(sps);
            const std::uint64_t dpb = vm::page_bytes(dps);
            const int shape = static_cast<int>(rng.next_below(3));
            ReqSnapshot s;
            std::vector<vm::VAddr> row_srcs;
            vm::Vma *sv = nullptr;
            vm::Vma *dv = nullptr;
            if (shape == 0) {
                // Flat: page-aligned source, destination aligned to the
                // finer page size (validate's rule).
                s.num_pages = static_cast<std::uint32_t>(
                    1 + rng.next_below(spb == 4096 ? 64 : 4));
                const std::uint64_t bytes = s.num_pages * spb;
                sv = f.map(bytes + 2 * spb, sps, seed * 100 + round);
                dv = f.map(bytes + 2 * dpb, dps, seed * 100 + round + 50);
                s.src_base = sv->base() + rng.next_below(2) * spb;
                s.dst_base = dv->base() +
                             rng.next_below(dpb / std::min(spb, dpb) + 1) *
                                 std::min(spb, dpb);
            } else {
                s.rows = static_cast<std::uint32_t>(1 + rng.next_below(48));
                s.row_bytes =
                    static_cast<std::uint32_t>(1 + rng.next_below(6000));
                s.src_pitch = s.row_bytes + rng.next_below(5000);
                s.dst_pitch = s.row_bytes + rng.next_below(5000);
                sv = f.map(s.rows * s.src_pitch + 8192, sps,
                           seed * 100 + round);
                dv = f.map(s.rows * s.dst_pitch + 8192, dps,
                           seed * 100 + round + 50);
                s.src_base = sv->base() + rng.next_below(4096);
                s.dst_base = dv->base() + rng.next_below(4096);
                if (shape == 2) {
                    s.gather_list = 8;  // any non-zero list address
                    for (std::uint32_t r = 0; r < s.rows; ++r)
                        row_srcs.push_back(
                            sv->base() +
                            rng.next_below(sv->bytes() - s.row_bytes));
                }
            }
            const MovePlan p = plan_move(s, *sv, dv);
            const bool strided = s.rows != 0;
            const Lowering low = lower_rows(RowWalk{
                .src_vma = sv,
                .dst_vma = dv,
                .src_base = s.src_base,
                .dst_base = s.dst_base,
                .rows = strided ? s.rows : 1u,
                .row_bytes = strided ? s.row_bytes : p.payload_bytes,
                .src_pitch = s.src_pitch,
                .dst_pitch = s.dst_pitch,
                .row_srcs = row_srcs,
                .sva_slots = true});
            // Past-the-PaRAM walks still emit every segment.
            ASSERT_TRUE(low.error == MovError::kNone ||
                        low.error == MovError::kBadRequest);
            std::uint64_t bytes = 0;
            for (const XlateSlot &slot : low.slots) bytes += slot.bytes;
            EXPECT_EQ(p.payload_bytes, bytes);
            expect_run(p.dst, slot_hull(*dv, low.slots, 1));
            if (shape == 2)
                expect_run(p.src, {0, sv->num_pages()});
            else
                expect_run(p.src, slot_hull(*sv, low.slots, 0));
        }
    }
}

// ---------------------------------------------------------------------
// The route: direct, or chained through the nearest in-between node.
// ---------------------------------------------------------------------

TEST(ChainRoute, KeystoneTiersChainOnlySramAndFar)
{
    // The kernel's three-tier SLIT: DDR-SRAM 20, DDR-far 30, SRAM-far
    // 40. Only DDR sits strictly between SRAM and the far tier.
    mem::PhysicalMemory pm;
    const std::vector<mem::NodeId> n = mem::KeystoneMemory::build(
        pm, {{.name = "ddr", .bytes = 1 << 20},
             {.name = "sram", .bytes = 1 << 20, .is_fast = true},
             {.name = "far", .bytes = 1 << 20}});
    pm.set_distance(n[0], n[2], 30);
    pm.set_distance(n[1], n[2], 40);
    const auto frames = [&](mem::NodeId node) {
        return std::vector<mem::Pfn>{pm.allocate(node, 0),
                                     pm.allocate(node, 0)};
    };
    EXPECT_EQ(chain_route(pm, frames(n[1]), n[2]), n[0]);
    EXPECT_EQ(chain_route(pm, frames(n[2]), n[1]), n[0]);
    EXPECT_EQ(chain_route(pm, frames(n[0]), n[2]), mem::kInvalidNode);
    EXPECT_EQ(chain_route(pm, frames(n[2]), n[0]), mem::kInvalidNode);
    EXPECT_EQ(chain_route(pm, frames(n[0]), n[1]), mem::kInvalidNode);
    EXPECT_EQ(chain_route(pm, frames(n[1]), n[1]), mem::kInvalidNode);
    // Mixed residency and an empty run stay direct.
    std::vector<mem::Pfn> mixed = frames(n[1]);
    mixed.push_back(pm.allocate(n[0], 0));
    EXPECT_EQ(chain_route(pm, mixed, n[2]), mem::kInvalidNode);
    EXPECT_EQ(chain_route(pm, {}, n[2]), mem::kInvalidNode);
}

TEST(ChainRoute, RandomDistancesPickTheNearestInBetweenNode)
{
    // Oracle: a route through m is valid when both legs are strictly
    // shorter than the direct distance; the chosen one has the
    // smallest longer leg (lowest id on a tie), and "direct" means no
    // node is valid. Frames spread over two nodes are always direct.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        sim::Rng rng(seed);
        mem::PhysicalMemory pm;
        const auto count = static_cast<mem::NodeId>(3 + rng.next_below(3));
        std::vector<mem::NodeConfig> cfgs(count);
        for (mem::NodeId i = 0; i < count; ++i)
            cfgs[i] = {.name = "n" + std::to_string(i), .bytes = 1 << 20};
        mem::KeystoneMemory::build(pm, cfgs);
        for (mem::NodeId a = 0; a < count; ++a)
            for (mem::NodeId b = a + 1; b < count; ++b)
                pm.set_distance(a, b, static_cast<std::uint32_t>(
                                          11 + rng.next_below(50)));
        for (int round = 0; round < 32; ++round) {
            const auto src = static_cast<mem::NodeId>(rng.next_below(count));
            const auto dst = static_cast<mem::NodeId>(rng.next_below(count));
            SCOPED_TRACE(testing::Message() << "seed " << seed << " " << src
                                            << " -> " << dst);
            std::vector<mem::Pfn> frames;
            for (std::uint64_t i = 0; i < 1 + rng.next_below(4); ++i)
                frames.push_back(pm.allocate(src, 0));
            mem::NodeId want = mem::kInvalidNode;
            std::uint32_t want_leg = 0;
            const std::uint32_t direct = pm.distance(src, dst);
            for (mem::NodeId m = 0; m < count && src != dst; ++m) {
                const std::uint32_t a = pm.distance(src, m);
                const std::uint32_t b = pm.distance(m, dst);
                if (m == src || m == dst || a >= direct || b >= direct)
                    continue;
                if (want == mem::kInvalidNode || std::max(a, b) < want_leg) {
                    want = m;
                    want_leg = std::max(a, b);
                }
            }
            EXPECT_EQ(chain_route(pm, frames, dst), want);
            const auto other = static_cast<mem::NodeId>((src + 1) % count);
            frames.push_back(pm.allocate(other, 0));
            EXPECT_EQ(chain_route(pm, frames, dst), mem::kInvalidNode);
        }
    }
}

// ---------------------------------------------------------------------
// The page-pair lowering: migrations and chain hops.
// ---------------------------------------------------------------------

TEST(PagePairs, RandomPairsCopyEveryPageAndMergeOnlyContiguousRuns)
{
    // Oracle: copying the list moves from[i]'s block to to[i] for every
    // i; the unmerged list is one entry per pair; the merged list is
    // coalesce_sg of the unmerged one, with one entry per maximal run
    // contiguous on both sides.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        Fixture f;
        sim::Rng rng(seed);
        for (int round = 0; round < 16; ++round) {
            SCOPED_TRACE(testing::Message()
                         << "seed " << seed << " round " << round);
            const auto order = static_cast<unsigned>(rng.next_below(5));
            const std::uint64_t pb = mem::kPageSize << order;
            const std::size_t n = 1 + rng.next_below(24);
            // Blocks allocated back to back are mostly contiguous;
            // random swaps break some of the runs.
            std::vector<mem::Pfn> from, to;
            for (std::size_t i = 0; i < n; ++i)
                from.push_back(f.pm.allocate(f.slow, order));
            for (std::size_t i = 0; i < n; ++i)
                to.push_back(f.pm.allocate(f.slow, order));
            for (int k = 0; k < 3; ++k) {
                std::swap(from[rng.next_below(n)], from[rng.next_below(n)]);
                std::swap(to[rng.next_below(n)], to[rng.next_below(n)]);
            }
            for (const mem::Pfn pfn : from) {
                std::byte *p = f.pm.span(pfn, pb);
                for (std::uint64_t b = 0; b < pb; ++b)
                    p[b] = static_cast<std::byte>(rng.next());
            }

            const std::vector<dma::SgEntry> flat =
                lower_page_pairs(from, to, order, /*merge=*/false);
            ASSERT_EQ(flat.size(), n);
            for (std::size_t i = 0; i < n; ++i) {
                EXPECT_EQ(flat[i].src_addr, from[i] << mem::kPageShift);
                EXPECT_EQ(flat[i].dst_addr, to[i] << mem::kPageShift);
                EXPECT_EQ(flat[i].bytes, pb);
            }
            const std::vector<dma::SgEntry> merged =
                lower_page_pairs(from, to, order, /*merge=*/true);
            expect_same_sg(merged, coalesce_sg(flat));
            std::size_t runs = 1;
            for (std::size_t i = 1; i < n; ++i)
                if (from[i] != from[i - 1] + (mem::Pfn{1} << order) ||
                    to[i] != to[i - 1] + (mem::Pfn{1} << order))
                    ++runs;
            EXPECT_EQ(merged.size(), runs);

            f.copy_sg(merged);
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_EQ(std::memcmp(f.pm.span(to[i], pb),
                                      f.pm.span(from[i], pb), pb),
                          0)
                    << "pair " << i;
            for (std::size_t i = 0; i < n; ++i) {
                f.pm.free(from[i], order);
                f.pm.free(to[i], order);
            }
        }
    }
}

}  // namespace
}  // namespace memif::core
