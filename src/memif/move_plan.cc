#include "memif/move_plan.h"

#include <algorithm>

#include "dma/descriptor.h"

namespace memif::core {

namespace {

/** Cap on one coalesced run: a descriptor packs large transfers as
 *  4 KB x BCNT arrays and BCNT is 16-bit, so stay well below the
 *  0xFFFF * 4 KB ceiling (and keep runs page-aligned multiples). */
constexpr std::uint64_t kMaxCoalescedRunBytes = 64ull << 20;

/** Append @p e to @p out, merged into the last entry when both runs
 *  continue it. */
void
push_coalesced(std::vector<dma::SgEntry> &out, const dma::SgEntry &e)
{
    if (!out.empty()) {
        dma::SgEntry &last = out.back();
        // Only flat entries merge: a 2D entry's extent is pitched, so
        // byte-contiguity of its endpoints says nothing about the next
        // run, and folding one away would lose geometry.
        if (!last.strided() && !e.strided() &&
            last.src_addr + last.bytes == e.src_addr &&
            last.dst_addr + last.bytes == e.dst_addr &&
            last.bytes + e.bytes <= kMaxCoalescedRunBytes) {
            last.bytes += e.bytes;
            return;
        }
    }
    out.push_back(e);
}

}  // namespace

MovePlan
plan_move(const ReqSnapshot &s, const vm::Vma &src, const vm::Vma *dst)
{
    MovePlan p;
    p.src.first = src.page_index(s.src_base);
    std::uint64_t dst_span = 0;
    if (s.rows == 0) {
        p.src.pages = s.num_pages;
        p.payload_bytes = s.num_pages * vm::page_bytes(src.page_size());
        dst_span = p.payload_bytes;
    } else {
        // Strided: the envelopes cover the whole pitched extent, gaps
        // included, so the in-flight overlap checks stay conservative;
        // the payload is the rows alone.
        p.payload_bytes = std::uint64_t{s.rows} * s.row_bytes;
        dst_span = (std::uint64_t{s.rows} - 1) * s.dst_pitch + s.row_bytes;
        if (s.gather_list != 0) {
            // Gather rows may sit anywhere in the source vma.
            p.src = {0, src.num_pages()};
        } else {
            const std::uint64_t src_span =
                (std::uint64_t{s.rows} - 1) * s.src_pitch + s.row_bytes;
            p.src.pages =
                src.page_index(s.src_base + src_span - 1) - p.src.first + 1;
        }
    }
    if (dst) {
        // From dst_base's page to the page of the last byte: an
        // unaligned base straddles one page more than span / page size.
        p.dst.first = dst->page_index(s.dst_base);
        p.dst.pages =
            dst->page_index(s.dst_base + dst_span - 1) - p.dst.first + 1;
    }
    return p;
}

mem::NodeId
chain_route(const mem::PhysicalMemory &pm, std::span<const mem::Pfn> frames,
            mem::NodeId dst)
{
    if (frames.empty()) return mem::kInvalidNode;
    const mem::NodeId src = pm.node_of(frames[0]);
    for (const mem::Pfn pfn : frames)
        if (pm.node_of(pfn) != src) return mem::kInvalidNode;
    if (src == dst) return mem::kInvalidNode;
    const std::uint32_t direct = pm.distance(src, dst);
    mem::NodeId best = mem::kInvalidNode;
    std::uint32_t best_worst = 0;
    const auto count = static_cast<mem::NodeId>(pm.node_count());
    for (mem::NodeId n = 0; n < count; ++n) {
        if (n == src || n == dst) continue;
        const std::uint32_t a = pm.distance(src, n);
        const std::uint32_t b = pm.distance(n, dst);
        // "Between" in SLIT terms: strictly closer to both endpoints
        // than they are to each other. With the default topology only
        // DDR sits between SRAM and the far tier; SRAM is not between
        // DDR and far (its far leg is longer than the direct path).
        if (a >= direct || b >= direct) continue;
        const std::uint32_t worst = std::max(a, b);
        if (best == mem::kInvalidNode || worst < best_worst) {
            best = n;
            best_worst = worst;
        }
    }
    return best;
}

std::vector<dma::SgEntry>
coalesce_sg(const std::vector<dma::SgEntry> &sg)
{
    std::vector<dma::SgEntry> out;
    out.reserve(sg.size());
    for (const dma::SgEntry &e : sg) push_coalesced(out, e);
    return out;
}

std::vector<dma::SgEntry>
lower_page_pairs(std::span<const mem::Pfn> from, std::span<const mem::Pfn> to,
                 unsigned order, bool merge)
{
    const std::uint64_t page_bytes = mem::kPageSize << order;
    std::vector<dma::SgEntry> out;
    out.reserve(from.size());
    for (std::size_t i = 0; i < from.size(); ++i) {
        const dma::SgEntry e{from[i] << mem::kPageShift,
                             to[i] << mem::kPageShift, page_bytes};
        if (merge)
            push_coalesced(out, e);
        else
            out.push_back(e);
    }
    return out;
}

Lowering
lower_rows(const RowWalk &w)
{
    Lowering out;
    const std::uint64_t spb = vm::page_bytes(w.src_vma->page_size());
    const std::uint64_t dpb = vm::page_bytes(w.dst_vma->page_size());
    const std::uint64_t src_first = w.src_vma->page_index(w.src_base);
    const bool gather = !w.row_srcs.empty();
    out.sg.reserve(w.rows + w.row_bytes / std::min(spb, dpb));
    for (std::uint32_t r = 0; r < w.rows; ++r) {
        const vm::VAddr row_src = gather ? w.row_srcs[r]
                                         : w.src_base + r * w.src_pitch;
        const vm::VAddr row_dst = w.dst_base + r * w.dst_pitch;
        if (gather && !row_in_vma(*w.src_vma, row_src, w.row_bytes)) {
            out.error = MovError::kBadAddress;
            return out;
        }
        std::uint64_t done = 0;
        unsigned segs = 0;
        while (done < w.row_bytes) {
            const vm::VAddr sva = row_src + done;
            const vm::VAddr dva = row_dst + done;
            const std::uint64_t sidx = w.src_vma->page_index(sva);
            const std::uint64_t didx = w.dst_vma->page_index(dva);
            const vm::Pte spte =
                w.src_frames.empty()
                    ? w.src_vma->pte(sidx)
                    : vm::Pte{.pfn = w.src_frames[sidx - src_first],
                              .present = true};
            const vm::Pte dpte = w.dst_vma->pte(didx);
            if (!spte.present || !dpte.present) {
                out.error = MovError::kBadAddress;
                return out;
            }
            if (spte.migration || dpte.migration) {
                // A page mid-migration abandons its old frame at
                // Release: bytes copied from or to it would be lost.
                out.error = MovError::kBusy;
                return out;
            }
            const std::uint64_t s_off = sva - w.src_vma->page_vaddr(sidx);
            const std::uint64_t d_off = dva - w.dst_vma->page_vaddr(didx);
            const std::uint64_t seg =
                std::min({w.row_bytes - done, spb - s_off, dpb - d_off});
            const std::uint64_t spa = (spte.pfn << mem::kPageShift) + s_off;
            const std::uint64_t dpa = (dpte.pfn << mem::kPageShift) + d_off;
            dma::SgEntry *last = out.sg.empty() ? nullptr : &out.sg.back();
            if (w.fold_2d && segs == 0 && seg == w.row_bytes && last &&
                last->bytes == w.row_bytes && last->rows < 0xFFFF &&
                spa == last->src_addr +
                           std::uint64_t{last->rows} * w.src_pitch &&
                dpa == last->dst_addr +
                           std::uint64_t{last->rows} * w.dst_pitch) {
                // Whole row, physically in line with the previous
                // entry's pitch train: fold into its B-count.
                ++last->rows;
            } else {
                out.sg.push_back(dma::SgEntry{spa, dpa, seg, 1, w.src_pitch,
                                              w.dst_pitch});
            }
            if (w.sva_slots)
                out.slots.push_back(
                    {.src_va = sva, .dst_va = dva, .bytes = seg});
            done += seg;
            ++segs;
        }
        if (segs > 1) ++out.row_splits;
    }
    for (const dma::SgEntry &e : out.sg)
        if (e.strided()) ++out.descriptors_2d;
    // Page-boundary splitting may blow past the PaRAM; reject rather
    // than deadlock on a reservation that cannot fit.
    if (out.sg.size() > dma::DescriptorRam::kEntries)
        out.error = MovError::kBadRequest;
    return out;
}

}  // namespace memif::core
