/**
 * @file
 * The pure half of serving a move request: what the driver derives
 * from the request's snapshot (ReqSnapshot) — its page runs
 * (plan_move), its route (chain_route) and its SG lists (lower_rows,
 * lower_page_pairs). Nothing here suspends, charges time or reads the
 * shared region, so the lowering tests drive it with no MemifDevice
 * and no event queue.
 */
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dma/driver.h"
#include "mem/phys.h"
#include "memif/mov_req.h"
#include "vm/vma.h"

namespace memif::core {

/** A request's parameters as the driver acts on them: copied once out
 *  of the application-writable MovReq where the request is dequeued,
 *  before validation. */
struct ReqSnapshot {
    MovOp op = MovOp::kReplicate;
    vm::VAddr src_base = 0;
    vm::VAddr dst_base = 0;
    mem::NodeId dst_node = 0;
    std::uint32_t num_pages = 0;
    std::uint32_t rows = 0;
    std::uint32_t row_bytes = 0;
    std::uint64_t src_pitch = 0;
    std::uint64_t dst_pitch = 0;
    vm::VAddr gather_list = 0;
    /** The tenant whose page tables the request resolves in. Never the
     *  slot's asid field: the driver fills it from its own records
     *  (the admitted ASID, or the managed region's). */
    std::uint32_t asid = 0;

    /** The slot's parameters, asid left 0 for the caller to fill. */
    static ReqSnapshot
    of(const MovReq &r)
    {
        return {r.op,        r.src_base,  r.dst_base,  r.dst_node,
                r.num_pages, r.rows,      r.row_bytes, r.src_pitch,
                r.dst_pitch, r.gather_list};
    }
};

/** Pages [first, first + pages) of one Vma. */
struct PageRun {
    std::uint64_t first = 0;
    std::uint64_t pages = 0;

    bool
    overlaps(const PageRun &o) const
    {
        return first < o.first + o.pages && o.first < first + pages;
    }
};

/** What a validated request touches. */
struct MovePlan {
    /** Source envelope: the flat run, a strided request's pitched
     *  extent (gaps included), or a gather's whole source Vma. */
    PageRun src;
    /** Replication: every destination page written to, from dst_base's
     *  page to the one holding the last byte (gaps included). Empty for
     *  a migration. */
    PageRun dst;
    /** Bytes copied: num_pages whole pages, or rows * row_bytes. */
    std::uint64_t payload_bytes = 0;
};

/** Plan @p s, which validate() accepted against @p src (and, for a
 *  replication, @p dst; null for a migration). */
MovePlan plan_move(const ReqSnapshot &s, const vm::Vma &src,
                   const vm::Vma *dst);

/**
 * The middle node a migration of @p frames to node @p dst is staged
 * through, or kInvalidNode for a direct move. Direct when the frames
 * span several nodes (or none), and when no third node is strictly
 * closer to both endpoints than they are to each other in the SLIT
 * distances of @p pm (the nearest such node wins).
 */
mem::NodeId chain_route(const mem::PhysicalMemory &pm,
                        std::span<const mem::Pfn> frames, mem::NodeId dst);

/** Merge adjacent flat SG entries whose src AND dst runs are
 *  contiguous (runs are capped below the descriptor's BCNT limit). */
std::vector<dma::SgEntry> coalesce_sg(const std::vector<dma::SgEntry> &sg);

/** The page-pair lowering: the order-@p order block at @p from[i]
 *  copies to the one at @p to[i]. With @p merge, pairs contiguous on
 *  both sides merge as coalesce_sg() merges them. */
std::vector<dma::SgEntry> lower_page_pairs(std::span<const mem::Pfn> from,
                                           std::span<const mem::Pfn> to,
                                           unsigned order, bool merge);
/** lower_page_pairs() into @p out, replacing its contents (its capacity
 *  is reused). */
void lower_page_pairs(std::span<const mem::Pfn> from,
                      std::span<const mem::Pfn> to, unsigned order,
                      bool merge, std::vector<dma::SgEntry> &out);

/** One SVA-routed descriptor's virtual span: what the engine's
 *  translation gate re-resolves through the live page tables at
 *  consumption time (sva_dma replication streams only). */
struct XlateSlot {
    vm::VAddr src_va = 0;
    vm::VAddr dst_va = 0;
    std::uint64_t bytes = 0;
    /** When the covering prefetch walk completes (prefetch-ahead
     *  only; 0 = no prefetch covers this slot). */
    sim::SimTime ready_at = 0;
    bool prefetched = false;
};

/** A replication as the row walk sees it: row r of row_bytes is read
 *  from src_base + r * src_pitch (or row_srcs[r], a gather) and written
 *  to dst_base + r * dst_pitch. A flat replication is one row. */
struct RowWalk {
    const vm::Vma *src_vma = nullptr;
    const vm::Vma *dst_vma = nullptr;
    vm::VAddr src_base = 0;
    vm::VAddr dst_base = 0;
    std::uint32_t rows = 1;
    std::uint64_t row_bytes = 0;
    std::uint64_t src_pitch = 0;
    std::uint64_t dst_pitch = 0;
    /** Gather: per-row source addresses (empty = pitched rows). */
    std::span<const vm::VAddr> row_srcs = {};
    /** Source frames already captured and checked, one per source page
     *  from src_base's page on; empty = read the live source PTEs. */
    std::span<const mem::Pfn> src_frames = {};
    /** Fold whole rows in line with the previous entry's pitch train
     *  into its B-count (true 2D descriptors). */
    bool fold_2d = false;
    /** Emit one XlateSlot per SG entry (SVA-routed strided streams). */
    bool sva_slots = false;
};

/** What lower_rows() produced. On error, sg and slots are partial. */
struct Lowering {
    std::vector<dma::SgEntry> sg;
    std::vector<XlateSlot> slots;
    std::uint64_t row_splits = 0;  ///< rows split, up to an error
    std::uint64_t descriptors_2d = 0;  ///< 2D entries of a complete walk
    MovError error = MovError::kNone;
};

/**
 * The replication lowering: walk each row into segments split at page
 * boundaries on BOTH sides (a segment is then physically contiguous).
 * Reads only the two Vmas' PTEs. Errors: kBadAddress (absent page,
 * gather row outside the source Vma), kBusy (page mid-migration),
 * kBadRequest (more segments than the PaRAM).
 */
Lowering lower_rows(const RowWalk &w);

/** True when the row [@p va, @p va + @p bytes) lies inside @p vma
 *  (@p va comes from user memory: no wrap-around arithmetic on it). */
inline bool
row_in_vma(const vm::Vma &vma, vm::VAddr va, std::uint64_t bytes)
{
    return va >= vma.base() && va <= vma.end() && bytes <= vma.end() - va;
}

}  // namespace memif::core
