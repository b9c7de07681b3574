/**
 * @file
 * The Linux page-migration baseline (paper §2.2, Table 1 "Baseline"
 * column): the synchronous, CPU-copy, race-*preventing* migration path
 * that memif is evaluated against in Figures 6, 7 and 8.
 *
 * One routine, migrate_page(), moves one page; migrate_pages_sync(),
 * move_pages() (numa.h) and the lazy fault all run it. For the page it:
 *   1. walks the page table from the root and touches the rmap   (Prep)
 *   2. screens the page, allocates a destination page, installs a
 *      *migration PTE* that blocks any accessor, flushes the TLB
 *      entry, performs cache maintenance                         (Remap)
 *   3. copies the bytes with the CPU                             (Copy)
 *   4. installs the final PTE, flushes the TLB entry again,
 *      frees the old page, wakes blocked accessors            (Release)
 *
 * The whole operation runs in the caller's process context inside one
 * syscall; completion is the syscall's return (requests batched into a
 * syscall all complete together — the latency behaviour Figure 7
 * demonstrates).
 */
#pragma once

#include <cstdint>

#include "mem/phys.h"
#include "os/process.h"
#include "sim/task.h"
#include "sim/types.h"
#include "vm/vma.h"

namespace memif::os {

/** Per-page status codes, as move_pages(2) reports them (errno-style,
 *  0 = moved). */
inline constexpr int kPageMoved = 0;
inline constexpr int kPageNoEnt = -2;    ///< not mapped, not present, bad node
inline constexpr int kPageBusy = -16;    ///< shared, file-backed, mid-migration
inline constexpr int kPageNoMem = -12;   ///< destination exhausted
inline constexpr int kPageAlready = 1;   ///< already on the target node

/**
 * Migrate the page containing @p va to @p dst_node, Linux-style, and
 * write its status code to @p status. When @p page_bytes is non-null it
 * receives the size of the page at @p va, whatever the outcome (0 when
 * unmapped). After the Prep charge one screen decides whether the page
 * may move; every caller of the baseline goes through it:
 *   - unmapped, no such node, or not present            -> kPageNoEnt;
 *   - already on @p dst_node                            -> kPageAlready;
 *   - shared (mapcount > 1), file-backed, or carrying a
 *     migration PTE (another migration owns it)         -> kPageBusy.
 * Shared pages are skipped because walking every mapper's tables is
 * exactly the rmap machinery the memif driver implements. A page that
 * passes and finds @p dst_node full is kPageNoMem.
 *
 * Coroutine in @p proc's context; the caller pays the syscall (or trap)
 * entry. The migration PTE goes in with a compare-exchange against the
 * PTE that passed the screen, so when another migration takes the page
 * while the allocation is charged, the new frame is freed and the
 * status is kPageBusy.
 */
sim::Task migrate_page(Process &proc, vm::VAddr va, mem::NodeId dst_node,
                       int *status, std::uint64_t *page_bytes);

/** Outcome of one migrate_pages()-style syscall. */
struct MigrationResult {
    std::uint64_t pages_requested = 0;
    std::uint64_t pages_moved = 0;
    /** Unmapped, already on target, busy, or destination exhausted. */
    std::uint64_t pages_failed = 0;
    std::uint64_t bytes_moved = 0;
    /** Virtual time at which the syscall returned. */
    sim::SimTime completed_at = 0;
};

/**
 * Synchronously migrate @p npages pages (of the containing Vma's
 * granularity) starting at @p start to @p dst_node, Linux-style: one
 * syscall, then migrate_page() per page. An unmapped address fails
 * one base page (mem::kPageSize) and the walk steps over it, so a hole
 * fails only its own pages, as move_pages(2) reports -ENOENT for each.
 *
 * Coroutine; runs in @p proc's context. Bytes really move and PTEs are
 * really rewritten, with all costs charged per the Table 1 baseline.
 */
sim::Task migrate_pages_sync(Process &proc, vm::VAddr start,
                             std::uint64_t npages, mem::NodeId dst_node,
                             MigrationResult *out);

/**
 * Lazy migration (Goglin & Furmento, paper §7's related work): mark
 * @p npages pages so each migrates to @p dst_node on its *first
 * access*. Cheap to request (PTE marking only); every deferred
 * migration pays the full baseline per-page cost at fault time —
 * exactly the critique the paper makes ("defer migration without
 * addressing the major inefficiency"). Only unmarked pages that
 * migrate_page()'s screen admits are armed; a hole fails one base page
 * at a time, as in migrate_pages_sync().
 *
 * Coroutine (one syscall); Process::touch() performs the deferred
 * per-page migration when the fault fires.
 */
sim::Task mbind_lazy(Process &proc, vm::VAddr start, std::uint64_t npages,
                     mem::NodeId dst_node, MigrationResult *out);

/**
 * The fault-side worker: charge the trap, then migrate_page() the page
 * containing @p va to its lazy target. When the page does not move, the
 * marker is dropped, unless another migration holds the PTE. Used by
 * Process::touch().
 */
sim::Task migrate_lazy_fault(Process &proc, vm::VAddr va);

}  // namespace memif::os
