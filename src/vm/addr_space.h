/**
 * @file
 * Per-process address spaces: anonymous mmap/munmap, functional byte
 * access through the page tables, and the CPU-access semantics
 * (young-bit clearing, migration-PTE blocking) that the paper's race
 * handling builds on.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mem/phys.h"
#include "vm/page_table.h"
#include "vm/pte.h"
#include "vm/tlb.h"
#include "vm/vma.h"

namespace memif::vm {

/** Outcome of one simulated CPU access (touch()). */
enum class AccessResult {
    kOk,                  ///< mapped, no trap
    kClearedYoung,        ///< trapped once to emulate the access flag
    kBlockedOnMigration,  ///< hit a baseline migration PTE; must wait
    kNotPresent,          ///< no mapping (hard fault)
    kLazyFault,           ///< lazy-migration marker: caller migrates
};

/** Counters for the vm events the evaluation reasons about. */
struct VmStats {
    std::uint64_t young_clears = 0;
    std::uint64_t migration_blocks = 0;
    std::uint64_t hard_faults = 0;
    std::uint64_t tlb_page_flushes = 0;
    std::uint64_t tlb_range_flushes = 0;
    std::uint64_t heat_samples = 0;   ///< pages examined by heat_sample()
    std::uint64_t heat_rearms = 0;    ///< young bits re-armed by the scanner
};

/**
 * What one heat_sample() call observed about a page (managed mode).
 *
 * The access flag is software-emulated with inverted polarity: young
 * SET means the next touch traps; touch() clears it. So "accessed
 * since the scanner last armed this page" reads as young == 0.
 */
struct HeatSample {
    bool sampled = false;   ///< present, not mid-migration: counters apply
    bool accessed = false;  ///< young found clear (a touch trapped since arm)
    bool written = false;   ///< dirty was set
    bool rearmed = false;   ///< this call re-armed young (PTE CAS + flush)
};

/**
 * One process's virtual address space.
 *
 * Owns its Vmas and the physical frames they map; frames return to the
 * buddy allocator on munmap and on destruction.
 */
class AddressSpace {
  public:
    explicit AddressSpace(mem::PhysicalMemory &pm) : pm_(pm) {}
    ~AddressSpace();
    AddressSpace(const AddressSpace &) = delete;
    AddressSpace &operator=(const AddressSpace &) = delete;

    mem::PhysicalMemory &phys() { return pm_; }

    /** The process's radix page table (drivers walk it directly). */
    PageTable &page_table() { return table_; }

    /**
     * Map @p bytes of anonymous memory with @p psize pages backed by
     * @p node. Pages are populated eagerly (the paper moves anonymous
     * pages that already exist).
     *
     * @return the base address, or 0 if physical memory is exhausted.
     */
    VAddr mmap(std::uint64_t bytes, PageSize psize, mem::NodeId node);

    /**
     * mmap with per-page placement: @p candidates_of returns, for each
     * page index, the node candidates to try in order (NUMA policies
     * build on this). Fails (returns 0) when any page cannot be backed
     * by any of its candidates.
     */
    using NodeCandidatesFn =
        std::function<std::vector<mem::NodeId>(std::uint64_t)>;
    VAddr mmap_policy(std::uint64_t bytes, PageSize psize,
                      const NodeCandidatesFn &candidates_of);

    /**
     * Attach another address space's mapping into this one (shared
     * anonymous memory): the new Vma maps the same physical frames,
     * and every frame's reverse-map chain gains this mapping. Frames
     * are freed only when the last mapping goes away.
     *
     * @return the base address here, or 0 on failure.
     */
    VAddr mmap_shared(const Vma &source);

    /**
     * Map @p num_pages 4 KB pages of a file, starting at file page
     * @p file_page_offset, through its page cache (MAP_SHARED file
     * mapping). The backing's cached frames must exist.
     *
     * @return the base address, or 0 on failure.
     */
    VAddr mmap_file(FileBacking &backing, std::uint64_t file_page_offset,
                    std::uint64_t num_pages);

    /** Unmap the Vma starting exactly at @p base. */
    void munmap(VAddr base);

    /** The Vma containing @p va, or nullptr. A binary search: vmas_ is
     *  sorted by base, since every new Vma lands above the last. */
    Vma *find_vma(VAddr va);
    const Vma *find_vma(VAddr va) const;

    std::size_t vma_count() const { return vmas_.size(); }

    /**
     * Host pointer to the byte at @p va, valid for the rest of the
     * containing page. Pure translation: no access-flag side effects.
     * @return nullptr if unmapped / not present.
     */
    std::byte *translate(VAddr va);

    /**
     * Simulate one CPU access: applies the software access-flag model
     * (clears young via CAS, as the kernel's emulation does) and detects
     * migration PTEs (the accessor must block).
     */
    AccessResult touch(VAddr va, bool write);

    /**
     * Test-and-rearm one page's access/dirty flags for heat sampling
     * (managed mode). Reads young/dirty, then re-arms via the same
     * atomic CAS path touch() uses, flushing the page's TLB entry and
     * firing the xlate-invalidation hook so a cached walk can never
     * resurrect the pre-CAS PTE. Pages that are absent, mid-migration,
     * or lazy-marked are skipped (sampled == false) — the scanner
     * NEVER resolves faults or waits; it only observes.
     *
     * The caller charges time (CostModel::pte_cas + tlb_flush_page per
     * rearm) — this is the functional half only.
     */
    HeatSample heat_sample(Vma &vma, std::uint64_t page_idx);

    /** Copy @p len bytes out of the address space (functional). */
    bool read(VAddr va, void *out, std::uint64_t len);

    /** Copy @p len bytes into the address space (functional). */
    bool write(VAddr va, const void *in, std::uint64_t len);

    /** The CPU-side TLB model. */
    Tlb &tlb() { return tlb_; }
    const Tlb &tlb() const { return tlb_; }

    /**
     * Invalidate page @p page_idx of @p vma (a Vma of this address
     * space) after a PTE rewrite (the time cost is charged by the
     * caller from the CostModel). Every caller already holds the Vma,
     * so the xlate hook gets it directly: no address lookup.
     */
    void
    flush_tlb_page(const Vma &vma, std::uint64_t page_idx)
    {
        flush_run(vma, page_idx, 1, /*ranged=*/false);
    }

    /**
     * Invalidate pages [@p first, @p first + @p num_pages) of @p vma
     * with one ranged operation (TLBI-range style): every covered entry
     * is dropped, but the broadcast/barrier is issued — and charged,
     * via CostModel::tlb_flush_range_time — only once.
     */
    void
    flush_tlb_range(const Vma &vma, std::uint64_t first,
                    std::uint64_t num_pages)
    {
        flush_run(vma, first, num_pages, /*ranged=*/true);
    }

    /**
     * Custom young-bit fault handler (paper §5.2 "proceed and recover"):
     * consulted *before* the default access-flag emulation when a touch
     * traps on a young PTE. Returning true means the handler resolved
     * the fault (e.g. rolled back an in-flight migration and restored
     * the old mapping); the access then retries.
     */
    using YoungFaultHook = std::function<bool(Vma &, std::uint64_t)>;
    void set_young_fault_hook(YoungFaultHook hook)
    {
        young_fault_hook_ = std::move(hook);
    }

    /**
     * Translation-invalidation hook: any event that can make a cached
     * walk result stale — TLB shootdown (page or ranged), a CPU-side
     * PTE CAS in touch(), or the Vma being torn down by munmap /
     * address-space destruction — reports the affected page run
     * (vma, first page index, page count). The memif driver's gang
     * translation cache registers here; the baseline never does, so
     * the hook costs one null check when unused.
     */
    using XlateInvalidateHook =
        std::function<void(const Vma *, std::uint64_t, std::uint64_t)>;
    void set_xlate_invalidate_hook(XlateInvalidateHook hook)
    {
        xlate_invalidate_hook_ = std::move(hook);
    }

    VmStats &stats() { return stats_; }
    const VmStats &stats() const { return stats_; }

  private:
    void release_vma(Vma &vma);
    /** Append @p vma (above every existing one) and move next_base_
     *  past it. */
    VAddr add_vma(std::unique_ptr<Vma> vma);
    /** Drop the run's TLB entries, count one page (or one ranged)
     *  flush, and report the run to the xlate hook. */
    void flush_run(const Vma &vma, std::uint64_t first,
                   std::uint64_t num_pages, bool ranged);

    mem::PhysicalMemory &pm_;
    PageTable table_;
    Tlb tlb_;
    /** Sorted by base (next_base_ only grows; add_vma() asserts it). */
    std::vector<std::unique_ptr<Vma>> vmas_;
    VAddr next_base_ = 0x0000'1000'0000ull;
    VmStats stats_;
    YoungFaultHook young_fault_hook_;
    XlateInvalidateHook xlate_invalidate_hook_;
};

}  // namespace memif::vm
