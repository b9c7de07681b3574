#include "vm/addr_space.h"

#include <algorithm>
#include <cstring>

#include "sim/log.h"

namespace memif::vm {

AddressSpace::~AddressSpace()
{
    for (auto &vma : vmas_) release_vma(*vma);
}

VAddr
AddressSpace::mmap(std::uint64_t bytes, PageSize psize, mem::NodeId node)
{
    return mmap_policy(bytes, psize, [node](std::uint64_t) {
        return std::vector<mem::NodeId>{node};
    });
}

VAddr
AddressSpace::mmap_policy(std::uint64_t bytes, PageSize psize,
                          const NodeCandidatesFn &candidates_of)
{
    const std::uint64_t pb = page_bytes(psize);
    const std::uint64_t num_pages = (bytes + pb - 1) / pb;
    if (num_pages == 0) return 0;

    // Align the base to the page size so large pages are natural.
    const VAddr base = (next_base_ + pb - 1) & ~(pb - 1);

    const std::vector<mem::NodeId> first_candidates = candidates_of(0);
    const mem::NodeId home = first_candidates.empty()
                                 ? mem::kInvalidNode
                                 : first_candidates.front();
    auto vma = std::make_unique<Vma>(this, base, num_pages, psize, home,
                                     table_);
    const unsigned order = page_order(psize);

    // Eager population, freeing everything on mid-way exhaustion.
    for (std::uint64_t i = 0; i < num_pages; ++i) {
        mem::Pfn pfn = mem::kInvalidPfn;
        for (const mem::NodeId node : candidates_of(i)) {
            pfn = pm_.allocate(node, order);
            if (pfn != mem::kInvalidPfn) break;
        }
        if (pfn == mem::kInvalidPfn) {
            for (std::uint64_t j = 0; j < i; ++j) {
                const mem::Pfn mapped = vma->pte(j).pfn;
                pm_.remove_rmap(mapped, this, vma->page_vaddr(j));
                pm_.free(mapped, order);
            }
            return 0;
        }
        pm_.add_rmap(pfn, this, vma->page_vaddr(i));
        vma->pte_slot(i).store(Pte::make(pfn).pack(),
                               std::memory_order_release);
        ++stats_.mapped_pages;
    }

    return add_vma(std::move(vma));
}

VAddr
AddressSpace::add_vma(std::unique_ptr<Vma> vma)
{
    MEMIF_ASSERT(vmas_.empty() || vmas_.back()->end() <= vma->base(),
                 "Vma at 0x%llx below the last one: find_vma needs vmas_ "
                 "sorted by base",
                 static_cast<unsigned long long>(vma->base()));
    next_base_ = vma->end();
    vmas_.push_back(std::move(vma));
    return vmas_.back()->base();
}

void
AddressSpace::munmap(VAddr base)
{
    for (auto it = vmas_.begin(); it != vmas_.end(); ++it) {
        if ((*it)->base() == base) {
            release_vma(**it);
            vmas_.erase(it);
            return;
        }
    }
    MEMIF_WARN("munmap: no vma at 0x%llx",
               static_cast<unsigned long long>(base));
}

void
AddressSpace::flush_run(const Vma &vma, std::uint64_t first,
                        std::uint64_t num_pages, bool ranged)
{
    MEMIF_ASSERT(vma.owner() == this, "TLB flush of a foreign Vma");
    for (std::uint64_t i = 0; i < num_pages; ++i)
        tlb_.flush_page(vma.page_vaddr(first + i), vma.page_size());
    if (ranged)
        ++stats_.tlb_range_flushes;
    else
        ++stats_.tlb_page_flushes;
    if (xlate_invalidate_hook_) xlate_invalidate_hook_(&vma, first, num_pages);
}

void
AddressSpace::release_vma(Vma &vma)
{
    // The whole Vma is about to disappear; drop every cached
    // translation before any PTE is cleared so nothing can alias a
    // later Vma recycled at the same address.
    if (xlate_invalidate_hook_)
        xlate_invalidate_hook_(&vma, 0, vma.num_pages());
    const unsigned order = page_order(vma.page_size());
    for (std::uint64_t i = 0; i < vma.num_pages(); ++i) {
        const Pte pte = vma.pte(i);
        if (!pte.present) continue;
        pm_.remove_rmap(pte.pfn, this, vma.page_vaddr(i));
        // Shared frames survive until their last mapping goes away.
        if (pm_.frame(pte.pfn).mapcount() == 0) pm_.free(pte.pfn, order);
        vma.pte_slot(i).store(0, std::memory_order_release);
        ++stats_.unmapped_pages;
    }
}

VAddr
AddressSpace::mmap_file(FileBacking &backing,
                        std::uint64_t file_page_offset,
                        std::uint64_t num_pages)
{
    const PageSize psize = PageSize::k4K;  // page caches are 4 KB-granular
    const std::uint64_t pb = page_bytes(psize);
    const VAddr base = (next_base_ + pb - 1) & ~(pb - 1);

    auto vma = std::make_unique<Vma>(this, base, num_pages, psize,
                                     mem::kInvalidNode, table_);
    vma->set_backing(&backing, file_page_offset);
    for (std::uint64_t i = 0; i < num_pages; ++i) {
        const mem::Pfn pfn = backing.cached_pfn(file_page_offset + i);
        if (pfn == mem::kInvalidPfn) return 0;  // hole / beyond EOF
        pm_.add_rmap(pfn, this, vma->page_vaddr(i));
        vma->pte_slot(i).store(Pte::make(pfn).pack(),
                               std::memory_order_release);
        ++stats_.mapped_pages;
    }
    return add_vma(std::move(vma));
}

VAddr
AddressSpace::mmap_shared(const Vma &source)
{
    const PageSize psize = source.page_size();
    const std::uint64_t pb = page_bytes(psize);
    const VAddr base = (next_base_ + pb - 1) & ~(pb - 1);

    auto vma = std::make_unique<Vma>(this, base, source.num_pages(), psize,
                                     source.home_node(), table_);
    for (std::uint64_t i = 0; i < source.num_pages(); ++i) {
        const Pte src_pte = source.pte(i);
        if (!src_pte.present) return 0;
        pm_.add_rmap(src_pte.pfn, this, vma->page_vaddr(i));
        vma->pte_slot(i).store(Pte::make(src_pte.pfn).pack(),
                               std::memory_order_release);
        ++stats_.mapped_pages;
    }
    return add_vma(std::move(vma));
}

Vma *
AddressSpace::find_vma(VAddr va)
{
    // The last Vma based at or below va is the only candidate.
    const auto above = std::upper_bound(
        vmas_.begin(), vmas_.end(), va,
        [](VAddr v, const std::unique_ptr<Vma> &vma) {
            return v < vma->base();
        });
    if (above == vmas_.begin()) return nullptr;
    Vma *vma = std::prev(above)->get();
    return vma->contains(va) ? vma : nullptr;
}

const Vma *
AddressSpace::find_vma(VAddr va) const
{
    return const_cast<AddressSpace *>(this)->find_vma(va);
}

std::byte *
AddressSpace::translate(VAddr va)
{
    Vma *vma = find_vma(va);
    if (!vma) return nullptr;
    const std::uint64_t idx = vma->page_index(va);
    const Pte pte = vma->pte(idx);
    if (!pte.present) return nullptr;
    const std::uint64_t offset = va - vma->page_vaddr(idx);
    return pm_.span(pte.pfn, page_bytes(vma->page_size())) + offset;
}

AccessResult
AddressSpace::touch(VAddr va, bool write)
{
    Vma *vma = find_vma(va);
    if (!vma) {
        ++stats_.hard_faults;
        return AccessResult::kNotPresent;
    }
    const std::uint64_t idx = vma->page_index(va);
    PteSlot &slot = vma->pte_slot(idx);

    for (;;) {
        const std::uint64_t raw = slot.load(std::memory_order_acquire);
        const Pte pte = Pte::unpack(raw);
        if (!pte.present) {
            ++stats_.hard_faults;
            return AccessResult::kNotPresent;
        }
        if (pte.migration) {
            // Baseline race prevention: the accessor is parked until the
            // migration completes (caller loops / sleeps).
            ++stats_.migration_blocks;
            return AccessResult::kBlockedOnMigration;
        }
        if (pte.lazy) {
            // Lazy migration (paper §7): the fault handler migrates
            // the page before the access proceeds (os layer does it).
            return AccessResult::kLazyFault;
        }
        if (pte.young) {
            // A registered custom fault handler gets first shot (§5.2
            // proceed-and-recover); if it resolves the fault, retry.
            if (young_fault_hook_ && young_fault_hook_(*vma, idx)) continue;
            // Software access-flag emulation: the first access traps and
            // the kernel clears young (paper 5.2 relies on this).
            Pte cleared = pte;
            cleared.young = false;
            cleared.dirty = pte.dirty || write;
            std::uint64_t expected = raw;
            if (!slot.compare_exchange_strong(expected, cleared.pack(),
                                              std::memory_order_acq_rel))
                continue;  // raced with the driver or another accessor
            ++stats_.young_clears;
            if (xlate_invalidate_hook_) xlate_invalidate_hook_(vma, idx, 1);
            // The finalized translation may now be cached.
            tlb_.lookup(va, vma->page_size());
            tlb_.fill(va, vma->page_size());
            return AccessResult::kClearedYoung;
        }
        if (write && !pte.dirty) {
            Pte dirtied = pte;
            dirtied.dirty = true;
            std::uint64_t expected = raw;
            if (slot.compare_exchange_strong(expected, dirtied.pack(),
                                             std::memory_order_acq_rel) &&
                xlate_invalidate_hook_)
                xlate_invalidate_hook_(vma, idx, 1);
        }
        if (!tlb_.lookup(va, vma->page_size()))
            tlb_.fill(va, vma->page_size());
        return AccessResult::kOk;
    }
}

HeatSample
AddressSpace::heat_sample(Vma &vma, std::uint64_t page_idx)
{
    PteSlot &slot = vma.pte_slot(page_idx);
    HeatSample s;
    for (;;) {
        const std::uint64_t raw = slot.load(std::memory_order_acquire);
        const Pte pte = Pte::unpack(raw);
        // Observe only: absent, mid-migration and lazy pages are the
        // driver's (or the fault path's) business, never the scanner's.
        if (!pte.present || pte.migration || pte.lazy) return s;
        s.sampled = true;
        s.accessed = !pte.young;  // inverted polarity: cleared == touched
        s.written = pte.dirty;
        ++stats_.heat_samples;
        // A young-set page is left untouched even when dirty: it may be
        // a semi-final migration PTE whose Release CAS expects this
        // exact raw value. The dirty bit is swept up at the next rearm.
        if (pte.young) return s;
        Pte armed = pte;
        armed.young = true;
        armed.dirty = false;
        std::uint64_t expected = raw;
        if (!slot.compare_exchange_strong(expected, armed.pack(),
                                          std::memory_order_acq_rel)) {
            --stats_.heat_samples;
            continue;  // raced with a touch or the driver; re-examine
        }
        s.rearmed = true;
        ++stats_.heat_rearms;
        // The rewritten PTE invalidates any cached translation of it.
        flush_tlb_page(vma, page_idx);
        return s;
    }
}

bool
AddressSpace::read(VAddr va, void *out, std::uint64_t len)
{
    std::byte *dst = static_cast<std::byte *>(out);
    while (len > 0) {
        const Vma *vma = find_vma(va);
        if (!vma) return false;
        const std::uint64_t pb = page_bytes(vma->page_size());
        const std::uint64_t in_page = pb - (va & (pb - 1));
        const std::uint64_t chunk = len < in_page ? len : in_page;
        const std::byte *src = translate(va);
        if (!src) return false;
        std::memcpy(dst, src, chunk);
        va += chunk;
        dst += chunk;
        len -= chunk;
    }
    return true;
}

bool
AddressSpace::write(VAddr va, const void *in, std::uint64_t len)
{
    const std::byte *src = static_cast<const std::byte *>(in);
    while (len > 0) {
        const Vma *vma = find_vma(va);
        if (!vma) return false;
        const std::uint64_t pb = page_bytes(vma->page_size());
        const std::uint64_t in_page = pb - (va & (pb - 1));
        const std::uint64_t chunk = len < in_page ? len : in_page;
        std::byte *dst = translate(va);
        if (!dst) return false;
        std::memcpy(dst, src, chunk);
        va += chunk;
        src += chunk;
        len -= chunk;
    }
    return true;
}

}  // namespace memif::vm
