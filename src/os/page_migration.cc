#include "os/page_migration.h"

#include "os/kernel.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/log.h"
#include "vm/addr_space.h"

namespace memif::os {

using sim::ExecContext;
using sim::Op;

namespace {

/** migrate_page()'s screen (see its comment) for a mapped page. */
int
screen_page(mem::PhysicalMemory &pm, const vm::Vma &vma,
            const vm::Pte &pte, mem::NodeId dst_node)
{
    if (!pte.present) return kPageNoEnt;
    if (pm.node_of(pte.pfn) == dst_node) return kPageAlready;
    if (pm.frame(pte.pfn).mapcount() > 1 || vma.is_file_backed() ||
        pte.migration)
        return kPageBusy;
    return kPageMoved;
}

}  // namespace

sim::Task
migrate_page(Process &proc, vm::VAddr va, mem::NodeId dst_node, int *status,
             std::uint64_t *page_bytes)
{
    Kernel &k = proc.kernel();
    const sim::CostModel &cm = k.costs();
    sim::Cpu &cpu = k.cpu();
    vm::AddressSpace &as = proc.as();
    mem::PhysicalMemory &pm = k.phys();

    *status = kPageNoEnt;
    if (page_bytes) *page_bytes = 0;
    vm::Vma *vma = as.find_vma(va);
    if (!vma || dst_node >= pm.node_count()) co_return;
    const std::uint64_t pb = vm::page_bytes(vma->page_size());
    const unsigned order = vm::page_order(vma->page_size());
    const std::uint64_t idx = vma->page_index(va);
    vm::PteSlot &slot = vma->pte_slot(idx);
    if (page_bytes) *page_bytes = pb;

    // ---- 1. Prep: full per-page walk + page-descriptor lookup --------
    co_await cpu.busy(ExecContext::kSyscall, Op::kPrep,
                      cm.page_walk_full + cm.rmap_per_page);
    std::uint64_t screened = slot.load(std::memory_order_acquire);
    const vm::Pte old_pte = vm::Pte::unpack(screened);
    *status = screen_page(pm, *vma, old_pte, dst_node);
    if (*status != kPageMoved) co_return;

    // ---- 2. Remap: allocate + migration PTE + TLB + caches -----------
    co_await cpu.busy(ExecContext::kSyscall, Op::kRemap,
                      cm.page_alloc_time(order));
    const mem::Pfn new_pfn = pm.allocate(dst_node, order);
    if (new_pfn == mem::kInvalidPfn) {
        *status = kPageNoMem;
        co_return;
    }
    vm::Pte migration_pte = old_pte;
    migration_pte.migration = true;
    if (!slot.compare_exchange_strong(screened, migration_pte.pack(),
                                      std::memory_order_acq_rel)) {
        // Another migration took the page while the allocation was
        // charged: it owns the old frame now.
        pm.free(new_pfn, order);
        *status = kPageBusy;
        co_return;
    }
    as.flush_tlb_page(*vma, idx);
    co_await cpu.busy(ExecContext::kSyscall, Op::kRemap,
                      cm.pte_update + cm.tlb_flush_page +
                          cm.cache_flush_time(pb));

    // ---- 3. Copy: the CPU moves the bytes -----------------------------
    pm.copy(new_pfn, old_pte.pfn, pb);
    co_await cpu.busy(ExecContext::kSyscall, Op::kCopy,
                      cm.cpu_copy_time(pb));

    // ---- 4. Release: final PTE + TLB + free + wake accessors ----------
    vm::Pte final_pte = old_pte;
    final_pte.pfn = new_pfn;
    final_pte.migration = false;
    final_pte.lazy = false;
    slot.store(final_pte.pack(), std::memory_order_release);
    as.flush_tlb_page(*vma, idx);
    pm.add_rmap(new_pfn, &as, vma->page_vaddr(idx));
    pm.remove_rmap(old_pte.pfn, &as, vma->page_vaddr(idx));
    pm.free(old_pte.pfn, order);
    co_await cpu.busy(ExecContext::kSyscall, Op::kRelease,
                      cm.pte_update + cm.tlb_flush_page + cm.page_free);
    k.migration_waitq().notify_all();
}

sim::Task
migrate_pages_sync(Process &proc, vm::VAddr start, std::uint64_t npages,
                   mem::NodeId dst_node, MigrationResult *out)
{
    Kernel &k = proc.kernel();
    MigrationResult result;
    result.pages_requested = npages;

    // Syscall entry + fixed setup (argument copy, vma checks).
    co_await k.syscall_crossing();
    co_await k.cpu().busy(ExecContext::kSyscall, Op::kPrep,
                          k.costs().syscall_setup);

    vm::VAddr va = start;
    for (std::uint64_t n = 0; n < npages; ++n) {
        int status = kPageNoEnt;
        std::uint64_t pb = 0;
        co_await migrate_page(proc, va, dst_node, &status, &pb);
        // A hole fails one base page at a time, then the walk goes on.
        va += pb != 0 ? pb : mem::kPageSize;
        if (status == kPageMoved) {
            ++result.pages_moved;
            result.bytes_moved += pb;
        } else {
            ++result.pages_failed;
        }
    }

    result.completed_at = k.eq().now();
    if (out) *out = result;
}

sim::Task
mbind_lazy(Process &proc, vm::VAddr start, std::uint64_t npages,
           mem::NodeId dst_node, MigrationResult *out)
{
    Kernel &k = proc.kernel();
    const sim::CostModel &cm = k.costs();
    vm::AddressSpace &as = proc.as();

    MigrationResult result;
    result.pages_requested = npages;

    co_await k.syscall_crossing();
    co_await k.cpu().busy(ExecContext::kSyscall, Op::kPrep,
                          cm.syscall_setup);

    vm::VAddr va = start;
    for (std::uint64_t n = 0; n < npages; ++n) {
        vm::Vma *vma = as.find_vma(va);
        if (!vma || dst_node >= k.phys().node_count()) {
            ++result.pages_failed;
            va += mem::kPageSize;
            continue;
        }
        const std::uint64_t idx = vma->page_index(va);
        va += vm::page_bytes(vma->page_size());
        vm::PteSlot &slot = vma->pte_slot(idx);
        const vm::Pte pte =
            vm::Pte::unpack(slot.load(std::memory_order_acquire));
        if (pte.lazy ||
            screen_page(k.phys(), *vma, pte, dst_node) != kPageMoved) {
            ++result.pages_failed;
            continue;
        }
        vm::Pte marked = pte;
        marked.lazy = true;
        marked.lazy_target = static_cast<std::uint8_t>(dst_node);
        slot.store(marked.pack(), std::memory_order_release);
        as.flush_tlb_page(*vma, idx);
        // Marking is cheap: one PTE write + TLB flush per page.
        co_await k.cpu().busy(ExecContext::kSyscall, Op::kRemap,
                              cm.pte_update + cm.tlb_flush_page);
        ++result.pages_moved;  // "armed" rather than moved
    }
    result.completed_at = k.eq().now();
    if (out) *out = result;
}

sim::Task
migrate_lazy_fault(Process &proc, vm::VAddr va)
{
    Kernel &k = proc.kernel();
    vm::Vma *vma = proc.as().find_vma(va);
    MEMIF_ASSERT(vma != nullptr, "lazy fault on unmapped address");
    vm::PteSlot &slot = vma->pte_slot(vma->page_index(va));
    const vm::Pte pte =
        vm::Pte::unpack(slot.load(std::memory_order_acquire));
    if (!pte.lazy) co_return;  // raced with another fault: done already

    // Fault entry (trap) + the full baseline per-page migration.
    co_await k.cpu().busy(ExecContext::kSyscall, Op::kSyscall,
                          k.costs().syscall_crossing);
    int status = kPageNoEnt;
    co_await migrate_page(proc, va, pte.lazy_target, &status, nullptr);
    if (status == kPageMoved) co_return;

    // The page stays home (target full, page shared, ...): drop the
    // marker, unless another migration holds the PTE and will clear it.
    std::uint64_t word = slot.load(std::memory_order_acquire);
    vm::Pte cur = vm::Pte::unpack(word);
    if (!cur.lazy || cur.migration) co_return;
    cur.lazy = false;
    slot.compare_exchange_strong(word, cur.pack(),
                                 std::memory_order_acq_rel);
}

}  // namespace memif::os
