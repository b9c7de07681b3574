#include "os/page_migration.h"

#include "os/kernel.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/log.h"
#include "vm/addr_space.h"
#include "vm/pte.h"

namespace memif::os {

using sim::ExecContext;
using sim::Op;

sim::Task
migrate_pages_sync(Process &proc, vm::VAddr start, std::uint64_t npages,
                   mem::NodeId dst_node, MigrationResult *out)
{
    Kernel &k = proc.kernel();
    const sim::CostModel &cm = k.costs();
    sim::Cpu &cpu = k.cpu();
    vm::AddressSpace &as = proc.as();
    mem::PhysicalMemory &pm = k.phys();

    MigrationResult result;
    result.pages_requested = npages;

    // Syscall entry + fixed setup (argument copy, vma checks).
    co_await k.syscall_crossing();
    co_await cpu.busy(ExecContext::kSyscall, Op::kPrep, cm.syscall_setup);

    vm::VAddr va = start;
    for (std::uint64_t n = 0; n < npages; ++n) {
        vm::Vma *vma = as.find_vma(va);
        if (!vma) {
            ++result.pages_failed;
            continue;
        }
        const std::uint64_t pb = vm::page_bytes(vma->page_size());
        const unsigned order = vm::page_order(vma->page_size());
        const std::uint64_t idx = vma->page_index(va);
        vm::PteSlot &slot = vma->pte_slot(idx);
        va += pb;

        // ---- 1. Prep: full per-page walk + page-descriptor lookup ----
        co_await cpu.busy(ExecContext::kSyscall, Op::kPrep,
                          cm.page_walk_full + cm.rmap_per_page);
        const vm::Pte old_pte = vm::Pte::unpack(
            slot.load(std::memory_order_acquire));
        if (!old_pte.present ||
            pm.node_of(old_pte.pfn) == dst_node) {
            ++result.pages_failed;
            continue;
        }
        if (pm.frame(old_pte.pfn).mapcount() > 1) {
            // Shared anonymous pages: the baseline skips them (walking
            // every mapper's tables is exactly the rmap machinery the
            // memif driver implements; see MemifDevice).
            ++result.pages_failed;
            continue;
        }

        // ---- 2. Remap: allocate + migration PTE + TLB + caches -------
        co_await cpu.busy(ExecContext::kSyscall, Op::kRemap,
                          cm.page_alloc_time(order));
        const mem::Pfn new_pfn = pm.allocate(dst_node, order);
        if (new_pfn == mem::kInvalidPfn) {
            ++result.pages_failed;
            continue;
        }
        vm::Pte migration_pte = old_pte;
        migration_pte.migration = true;
        slot.store(migration_pte.pack(), std::memory_order_release);
        as.flush_tlb_page(*vma, idx);
        co_await cpu.busy(ExecContext::kSyscall, Op::kRemap,
                          cm.pte_update + cm.tlb_flush_page +
                              cm.cache_flush_time(pb));

        // ---- 3. Copy: the CPU moves the bytes -------------------------
        pm.copy(new_pfn, old_pte.pfn, pb);
        co_await cpu.busy(ExecContext::kSyscall, Op::kCopy,
                          cm.cpu_copy_time(pb));

        // ---- 4. Release: final PTE + TLB + free + wake accessors ------
        vm::Pte final_pte = old_pte;
        final_pte.pfn = new_pfn;
        final_pte.migration = false;
        slot.store(final_pte.pack(), std::memory_order_release);
        as.flush_tlb_page(*vma, idx);

        pm.frame(new_pfn).add_rmap(&as, vma->page_vaddr(idx));
        pm.frame(old_pte.pfn).remove_rmap(&as, vma->page_vaddr(idx));
        pm.free(old_pte.pfn, order);

        co_await cpu.busy(ExecContext::kSyscall, Op::kRelease,
                          cm.pte_update + cm.tlb_flush_page + cm.page_free);
        k.migration_waitq().notify_all();

        ++result.pages_moved;
        result.bytes_moved += pb;
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
    sim::Cpu &cpu = k.cpu();
    vm::AddressSpace &as = proc.as();

    MigrationResult result;
    result.pages_requested = npages;

    co_await k.syscall_crossing();
    co_await cpu.busy(ExecContext::kSyscall, Op::kPrep, cm.syscall_setup);

    vm::VAddr va = start;
    for (std::uint64_t n = 0; n < npages; ++n) {
        vm::Vma *vma = as.find_vma(va);
        if (!vma || dst_node >= k.phys().node_count()) {
            ++result.pages_failed;
            continue;
        }
        const std::uint64_t idx = vma->page_index(va);
        va += vm::page_bytes(vma->page_size());
        vm::PteSlot &slot = vma->pte_slot(idx);
        const vm::Pte pte =
            vm::Pte::unpack(slot.load(std::memory_order_acquire));
        if (!pte.present || pte.migration || pte.lazy ||
            k.phys().node_of(pte.pfn) == dst_node) {
            ++result.pages_failed;
            continue;
        }
        vm::Pte marked = pte;
        marked.lazy = true;
        marked.lazy_target = static_cast<std::uint8_t>(dst_node);
        slot.store(marked.pack(), std::memory_order_release);
        as.flush_tlb_page(*vma, idx);
        // Marking is cheap: one PTE write + TLB flush per page.
        co_await cpu.busy(ExecContext::kSyscall, Op::kRemap,
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
    const sim::CostModel &cm = k.costs();
    sim::Cpu &cpu = k.cpu();
    vm::AddressSpace &as = proc.as();
    mem::PhysicalMemory &pm = k.phys();

    vm::Vma *vma = as.find_vma(va);
    MEMIF_ASSERT(vma != nullptr, "lazy fault on unmapped address");
    const std::uint64_t pb = vm::page_bytes(vma->page_size());
    const unsigned order = vm::page_order(vma->page_size());
    const std::uint64_t idx = vma->page_index(va);
    vm::PteSlot &slot = vma->pte_slot(idx);
    const vm::Pte pte =
        vm::Pte::unpack(slot.load(std::memory_order_acquire));
    if (!pte.lazy) co_return;  // raced with another fault: done already

    // Fault entry (trap) + the full baseline per-page migration.
    co_await cpu.busy(ExecContext::kSyscall, Op::kSyscall,
                      cm.syscall_crossing);
    co_await cpu.busy(ExecContext::kSyscall, Op::kPrep,
                      cm.page_walk_full + cm.rmap_per_page);
    co_await cpu.busy(ExecContext::kSyscall, Op::kRemap,
                      cm.page_alloc_time(order));
    const mem::Pfn new_pfn =
        pm.allocate(pte.lazy_target, order);
    if (new_pfn == mem::kInvalidPfn) {
        // Exhausted destination: drop the marker, keep the page home.
        vm::Pte clear = pte;
        clear.lazy = false;
        slot.store(clear.pack(), std::memory_order_release);
        co_return;
    }
    co_await cpu.busy(ExecContext::kSyscall, Op::kRemap,
                      cm.pte_update + cm.tlb_flush_page +
                          cm.cache_flush_time(pb));
    pm.copy(new_pfn, pte.pfn, pb);
    co_await cpu.busy(ExecContext::kSyscall, Op::kCopy,
                      cm.cpu_copy_time(pb));
    vm::Pte final_pte = pte;
    final_pte.pfn = new_pfn;
    final_pte.lazy = false;
    slot.store(final_pte.pack(), std::memory_order_release);
    as.flush_tlb_page(*vma, idx);
    pm.frame(new_pfn).add_rmap(&as, vma->page_vaddr(idx));
    pm.frame(pte.pfn).remove_rmap(&as, vma->page_vaddr(idx));
    pm.free(pte.pfn, order);
    co_await cpu.busy(ExecContext::kSyscall, Op::kRelease,
                      cm.pte_update + cm.tlb_flush_page + cm.page_free);
}

}  // namespace memif::os
