#include "os/numa.h"

#include "os/kernel.h"
#include "os/page_migration.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/log.h"
#include "vm/addr_space.h"
#include "vm/pte.h"

namespace memif::os {

using sim::ExecContext;
using sim::Op;

vm::VAddr
numa_mmap(Process &proc, std::uint64_t bytes, vm::PageSize psize,
          const MemPolicy &pol)
{
    Kernel &k = proc.kernel();
    const std::size_t num_nodes = k.phys().node_count();
    for (const mem::NodeId n : pol.nodes)
        if (n >= num_nodes) return 0;

    switch (pol.policy) {
      case NumaPolicy::kDefault:
        return proc.as().mmap(bytes, psize, k.slow_node());
      case NumaPolicy::kBind: {
        if (pol.nodes.empty()) return 0;
        return proc.as().mmap_policy(
            bytes, psize,
            [nodes = pol.nodes](std::uint64_t) { return nodes; });
      }
      case NumaPolicy::kPreferred: {
        if (pol.nodes.empty()) return 0;
        std::vector<mem::NodeId> order{pol.nodes.front()};
        for (mem::NodeId n = 0; n < num_nodes; ++n)
            if (n != pol.nodes.front()) order.push_back(n);
        return proc.as().mmap_policy(
            bytes, psize,
            [order = std::move(order)](std::uint64_t) { return order; });
      }
      case NumaPolicy::kInterleave: {
        if (pol.nodes.empty()) return 0;
        return proc.as().mmap_policy(
            bytes, psize, [nodes = pol.nodes](std::uint64_t page) {
                return std::vector<mem::NodeId>{
                    nodes[page % nodes.size()]};
            });
      }
    }
    return 0;
}

sim::Task
move_pages(Process &proc, std::vector<vm::VAddr> pages,
           std::vector<mem::NodeId> nodes, std::vector<int> *status)
{
    Kernel &k = proc.kernel();
    const sim::CostModel &cm = k.costs();
    sim::Cpu &cpu = k.cpu();
    vm::AddressSpace &as = proc.as();
    mem::PhysicalMemory &pm = k.phys();

    MEMIF_ASSERT(pages.size() == nodes.size(),
                 "move_pages: pages/nodes size mismatch");
    std::vector<int> st(pages.size(), kPageNoEnt);

    co_await k.syscall_crossing();
    co_await cpu.busy(ExecContext::kSyscall, Op::kPrep, cm.syscall_setup);

    for (std::size_t p = 0; p < pages.size(); ++p) {
        vm::Vma *vma = as.find_vma(pages[p]);
        if (!vma || nodes[p] >= pm.node_count()) {
            st[p] = kPageNoEnt;
            continue;
        }
        const std::uint64_t pb = vm::page_bytes(vma->page_size());
        const unsigned order = vm::page_order(vma->page_size());
        const std::uint64_t idx = vma->page_index(pages[p]);
        vm::PteSlot &slot = vma->pte_slot(idx);

        co_await cpu.busy(ExecContext::kSyscall, Op::kPrep,
                          cm.page_walk_full + cm.rmap_per_page);
        const vm::Pte old_pte =
            vm::Pte::unpack(slot.load(std::memory_order_acquire));
        if (!old_pte.present) {
            st[p] = kPageNoEnt;
            continue;
        }
        if (pm.node_of(old_pte.pfn) == nodes[p]) {
            st[p] = kPageAlready;
            continue;
        }
        if (pm.frame(old_pte.pfn).mapcount() > 1 ||
            vma->is_file_backed() || old_pte.migration) {
            st[p] = kPageBusy;
            continue;
        }

        co_await cpu.busy(ExecContext::kSyscall, Op::kRemap,
                          cm.page_alloc_time(order));
        const mem::Pfn new_pfn = pm.allocate(nodes[p], order);
        if (new_pfn == mem::kInvalidPfn) {
            st[p] = kPageNoMem;
            continue;
        }

        vm::Pte migration_pte = old_pte;
        migration_pte.migration = true;
        slot.store(migration_pte.pack(), std::memory_order_release);
        as.flush_tlb_page(*vma, idx);
        co_await cpu.busy(ExecContext::kSyscall, Op::kRemap,
                          cm.pte_update + cm.tlb_flush_page +
                              cm.cache_flush_time(pb));

        pm.copy(new_pfn, old_pte.pfn, pb);
        co_await cpu.busy(ExecContext::kSyscall, Op::kCopy,
                          cm.cpu_copy_time(pb));

        vm::Pte final_pte = old_pte;
        final_pte.pfn = new_pfn;
        slot.store(final_pte.pack(), std::memory_order_release);
        as.flush_tlb_page(*vma, idx);
        pm.frame(new_pfn).add_rmap(&as, vma->page_vaddr(idx));
        pm.frame(old_pte.pfn).remove_rmap(&as, vma->page_vaddr(idx));
        pm.free(old_pte.pfn, order);
        co_await cpu.busy(ExecContext::kSyscall, Op::kRelease,
                          cm.pte_update + cm.tlb_flush_page + cm.page_free);
        k.migration_waitq().notify_all();
        st[p] = kPageMoved;
    }
    if (status) *status = std::move(st);
}

std::vector<NumaNodeStat>
numa_stat(Kernel &kernel)
{
    std::vector<NumaNodeStat> stats;
    mem::PhysicalMemory &pm = kernel.phys();
    for (mem::NodeId n = 0; n < pm.node_count(); ++n) {
        const mem::MemoryNode &node = pm.node(n);
        NumaNodeStat s;
        s.id = n;
        s.name = node.name();
        s.total_bytes = node.bytes();
        s.free_bytes = node.free_frames() * mem::kPageSize;
        s.used_bytes = s.total_bytes - s.free_bytes;
        s.is_fast = node.is_fast();
        stats.push_back(std::move(s));
    }
    return stats;
}

}  // namespace memif::os
