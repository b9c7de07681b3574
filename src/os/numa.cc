#include "os/numa.h"

#include "os/kernel.h"
#include "sim/cost_model.h"
#include "sim/cpu.h"
#include "sim/log.h"
#include "vm/addr_space.h"

namespace memif::os {

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
    MEMIF_ASSERT(pages.size() == nodes.size(),
                 "move_pages: pages/nodes size mismatch");
    std::vector<int> st(pages.size(), kPageNoEnt);

    co_await k.syscall_crossing();
    co_await k.cpu().busy(sim::ExecContext::kSyscall, sim::Op::kPrep,
                          k.costs().syscall_setup);
    for (std::size_t p = 0; p < pages.size(); ++p)
        co_await migrate_page(proc, pages[p], nodes[p], &st[p], nullptr);
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
