/**
 * @file
 * The pseudo-NUMA abstraction (paper §1/§6.1): heterogeneous memories
 * exposed as NUMA nodes so "all kernel subsystems and the userspace,
 * e.g., the numactl utility, can see and use two NUMA nodes".
 *
 * This module provides the userspace-facing NUMA machinery on top of
 * that abstraction:
 *
 *  - mbind-style allocation policies (bind / preferred / interleave)
 *    applied at mmap time;
 *  - a Linux-like move_pages(): per-page synchronous migration (the
 *    baseline's migrate_page()) with a per-page status vector;
 *  - numastat-style per-node accounting.
 *
 * memif itself deliberately bypasses these (it is the *asynchronous*
 * alternative); this layer exists because a real system would ship
 * both, and the benches use it for the baseline.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mem/phys.h"
#include "os/page_migration.h"
#include "os/process.h"
#include "sim/task.h"
#include "vm/page_size.h"

namespace memif::os {

class Kernel;

/** mbind-style allocation policies. */
enum class NumaPolicy : std::uint8_t {
    kDefault = 0,  ///< CPU-local node (the slow DDR node on KeyStone II)
    kBind,         ///< only the given nodes; fail when exhausted
    kPreferred,    ///< try the given node, fall back to any other
    kInterleave,   ///< round-robin pages across the given nodes
};

/** A policy plus its node set. */
struct MemPolicy {
    NumaPolicy policy = NumaPolicy::kDefault;
    std::vector<mem::NodeId> nodes;
};

/**
 * mmap with a NUMA policy: allocates each page's backing according to
 * @p pol (the mbind(2)-at-allocation model).
 * @return base address, or 0 when the policy cannot be satisfied.
 */
vm::VAddr numa_mmap(Process &proc, std::uint64_t bytes, vm::PageSize psize,
                    const MemPolicy &pol);

/**
 * Linux-like move_pages(2): synchronously migrate each page in
 * @p pages to the corresponding node in @p nodes, writing one status
 * per page (the kPage* codes of os/page_migration.h). Coroutine in
 * @p proc's context: one syscall for the lot, then os::migrate_page()
 * per page.
 *
 * The vectors are taken by value on purpose: coroutine reference
 * parameters to caller temporaries dangle after the first suspension.
 */
sim::Task move_pages(Process &proc, std::vector<vm::VAddr> pages,
                     std::vector<mem::NodeId> nodes,
                     std::vector<int> *status);

/** One node's numastat-style snapshot. */
struct NumaNodeStat {
    mem::NodeId id = 0;
    std::string name;
    std::uint64_t total_bytes = 0;
    std::uint64_t free_bytes = 0;
    std::uint64_t used_bytes = 0;
    bool is_fast = false;
};

/** Per-node accounting for every node in the machine. */
std::vector<NumaNodeStat> numa_stat(Kernel &kernel);

}  // namespace memif::os
