#include "mem/phys.h"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "mem/copier.h"
#include "sim/log.h"

namespace memif::mem {

AnonMapping::AnonMapping(const std::string &owner, std::uint64_t bytes)
    : bytes_(bytes)
{
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED)
        MEMIF_FATAL("node '%s': cannot map %llu bytes of backing: %s",
                    owner.c_str(), (unsigned long long)bytes,
                    std::strerror(errno));
    data_ = static_cast<std::byte *>(p);
}

AnonMapping::~AnonMapping() { ::munmap(data_, bytes_); }

namespace {

/** @p cfg, once its capacity is known to be a nonzero page multiple
 *  (checked before anything is sized from it; mmap(0) would fail). */
const NodeConfig &
checked_capacity(const NodeConfig &cfg)
{
    if (cfg.bytes == 0 || (cfg.bytes & (kPageSize - 1)) != 0)
        MEMIF_FATAL("node '%s': capacity must be a nonzero page multiple",
                    cfg.name.c_str());
    return cfg;
}

}  // namespace

MemoryNode::MemoryNode(NodeId id, Pfn base_pfn, const NodeConfig &cfg)
    : id_(id),
      base_(base_pfn),
      cfg_(checked_capacity(cfg)),
      backing_(cfg_.name, cfg_.bytes),
      table_(cfg_.name, num_frames() * sizeof(PageFrame)),
      frames_(reinterpret_cast<PageFrame *>(table_.data())),
      buddy_(num_frames())
{
}

void
MemoryNode::mark_allocated(std::uint64_t local, unsigned order)
{
    for (std::uint64_t i = 0; i < (std::uint64_t{1} << order); ++i) {
        PageFrame &f = frames_[local + i];
        MEMIF_ASSERT(f.mapcount() == 0, "allocating a still-mapped frame");
        f.allocated = true;
        f.is_block_head = (i == 0);
        f.order = static_cast<std::uint8_t>(order);
    }
}

PhysicalMemory::~PhysicalMemory() { wait_copies(); }

NodeId
PhysicalMemory::add_node(const NodeConfig &cfg)
{
    const NodeId id = static_cast<NodeId>(nodes_.size());
    nodes_.push_back(std::make_unique<MemoryNode>(id, next_base_, cfg));
    next_base_ += cfg.bytes >> kPageShift;
    return id;
}

MemoryNode *
PhysicalMemory::find_node(Pfn pfn) const
{
    for (const auto &n : nodes_)
        if (n->contains(pfn)) return n.get();
    return nullptr;
}

MemoryNode &
PhysicalMemory::owner_node(Pfn pfn) const
{
    MemoryNode *n = find_node(pfn);
    MEMIF_ASSERT(n != nullptr, "pfn %llu out of range",
                 (unsigned long long)pfn);
    return *n;
}

NodeId
PhysicalMemory::node_of(Pfn pfn) const
{
    const MemoryNode *n = find_node(pfn);
    return n != nullptr ? n->id() : kInvalidNode;
}

std::uint32_t
PhysicalMemory::distance(NodeId a, NodeId b) const
{
    MEMIF_ASSERT(a < nodes_.size() && b < nodes_.size(),
                 "distance query on unknown node");
    if (a == b) return 10;  // SLIT convention: local distance
    const NodeId lo = a < b ? a : b;
    const NodeId hi = a < b ? b : a;
    for (const DistanceOverride &o : distances_)
        if (o.a == lo && o.b == hi) return o.d;
    return 20;  // default remote distance
}

void
PhysicalMemory::set_distance(NodeId a, NodeId b, std::uint32_t d)
{
    MEMIF_ASSERT(a < nodes_.size() && b < nodes_.size() && a != b,
                 "bad distance override");
    const NodeId lo = a < b ? a : b;
    const NodeId hi = a < b ? b : a;
    for (DistanceOverride &o : distances_) {
        if (o.a == lo && o.b == hi) {
            o.d = d;
            return;
        }
    }
    distances_.push_back(DistanceOverride{lo, hi, d});
}

Pfn
PhysicalMemory::allocate(NodeId node_id, unsigned order)
{
    MemoryNode &n = node(node_id);
    const std::uint64_t local = n.buddy().allocate(order);
    if (local == BuddyAllocator::kInvalidFrame) return kInvalidPfn;
    n.mark_allocated(local, order);
    return n.base_pfn() + local;
}

bool
PhysicalMemory::allocate_bulk(NodeId node_id, unsigned order,
                              std::uint64_t n, std::vector<Pfn> &out)
{
    MemoryNode &nd = node(node_id);
    std::vector<std::uint64_t> locals;
    if (!nd.buddy().allocate_bulk(order, n, locals)) return false;
    out.reserve(out.size() + locals.size());
    for (const std::uint64_t local : locals) {
        nd.mark_allocated(local, order);
        out.push_back(nd.base_pfn() + local);
    }
    return true;
}

void
PhysicalMemory::free(Pfn head, unsigned order)
{
    const NodeId id = node_of(head);
    MEMIF_ASSERT(id != kInvalidNode, "freeing unmapped pfn");
    MemoryNode &n = node(id);
    for (std::uint64_t i = 0; i < (std::uint64_t{1} << order); ++i) {
        PageFrame &f = n.frame(head + i);
        MEMIF_ASSERT(f.allocated, "freeing unallocated frame pfn=%llu",
                     (unsigned long long)(head + i));
        MEMIF_ASSERT(f.mapcount() == 0, "freeing a still-mapped frame");
        f.allocated = false;
        f.is_block_head = false;
    }
    n.buddy().free(head - n.base_pfn(), order);
}

PageFrame &
PhysicalMemory::frame(Pfn pfn)
{
    return owner_node(pfn).frame_at(pfn);
}

void
PhysicalMemory::add_rmap(Pfn pfn, void *owner, std::uint64_t vaddr,
                         RmapKind kind)
{
    MemoryNode &n = owner_node(pfn);
    PageFrame &f = n.frame_at(pfn);
    const RmapEntry e{owner, vaddr, kind};
    if (f.mapcount_ == 0)
        f.only_ = e;
    else if (f.mapcount_ == 1)
        n.shared_rmaps_[pfn] = {f.only_, e};
    else
        n.shared_rmaps_.at(pfn).push_back(e);
    ++f.mapcount_;
}

bool
PhysicalMemory::remove_rmap(Pfn pfn, void *owner, std::uint64_t vaddr,
                            RmapKind kind)
{
    MemoryNode &n = owner_node(pfn);
    PageFrame &f = n.frame_at(pfn);
    const RmapEntry e{owner, vaddr, kind};
    if (f.mapcount_ < 2) {
        if (f.mapcount_ == 0 || f.only_ != e) return false;
        f.mapcount_ = 0;
        return true;
    }
    const auto shared = n.shared_rmaps_.find(pfn);
    std::vector<RmapEntry> &all = shared->second;
    const auto it = std::find(all.begin(), all.end(), e);
    if (it == all.end()) return false;
    all.erase(it);
    if (all.size() == 1) {
        f.only_ = all.front();
        n.shared_rmaps_.erase(shared);
    }
    --f.mapcount_;
    return true;
}

std::span<const RmapEntry>
PhysicalMemory::rmaps(Pfn pfn) const
{
    MemoryNode &n = owner_node(pfn);
    const PageFrame &f = n.frame_at(pfn);
    if (f.mapcount_ < 2) return {&f.only_, f.mapcount_};
    return n.shared_rmaps_.at(pfn);
}

std::byte *
PhysicalMemory::span(Pfn pfn, std::uint64_t bytes)
{
    std::byte *p = try_span_at(pfn << kPageShift, bytes);
    MEMIF_ASSERT(p != nullptr,
                 "span of %llu bytes at pfn %llu leaves its node",
                 (unsigned long long)bytes, (unsigned long long)pfn);
    return p;
}

std::byte *
PhysicalMemory::try_span_at(std::uint64_t addr, std::uint64_t bytes)
{
    wait_copies();
    return resolve(addr, bytes);
}

std::byte *
PhysicalMemory::resolve(std::uint64_t addr, std::uint64_t bytes)
{
    const NodeId id = node_of(addr >> kPageShift);
    if (id == kInvalidNode) return nullptr;
    MemoryNode &n = node(id);
    if (bytes > 0 && !n.contains((addr + bytes - 1) >> kPageShift))
        return nullptr;
    return n.frame_data(addr >> kPageShift) + (addr & (kPageSize - 1));
}

void
PhysicalMemory::copy(Pfn dst, Pfn src, std::uint64_t bytes)
{
    if (bytes == 0) return;
    copy_bytes(span(dst, bytes), span(src, bytes), bytes);
}

bool
PhysicalMemory::post_copy_at(std::uint64_t dst, std::uint64_t src,
                             std::uint64_t bytes)
{
    std::byte *s = resolve(src, bytes);
    std::byte *t = resolve(dst, bytes);
    if (s == nullptr || t == nullptr) return false;
    post_copy(t, s, bytes);
    return true;
}

std::vector<NodeId>
KeystoneMemory::build(PhysicalMemory &pm,
                      const std::vector<NodeConfig> &nodes)
{
    std::vector<NodeId> ids;
    ids.reserve(nodes.size());
    for (const NodeConfig &cfg : nodes) ids.push_back(pm.add_node(cfg));
    return ids;
}

std::pair<NodeId, NodeId>
KeystoneMemory::build(PhysicalMemory &pm, std::uint64_t slow_bytes)
{
    // Table 2: DDR3 measured at 6.2 GB/s, SRAM at 24.0 GB/s. Node 0 is
    // the CPU-local DRAM node, node 1 the fast SRAM node (§6.1).
    const std::vector<NodeId> ids =
        build(pm, {NodeConfig{.name = "ddr3-slow", .bytes = slow_bytes,
                              .bandwidth_bps = 6.2e9, .is_fast = false},
                   NodeConfig{.name = "sram-fast", .bytes = kFastBytes,
                              .bandwidth_bps = 24.0e9, .is_fast = true}});
    return {ids[0], ids[1]};
}

}  // namespace memif::mem
