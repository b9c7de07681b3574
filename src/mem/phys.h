/**
 * @file
 * Physical memory for the simulated platform: heterogeneous memory
 * nodes (paper Table 2: 6 MB on-chip SRAM + DDR3) with *real* host
 * backing bytes, page-frame descriptors, and per-node buddy
 * allocators.
 *
 * First-touch rule: a node's backing and its frame descriptors are
 * anonymous host mappings, so modelled capacity costs address space,
 * not host memory. An untouched frame reads as zero and its untouched
 * descriptor as free and unmapped; a host page of either is committed
 * on its first write. Building or tearing down a node makes no pass
 * over its frames. Frames are never scrubbed on allocation: a freed
 * frame that is allocated again still holds its old bytes.
 *
 * The module is purely functional: it moves real bytes and tracks real
 * allocation state but never advances virtual time. All timing is
 * charged by the OS/driver layers from the CostModel, keeping the
 * calibration in one place.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "mem/buddy.h"
#include "sim/log.h"

namespace memif::mem {

/** Base-2 log of the frame size; frames are 4 KB as on ARMv7/Linux. */
inline constexpr unsigned kPageShift = 12;
/** Physical frame size in bytes. */
inline constexpr std::uint64_t kPageSize = 1ull << kPageShift;

/** Global physical frame number. */
using Pfn = std::uint64_t;
/** Sentinel: no frame. */
inline constexpr Pfn kInvalidPfn = ~Pfn{0};

/** Pseudo-NUMA node id (paper §1: heterogeneous banks as NUMA nodes). */
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = ~NodeId{0};

/** What kind of object holds a reverse mapping. */
enum class RmapKind : std::uint8_t {
    kAddressSpace = 0,  ///< a process page table maps the frame
    kPageCache,         ///< a file's page cache holds the frame
};

/** One reverse mapping of a frame: which object references it where. */
struct RmapEntry {
    /** Mapping object (opaque to this layer; the vm/os layers cast
     *  according to kind). */
    void *owner;
    /** Virtual address (kAddressSpace) or file page index (kPageCache). */
    std::uint64_t vaddr;
    RmapKind kind;

    friend bool
    operator==(const RmapEntry &a, const RmapEntry &b)
    {
        return a.owner == b.owner && a.vaddr == b.vaddr &&
               a.kind == b.kind;
    }
};

/**
 * Per-frame descriptor, the analogue of Linux's `struct page`.
 *
 * All-zero bytes are a free, unmapped frame, and the type is trivial,
 * so a node's descriptor table is one more first-touch mapping (see
 * MemoryNode). The vm/os layers keep the reverse map through
 * PhysicalMemory::add_rmap() and remove_rmap(): a frame with one
 * mapping holds it inline, and a shared frame's mappings (shared
 * anonymous memory, paper §6.7, and mapped page-cache frames) live in
 * its node's store.
 */
class PageFrame {
  public:
    /** Allocation order of the block this frame heads (head frames only). */
    std::uint8_t order;
    /** True for the first frame of an allocated block. */
    bool is_block_head;
    /** True while the frame belongs to an allocated block. */
    bool allocated;

    /** Number of reverse mappings. */
    std::uint32_t mapcount() const { return mapcount_; }

  private:
    friend class PhysicalMemory;

    std::uint32_t mapcount_;
    /** The frame's one mapping while mapcount_ == 1. */
    RmapEntry only_;
};

static_assert(std::is_trivially_default_constructible_v<PageFrame> &&
                  std::is_trivially_destructible_v<PageFrame>,
              "a fresh mapping's zero pages must be a table of free frames");

/** Configuration of one memory node. */
struct NodeConfig {
    std::string name;
    std::uint64_t bytes = 0;       ///< capacity (multiple of kPageSize)
    double bandwidth_bps = 0.0;    ///< sustained bandwidth
    bool is_fast = false;          ///< fast (SRAM-like) vs slow (DRAM-like)
    /** Per-descriptor access latency in nanoseconds. Zero for on-board
     *  tiers (their latency is folded into the engine's constants); the
     *  far/remote tier carries its RDMA-class latency here so the DMA
     *  engine charges it on every descriptor touching the node. */
    std::uint64_t latency_ns = 0;
};

/**
 * A private anonymous host mapping (`MAP_NORESERVE`), unmapped on
 * destruction. It reserves address space only: the host commits a page
 * when it is first written, and an untouched page reads as zero.
 */
class AnonMapping {
  public:
    /** Map @p bytes; a failed mapping is fatal and names @p owner. */
    AnonMapping(const std::string &owner, std::uint64_t bytes);
    ~AnonMapping();
    AnonMapping(const AnonMapping &) = delete;
    AnonMapping &operator=(const AnonMapping &) = delete;

    std::byte *data() const { return data_; }

  private:
    std::byte *data_ = nullptr;
    std::uint64_t bytes_ = 0;
};

/**
 * One memory node: a contiguous physical frame range with real backing
 * bytes, its frame descriptors and its own buddy allocator.
 *
 * The backing and the descriptor table follow the first-touch rule:
 * untouched frames read as zero and their descriptors as free, and host
 * pages are committed on first write, so a node costs host memory only
 * for the frames a workload has used. Allocation never scrubs a frame.
 */
class MemoryNode {
  public:
    MemoryNode(NodeId id, Pfn base_pfn, const NodeConfig &cfg);

    NodeId id() const { return id_; }
    const std::string &name() const { return cfg_.name; }
    bool is_fast() const { return cfg_.is_fast; }
    double bandwidth_bps() const { return cfg_.bandwidth_bps; }
    std::uint64_t latency_ns() const { return cfg_.latency_ns; }
    Pfn base_pfn() const { return base_; }
    std::uint64_t num_frames() const { return cfg_.bytes >> kPageShift; }
    std::uint64_t bytes() const { return cfg_.bytes; }

    bool
    contains(Pfn pfn) const
    {
        return pfn >= base_ && pfn < base_ + num_frames();
    }

    /** Frames currently free in the buddy allocator. */
    std::uint64_t free_frames() const { return buddy_.free_frames(); }

    BuddyAllocator &buddy() { return buddy_; }
    PageFrame &
    frame(Pfn pfn)
    {
        MEMIF_ASSERT(contains(pfn), "pfn %llu outside node '%s'",
                     (unsigned long long)pfn, cfg_.name.c_str());
        return frame_at(pfn);
    }

  private:
    /** Only PhysicalMemory reaches the bytes, so every access goes
     *  through the accessors that wait for posted copies. */
    friend class PhysicalMemory;

    /** frame() for a @p pfn the caller has already bounds-checked. */
    PageFrame &frame_at(Pfn pfn) { return frames_[pfn - base_]; }

    /** Host pointer to the first byte of frame @p pfn. */
    std::byte *
    frame_data(Pfn pfn)
    {
        return backing_.data() + ((pfn - base_) << kPageShift);
    }

    /** Mark the 2^order frames from local index @p local allocated,
     *  the first as the block's head. They must be unmapped. */
    void mark_allocated(std::uint64_t local, unsigned order);

    NodeId id_;
    Pfn base_;
    NodeConfig cfg_;
    AnonMapping backing_;
    /** Holds the descriptor table frames_ points into. */
    AnonMapping table_;
    PageFrame *frames_;
    /** Every mapping of each frame mapped more than once, by pfn, in
     *  the order PhysicalMemory::rmaps() gives them. */
    std::unordered_map<Pfn, std::vector<RmapEntry>> shared_rmaps_;
    BuddyAllocator buddy_;
};

/**
 * The machine's physical memory: all nodes, global PFN resolution,
 * allocation and byte access across node boundaries.
 *
 * Every byte accessor (span(), try_span_at(), copy()) first waits for
 * the calling thread's copy FIFO (mem::wait_copies()), so it sees every
 * DMA copy posted before it. Only post_copy_at(), the DMA engine's
 * path, does not wait: it orders its copy behind the FIFO instead. A
 * pointer from span() is good until the next event that may post a
 * copy; take it again after that.
 */
class PhysicalMemory {
  public:
    PhysicalMemory() = default;
    /** Lands every copy still on this thread's FIFO before the backing
     *  is unmapped. */
    ~PhysicalMemory();
    PhysicalMemory(const PhysicalMemory &) = delete;
    PhysicalMemory &operator=(const PhysicalMemory &) = delete;

    /** Register a node; returns its id. Frame ranges never overlap. */
    NodeId add_node(const NodeConfig &cfg);

    std::size_t node_count() const { return nodes_.size(); }
    MemoryNode &node(NodeId id) { return *nodes_.at(id); }
    const MemoryNode &node(NodeId id) const { return *nodes_.at(id); }

    /** Node owning @p pfn; kInvalidNode when out of range. */
    NodeId node_of(Pfn pfn) const;

    /**
     * @name ACPI SLIT-style node distance table.
     * Distances default to 10 on-node and 20 between any two nodes;
     * set_distance overrides a pair (symmetric). The tiered placement
     * code uses distances to recognise non-adjacent tiers: a move whose
     * endpoints are further apart than either is from a middle node is
     * a candidate for staging through that middle node.
     */
    ///@{
    std::uint32_t distance(NodeId a, NodeId b) const;
    void set_distance(NodeId a, NodeId b, std::uint32_t d);
    ///@}

    /**
     * Allocate a 2^order-frame block on @p node.
     * @return the head PFN, or kInvalidPfn when the node is exhausted.
     */
    Pfn allocate(NodeId node, unsigned order);

    /**
     * Allocate @p n 2^order-frame blocks on @p node in one call,
     * appending the head PFNs to @p out. All-or-nothing: on failure no
     * frame is allocated and @p out is untouched.
     */
    bool allocate_bulk(NodeId node, unsigned order, std::uint64_t n,
                       std::vector<Pfn> &out);

    /** Free a block previously returned by allocate(). */
    void free(Pfn head, unsigned order);

    /** Machine-wide allocated-and-not-freed frame count (leak check:
     *  sums every node's BuddyAllocator::outstanding_pages()). */
    std::uint64_t
    outstanding_pages() const
    {
        std::uint64_t total = 0;
        for (const auto &n : nodes_) total += n->buddy().outstanding_pages();
        return total;
    }

    PageFrame &frame(Pfn pfn);

    /**
     * @name Reverse map.
     * Who maps frame @p pfn, and where. rmaps() gives the mappings in
     * the order they were added; removing one keeps the order of the
     * rest. Its span is good until the frame's reverse map next changes.
     */
    ///@{
    void add_rmap(Pfn pfn, void *owner, std::uint64_t vaddr,
                  RmapKind kind = RmapKind::kAddressSpace);
    /** Remove one matching mapping. @return true if found. */
    bool remove_rmap(Pfn pfn, void *owner, std::uint64_t vaddr,
                     RmapKind kind = RmapKind::kAddressSpace);
    std::span<const RmapEntry> rmaps(Pfn pfn) const;
    ///@}

    /**
     * Host pointer to @p bytes of physically contiguous memory starting
     * at frame @p pfn (must stay inside one node), once every posted
     * copy has landed.
     */
    std::byte *span(Pfn pfn, std::uint64_t bytes);

    /**
     * Host pointer to physical byte address @p addr when the @p bytes
     * from there lie inside one node; nullptr when they straddle a node
     * boundary (adjacent PFNs may belong to two nodes) or leave memory.
     * Waits for posted copies like span().
     */
    std::byte *try_span_at(std::uint64_t addr, std::uint64_t bytes);

    /**
     * Copy @p bytes between physically contiguous regions (real bytes
     * move through mem::copy_bytes; no virtual time passes here).
     */
    void copy(Pfn dst, Pfn src, std::uint64_t bytes);

    /**
     * Post a copy of @p bytes from physical byte address @p src to
     * @p dst through mem::post_copy(), in order behind every copy
     * already on this thread's lane, without waiting for them. False
     * (nothing posted) when either side straddles a node boundary or
     * leaves memory.
     */
    bool post_copy_at(std::uint64_t dst, std::uint64_t src,
                      std::uint64_t bytes);

  private:
    /** Node owning @p pfn; nullptr when out of range. */
    MemoryNode *find_node(Pfn pfn) const;
    /** Node owning @p pfn, which must be in range. */
    MemoryNode &owner_node(Pfn pfn) const;

    /** try_span_at() without the wait for the copy FIFO. */
    std::byte *resolve(std::uint64_t addr, std::uint64_t bytes);

    std::vector<std::unique_ptr<MemoryNode>> nodes_;
    /** Symmetric distance overrides: {min(a,b), max(a,b), distance}. */
    struct DistanceOverride {
        NodeId a;
        NodeId b;
        std::uint32_t d;
    };
    std::vector<DistanceOverride> distances_;
    Pfn next_base_ = 0;
};

/**
 * Build the default simulated KeyStone II memory: node 0 = slow DDR3
 * (CPU-local), node 1 = fast on-chip SRAM — matching the paper's §6.1
 * pseudo-NUMA layout (cores+DRAM on one node, SRAM on the other).
 *
 * @param slow_bytes DDR capacity to model (default 256 MB; the real
 *        board has 8 GB but no experiment needs it). Capacity costs host
 *        memory only where it is written (see MemoryNode).
 */
struct KeystoneMemory {
    static constexpr std::uint64_t kDefaultSlowBytes = 256ull << 20;
    static constexpr std::uint64_t kFastBytes = 6ull << 20;  // 6 MB SRAM

    /**
     * Register an arbitrary list of nodes on @p pm in order; returns
     * their ids. The two-node overload below is implemented on top of
     * this and stays byte-identical to the historical hard-coded pair.
     */
    static std::vector<NodeId> build(PhysicalMemory &pm,
                                     const std::vector<NodeConfig> &nodes);

    /** Adds both nodes to @p pm; returns {slow_id, fast_id}. */
    static std::pair<NodeId, NodeId> build(
        PhysicalMemory &pm, std::uint64_t slow_bytes = kDefaultSlowBytes);
};

}  // namespace memif::mem
