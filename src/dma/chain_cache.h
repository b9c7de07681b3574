/**
 * @file
 * Descriptor-chain reuse (paper §5.3 "Minimal Reconfiguration of DMA
 * Engine").
 *
 * The enhanced driver "maintains the knowledge of existing descriptor
 * chains": it remembers that, say, descriptors 42..73 form a chain each
 * configured for a 4 KB copy, and reuses part or all of such a chain
 * for the next transfer — rewriting only the source and destination
 * fields (4x cheaper than a full 12-parameter write into uncached I/O
 * memory).
 *
 * The cache allocates PaRAM entries, hands out chains for transfers,
 * and reabsorbs them at retirement. When the PaRAM fills up, chains of
 * other chunk sizes are evicted oldest-first.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "dma/descriptor.h"

namespace memif::dma {

/** A chain handed out for one transfer. */
struct ChainLease {
    /** Descriptor indices in chain order; links are already programmed. */
    std::vector<DescIndex> descs;
    /** The first @c reused entries were already configured for this
     *  chunk size/shape (only src/dst need rewriting). */
    std::uint32_t reused = 0;
    /** Chunk size the lease is keyed under (uniform leases only). */
    std::uint64_t chunk_bytes = 0;
    /** Non-uniform leases: the per-descriptor chunk sizes the chain is
     *  keyed under (empty for uniform leases). */
    std::vector<std::uint64_t> chunk_sizes;

    DescIndex head() const { return descs.empty() ? kNullLink : descs.front(); }
    std::uint32_t size() const { return static_cast<std::uint32_t>(descs.size()); }
    std::uint32_t fresh() const { return size() - reused; }
};

/** Cache hit/miss accounting (ablation benches read these). */
struct ChainCacheStats {
    std::uint64_t descs_reused = 0;
    std::uint64_t descs_fresh = 0;
    std::uint64_t evictions = 0;
    std::uint64_t link_fixups = 0;
};

/**
 * Cached chains of one size or shape, oldest first. Popped chains leave
 * their slots behind until every chain is popped, or until a push would
 * otherwise grow the storage, so cycling chains through it allocates
 * nothing once it has grown.
 */
class ChainFifo {
  public:
    bool empty() const { return head_ == chains_.size(); }
    /** The oldest chain (not empty()); move its storage out before
     *  pop_front(). */
    std::vector<DescIndex> &front() { return chains_[head_]; }

    void
    pop_front()
    {
        if (++head_ < chains_.size()) return;
        chains_.clear();
        head_ = 0;
    }

    void
    push_back(std::vector<DescIndex> chain)
    {
        if (head_ > 0 && chains_.size() == chains_.capacity()) {
            chains_.erase(chains_.begin(), chains_.begin() + head_);
            head_ = 0;
        }
        chains_.push_back(std::move(chain));
    }

  private:
    std::vector<std::vector<DescIndex>> chains_;
    /** Chains before this one have been popped. */
    std::size_t head_ = 0;
};

class ChainCache {
  public:
    /**
     * @param ram      the PaRAM to allocate from
     * @param enabled  when false every acquisition is fully fresh
     *                 (the ablation baseline of Table 1's "Baseline"
     *                 DMA/cfg column)
     */
    explicit ChainCache(DescriptorRam &ram, bool enabled = true);

    /**
     * Lease @p count descriptors for copies of @p chunk_bytes each.
     * Reuses cached same-size chains first; then fresh PaRAM entries;
     * then evicts other-size chains. Links along the lease are made
     * consistent (fix-ups are counted as partial writes).
     *
     * @p count must not exceed the PaRAM capacity.
     */
    ChainLease acquire(std::uint32_t count, std::uint64_t chunk_bytes);

    /**
     * Lease one descriptor per entry of @p chunk_sizes — the variable-
     * chunk form used by coalesced scatter-gather lists. Uniform shapes
     * delegate to acquire() (and share its per-size pool); non-uniform
     * shapes reuse only a cached chain of the *exact* same shape (a
     * split prefix would silently change per-position chunk sizes), and
     * otherwise fall back to fresh/evicted PaRAM entries. The lease's
     * copy of the shape lives in parked storage, so a warmed-up cache
     * allocates nothing for it.
     */
    ChainLease acquire_shape(const std::vector<std::uint64_t> &chunk_sizes);

    /** Return a retired transfer's chain to the cache. */
    void release(ChainLease lease);

    /** Max descriptors a single lease may request. */
    std::uint32_t capacity() const { return ram_.size(); }

    /** Descriptors not currently leased to an in-flight transfer. */
    std::uint32_t available() const { return ram_.size() - outstanding_; }

    const ChainCacheStats &stats() const { return stats_; }

  private:
    /** Fix the link field of @p idx if it does not already equal @p to. */
    void ensure_link(DescIndex idx, DescIndex to);

    /** Free the oldest cached chain (panics when nothing is cached). */
    void evict_one();

    /** Empty storage for a lease of @p count descriptors: a parked
     *  vector when there is one, so a split or joined lease allocates
     *  nothing once the cache has warmed up. */
    std::vector<DescIndex> take_storage(std::uint32_t count);
    /** Park a consumed chain's storage for take_storage(). */
    void park_storage(std::vector<DescIndex> v);
    /** Park a released lease's shape storage for acquire_shape(). */
    void park_shape(std::vector<std::uint64_t> v);

    DescriptorRam &ram_;
    bool enabled_;
    /** PaRAM entries in no cached chain. */
    std::vector<DescIndex> free_;
    /** Cached chains per chunk size. */
    std::map<std::uint64_t, ChainFifo> chains_;
    /** Cached non-uniform chains keyed by their exact run shape. */
    std::map<std::vector<std::uint64_t>, ChainFifo> shaped_;
    /** Emptied chain vectors, kept for their capacity. */
    std::vector<std::vector<DescIndex>> spare_;
    /** Shape vectors of released leases whose shape was already a key,
     *  kept for their capacity. */
    std::vector<std::vector<std::uint64_t>> spare_shapes_;
    /** Driver-side knowledge of each entry's link (no I/O reads needed). */
    std::vector<DescIndex> shadow_links_;
    /** Descriptors in currently leased (not yet released) chains. */
    std::uint32_t outstanding_ = 0;
    ChainCacheStats stats_;
};

}  // namespace memif::dma
