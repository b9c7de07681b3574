#include "dma/chain_cache.h"

#include "sim/log.h"

namespace memif::dma {

ChainCache::ChainCache(DescriptorRam &ram, bool enabled)
    : ram_(ram), enabled_(enabled)
{
    free_.reserve(ram_.size());
    // Hand out low indices first (purely cosmetic determinism).
    for (std::uint32_t i = ram_.size(); i > 0; --i)
        free_.push_back(static_cast<DescIndex>(i - 1));
    shadow_links_.assign(ram_.size(), kNullLink);
}

void
ChainCache::ensure_link(DescIndex idx, DescIndex to)
{
    if (shadow_links_[idx] == to) return;
    ram_.rewrite_link(idx, to);
    shadow_links_[idx] = to;
    ++stats_.link_fixups;
}

ChainLease
ChainCache::acquire(std::uint32_t count, std::uint64_t chunk_bytes)
{
    MEMIF_ASSERT(count > 0 && count <= ram_.size(),
                 "lease of %u descriptors out of range", count);
    MEMIF_ASSERT(count <= available(),
                 "lease exceeds available PaRAM capacity; callers must "
                 "await DmaDriver::reserve_descriptors()");
    ChainLease lease;
    lease.chunk_bytes = chunk_bytes;
    std::uint32_t need = count;

    if (enabled_) {
        auto it = chains_.find(chunk_bytes);
        while (need > 0 && it != chains_.end() && !it->second.empty()) {
            std::vector<DescIndex> &chain = it->second.front();
            if (need == count && chain.size() == count) {
                // Exact fit of the whole lease: the cached chain
                // becomes the lease, storage and all.
                lease.descs = std::move(chain);
                lease.reused = count;
                need = 0;
                it->second.pop_front();
                break;
            }
            if (lease.descs.empty()) lease.descs = take_storage(count);
            if (chain.size() <= need) {
                // Join: the whole chain goes into the lease, and its
                // storage is parked for a later lease.
                need -= static_cast<std::uint32_t>(chain.size());
                lease.reused += static_cast<std::uint32_t>(chain.size());
                lease.descs.insert(lease.descs.end(), chain.begin(),
                                   chain.end());
                park_storage(std::move(chain));
                it->second.pop_front();
            } else {
                // Split: take a prefix, keep the suffix cached.
                lease.descs.insert(lease.descs.end(), chain.begin(),
                                   chain.begin() + need);
                chain.erase(chain.begin(), chain.begin() + need);
                lease.reused += need;
                need = 0;
            }
        }
    }

    if (lease.descs.empty()) lease.descs = take_storage(count);
    while (need > 0) {
        if (free_.empty()) evict_one();
        lease.descs.push_back(free_.back());
        free_.pop_back();
        --need;
    }

    stats_.descs_reused += lease.reused;
    stats_.descs_fresh += lease.fresh();
    outstanding_ += lease.size();

    // Make the lease's links consistent. Reused entries pay a real link
    // rewrite when their link changed; fresh entries get the link as
    // part of the full 12-parameter write the driver is about to do, so
    // only the shadow is updated.
    for (std::uint32_t i = 0; i < lease.size(); ++i) {
        const DescIndex next =
            (i + 1 < lease.size()) ? lease.descs[i + 1] : kNullLink;
        if (i < lease.reused)
            ensure_link(lease.descs[i], next);
        else
            shadow_links_[lease.descs[i]] = next;
    }
    return lease;
}

ChainLease
ChainCache::acquire_shape(const std::vector<std::uint64_t> &chunk_sizes)
{
    MEMIF_ASSERT(!chunk_sizes.empty() && chunk_sizes.size() <= ram_.size(),
                 "shape lease of %zu descriptors out of range",
                 chunk_sizes.size());
    bool uniform = true;
    for (const std::uint64_t s : chunk_sizes)
        uniform = uniform && s == chunk_sizes.front();
    if (uniform)
        return acquire(static_cast<std::uint32_t>(chunk_sizes.size()),
                       chunk_sizes.front());

    const auto count = static_cast<std::uint32_t>(chunk_sizes.size());
    MEMIF_ASSERT(count <= available(),
                 "lease exceeds available PaRAM capacity; callers must "
                 "await DmaDriver::reserve_descriptors()");
    ChainLease lease;
    if (!spare_shapes_.empty()) {
        lease.chunk_sizes = std::move(spare_shapes_.back());
        spare_shapes_.pop_back();
    }
    lease.chunk_sizes.assign(chunk_sizes.begin(), chunk_sizes.end());

    if (enabled_) {
        auto it = shaped_.find(lease.chunk_sizes);
        if (it != shaped_.end() && !it->second.empty()) {
            lease.descs = std::move(it->second.front());
            it->second.pop_front();
            if (it->second.empty()) shaped_.erase(it);
            lease.reused = count;
        }
    }
    if (lease.descs.empty()) lease.descs = take_storage(count);
    while (lease.descs.size() < count) {
        if (free_.empty()) evict_one();
        lease.descs.push_back(free_.back());
        free_.pop_back();
    }

    stats_.descs_reused += lease.reused;
    stats_.descs_fresh += lease.fresh();
    outstanding_ += lease.size();
    for (std::uint32_t i = 0; i < lease.size(); ++i) {
        const DescIndex next =
            (i + 1 < lease.size()) ? lease.descs[i + 1] : kNullLink;
        if (i < lease.reused)
            ensure_link(lease.descs[i], next);
        else
            shadow_links_[lease.descs[i]] = next;
    }
    return lease;
}

std::vector<DescIndex>
ChainCache::take_storage(std::uint32_t count)
{
    std::vector<DescIndex> v;
    if (!spare_.empty()) {
        v = std::move(spare_.back());
        spare_.pop_back();
    }
    v.reserve(count);
    return v;
}

void
ChainCache::park_storage(std::vector<DescIndex> v)
{
    v.clear();
    spare_.push_back(std::move(v));
}

void
ChainCache::park_shape(std::vector<std::uint64_t> v)
{
    v.clear();
    spare_shapes_.push_back(std::move(v));
}

void
ChainCache::evict_one()
{
    for (auto &[size, fifo] : chains_) {
        if (fifo.empty()) continue;
        std::vector<DescIndex> &victim = fifo.front();
        free_.insert(free_.end(), victim.begin(), victim.end());
        park_storage(std::move(victim));
        fifo.pop_front();
        ++stats_.evictions;
        return;
    }
    for (auto &[shape, fifo] : shaped_) {
        if (fifo.empty()) continue;
        std::vector<DescIndex> &victim = fifo.front();
        free_.insert(free_.end(), victim.begin(), victim.end());
        park_storage(std::move(victim));
        fifo.pop_front();
        ++stats_.evictions;
        return;
    }
    MEMIF_PANIC("PaRAM exhausted: too many outstanding DMA leases");
}

void
ChainCache::release(ChainLease lease)
{
    if (lease.descs.empty()) return;
    MEMIF_ASSERT(outstanding_ >= lease.size());
    outstanding_ -= lease.size();
    if (!enabled_) {
        free_.insert(free_.end(), lease.descs.begin(), lease.descs.end());
        park_storage(std::move(lease.descs));
        if (!lease.chunk_sizes.empty())
            park_shape(std::move(lease.chunk_sizes));
        return;
    }
    if (!lease.chunk_sizes.empty()) {
        auto it = shaped_.find(lease.chunk_sizes);
        if (it == shaped_.end()) {
            it = shaped_.try_emplace(std::move(lease.chunk_sizes)).first;
        } else {
            park_shape(std::move(lease.chunk_sizes));
        }
        it->second.push_back(std::move(lease.descs));
        return;
    }
    chains_[lease.chunk_bytes].push_back(std::move(lease.descs));
}

}  // namespace memif::dma
