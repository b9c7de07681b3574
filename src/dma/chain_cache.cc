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
                 "wait on DmaDriver::capacity_wait()");
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
            } else if (chain.size() <= need) {
                need -= static_cast<std::uint32_t>(chain.size());
                lease.reused += static_cast<std::uint32_t>(chain.size());
                lease.descs.reserve(count);
                lease.descs.insert(lease.descs.end(), chain.begin(),
                                   chain.end());
                it->second.pop_front();
            } else {
                // Split: take a prefix, keep the suffix cached.
                lease.descs.reserve(count);
                lease.descs.insert(lease.descs.end(), chain.begin(),
                                   chain.begin() + need);
                chain.erase(chain.begin(), chain.begin() + need);
                lease.reused += need;
                need = 0;
            }
        }
    }

    lease.descs.reserve(count);
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
ChainCache::acquire_shape(std::vector<std::uint64_t> chunk_sizes)
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
                 "wait on DmaDriver::capacity_wait()");
    ChainLease lease;
    lease.chunk_sizes = std::move(chunk_sizes);

    if (enabled_) {
        auto it = shaped_.find(lease.chunk_sizes);
        if (it != shaped_.end() && !it->second.empty()) {
            lease.descs = std::move(it->second.front());
            it->second.pop_front();
            if (it->second.empty()) shaped_.erase(it);
            lease.reused = count;
        }
    }
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

void
ChainCache::evict_one()
{
    for (auto &[size, deq] : chains_) {
        if (deq.empty()) continue;
        std::vector<DescIndex> &victim = deq.front();
        free_.insert(free_.end(), victim.begin(), victim.end());
        deq.pop_front();
        ++stats_.evictions;
        return;
    }
    for (auto &[shape, deq] : shaped_) {
        if (deq.empty()) continue;
        std::vector<DescIndex> &victim = deq.front();
        free_.insert(free_.end(), victim.begin(), victim.end());
        deq.pop_front();
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
        return;
    }
    if (!lease.chunk_sizes.empty()) {
        shaped_[std::move(lease.chunk_sizes)].push_back(
            std::move(lease.descs));
        return;
    }
    chains_[lease.chunk_bytes].push_back(std::move(lease.descs));
}

}  // namespace memif::dma
