#include "memif/xlate_cache.h"

#include <algorithm>

namespace memif {

const XlateCache::Entry *
XlateCache::lookup(const vm::Vma *vma, std::uint64_t first, std::uint64_t n)
{
    for (Entry &e : entries_) {
        if (e.covers(vma, first, n)) {
            e.tick = ++tick_;
            return &e;
        }
    }
    return nullptr;
}

void
XlateCache::record(const vm::Vma *vma, std::uint64_t first, std::uint64_t n)
{
    if (n == 0) return;
    auto slot = std::find_if(entries_.begin(), entries_.end(),
                             [&](const Entry &e) {
                                 return e.vma == vma && e.first_page == first;
                             });
    if (slot == entries_.end()) {
        std::vector<vm::Pte> storage;
        if (entries_.size() >= max_entries_) {
            const auto lru = std::min_element(
                entries_.begin(), entries_.end(),
                [](const Entry &x, const Entry &y) { return x.tick < y.tick; });
            storage = std::move(lru->ptes);
            entries_.erase(lru);
        }
        slot = entries_.insert(entries_.end(),
                               Entry{vma, first, std::move(storage)});
    }
    slot->ptes.clear();
    slot->ptes.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i)
        slot->ptes.push_back(vma->pte(first + i));
    slot->generation = generation_;
    slot->tick = ++tick_;
}

std::uint64_t
XlateCache::invalidate(const vm::Vma *vma, std::uint64_t first,
                       std::uint64_t n)
{
    ++generation_;
    std::uint64_t dropped = 0;
    for (std::size_t i = 0; i < entries_.size();) {
        const Entry &e = entries_[i];
        const bool overlaps = e.vma == vma && first < e.first_page + e.num_pages() &&
                              e.first_page < first + n;
        if (overlaps) {
            entries_.erase(entries_.begin() + static_cast<std::ptrdiff_t>(i));
            ++dropped;
        } else {
            ++i;
        }
    }
    // Pending prefetches over the range snapshot translations that may
    // predate this invalidation; poison them so the fill is discarded.
    for (Pending &p : pending_) {
        if (p.vma == vma && first < p.first_page + p.num_pages &&
            p.first_page < first + n)
            p.killed = true;
    }
    return dropped;
}

std::uint64_t
XlateCache::begin_prefetch(const vm::Vma *vma, std::uint64_t first,
                           std::uint64_t n)
{
    Pending p;
    p.vma = vma;
    p.first_page = first;
    p.num_pages = n;
    p.token = ++next_token_;
    pending_.push_back(p);
    return p.token;
}

bool
XlateCache::fill_prefetch(std::uint64_t token)
{
    for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].token != token) continue;
        const Pending p = pending_[i];
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
        if (p.killed) return false;
        record(p.vma, p.first_page, p.num_pages);
        return true;
    }
    return false;  // unknown token (e.g. cache cleared); drop the fill
}

void
XlateCache::cancel_prefetch(std::uint64_t token)
{
    std::erase_if(pending_,
                  [token](const Pending &p) { return p.token == token; });
}

}  // namespace memif
