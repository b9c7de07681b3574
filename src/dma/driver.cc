#include "dma/driver.h"

#include <utility>

#include "sim/log.h"

namespace memif::dma {

namespace {

/**
 * Chain-cache keying signature of one SG entry. Flat entries key by
 * their raw byte count (the historical keying, so pre-strided
 * behaviour is bit-identical); strided entries fold their whole
 * geometry into a hash with bit 63 set, which no realistic flat size
 * carries — a flat acquire can therefore never be handed a descriptor
 * still programmed with 2D geometry, and vice versa.
 */
std::uint64_t
entry_signature(const SgEntry &e)
{
    if (!e.strided()) return e.bytes;
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(e.bytes);
    mix(e.rows);
    mix(e.src_pitch);
    mix(e.dst_pitch);
    return h | (1ull << 63);
}

}  // namespace

DmaDriver::Prepared
DmaDriver::prepare(const std::vector<SgEntry> &sg)
{
    MEMIF_ASSERT(!sg.empty(), "empty scatter-gather list");
    bool uniform = true;
    for (const SgEntry &e : sg)
        uniform = uniform && entry_signature(e) ==
                                 entry_signature(sg.front());

    Prepared p;
    if (uniform) {
        p.lease = cache_.acquire(static_cast<std::uint32_t>(sg.size()),
                                 entry_signature(sg.front()));
    } else {
        shape_.clear();
        for (const SgEntry &e : sg) shape_.push_back(entry_signature(e));
        p.lease = cache_.acquire_shape(shape_);
    }
    for (const SgEntry &e : sg) p.bytes += e.total_bytes();

    // Program the PaRAM: reused flat entries get src/dst only (their
    // sizes already match by the cache's keying); fresh entries get
    // the full 12 parameters (link included). Strided entries are
    // ALWAYS written in full — a partial src/dst rewrite cannot update
    // the A/B-count geometry fields, and the signature is a hash, so
    // a (harmless) collision must not leave stale pitches behind.
    for (std::uint32_t i = 0; i < p.lease.size(); ++i) {
        const DescIndex idx = p.lease.descs[i];
        if (i < p.lease.reused && !sg[i].strided()) {
            engine_.param_ram().rewrite_src_dst(idx, sg[i].src_addr,
                                                sg[i].dst_addr);
            p.cpu_time += cm_.dma_desc_write_reuse;
        } else {
            TransferDescriptor d =
                sg[i].strided()
                    ? TransferDescriptor::strided(
                          sg[i].src_addr, sg[i].dst_addr, sg[i].bytes,
                          sg[i].rows, sg[i].src_pitch, sg[i].dst_pitch)
                    : TransferDescriptor::contiguous(
                          sg[i].src_addr, sg[i].dst_addr, sg[i].bytes);
            d.link = (i + 1 < p.lease.size()) ? p.lease.descs[i + 1]
                                              : kNullLink;
            engine_.param_ram().write_full(idx, d);
            p.cpu_time += cm_.dma_desc_write_full;
            p.cpu_time += opts_.reuse_descriptors ? cm_.dma_desc_param_cached
                                                  : cm_.dma_desc_param_calc;
        }
    }
    // Link fix-ups: charge one link write when the lease mixes reused
    // and fresh entries (the splice point).
    if (p.lease.reused > 0 && p.lease.fresh() > 0)
        p.cpu_time += cm_.dma_desc_write_link;

    // The trigger-register write that starts the engine.
    p.cpu_time += cm_.dma_start;
    return p;
}

sim::Task
DmaDriver::reserve_descriptors(std::uint32_t need, const bool *abandon_a,
                               const bool *abandon_b)
{
    MEMIF_ASSERT(need > 0 && need <= cache_.capacity(),
                 "reservation of %u descriptors out of range", need);
    // Fast path: nobody queued ahead and the capacity is already there.
    if (capacity_fifo_.empty() && available_descriptors() >= need)
        co_return;
    auto ticket = std::make_shared<std::uint32_t>(need);
    capacity_fifo_.push_back(ticket);
    for (;;) {
        if ((abandon_a && *abandon_a) || (abandon_b && *abandon_b)) {
            // The caller's request died while queued; drop the ticket
            // so successors are not blocked behind a ghost.
            std::erase(capacity_fifo_, ticket);
            capacity_wq_.notify_all();
            co_return;
        }
        if (capacity_fifo_.front() == ticket &&
            available_descriptors() >= need)
            break;
        co_await capacity_wq_.wait();
    }
    capacity_fifo_.pop_front();
    // The caller consumes its descriptors synchronously (prepare());
    // waking the next ticket now keeps the pipeline moving once enough
    // capacity remains for it too.
    capacity_wq_.notify_all();
}

TransferId
DmaDriver::start(Prepared prepared, bool irq_mode, CompletionFn on_complete,
                 unsigned tc, bool moderated, XlateGate gate)
{
    const DescIndex head = prepared.lease.head();
    MEMIF_ASSERT(head != kNullLink, "starting an empty chain");

    // Stash the lease; it returns to the cache on retirement (the
    // engine's retire hook), cancel or reclaim.
    const TransferId id =
        engine_.start_chain(head, tc, irq_mode, std::move(on_complete),
                            moderated, std::move(gate));
    const std::uint32_t slot = transfer_slot(id);
    if (slot >= slot_leases_.size()) slot_leases_.resize(slot + 1);
    slot_leases_[slot] = std::move(prepared.lease);
    return id;
}

void
DmaDriver::retire(TransferId id)
{
    ChainLease &lease = slot_leases_[transfer_slot(id)];
    if (lease.descs.empty()) return;  // already returned
    cache_.release(std::exchange(lease, {}));
    capacity_wq_.notify_all();
}

bool
DmaDriver::cancel(TransferId id)
{
    const bool cancelled = engine_.cancel(id);
    if (cancelled) retire(id);  // the engine will not retire it for us
    return cancelled;
}

}  // namespace memif::dma
