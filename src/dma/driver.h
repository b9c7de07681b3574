/**
 * @file
 * The DMA engine driver: turns a scatter-gather list into a programmed
 * descriptor chain and runs it on the engine.
 *
 * Usage is two-phase so the caller can charge the configuration cost to
 * the right simulated context:
 *
 *   DmaDriver::Prepared p = driver.prepare(sg);
 *   co_await cpu.busy(ctx, Op::kDmaConfig, p.cpu_time);
 *   dma::TransferId id = driver.start(std::move(p), irq_mode, callback);
 *
 * prepare() applies the §5.3 optimizations when enabled: parameter-
 * calculation caching and descriptor-chain reuse (only src/dst rewritten
 * on reused entries). Both can be disabled independently for ablations,
 * which reproduces the Table 1 "Baseline" DMA/cfg column.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dma/chain_cache.h"
#include "dma/descriptor.h"
#include "dma/engine.h"
#include "sim/cost_model.h"
#include "sim/sync.h"
#include "sim/task.h"
#include "sim/types.h"

namespace memif::dma {

/** Driver feature toggles (paper §5.3). */
struct DmaDriverOptions {
    /** Reuse previously configured descriptor chains and cache the
     *  per-chunk-size parameter calculations. Off is Table 1's
     *  Baseline column: every descriptor is computed and written in
     *  full. */
    bool reuse_descriptors = true;
};

/**
 * One piece of a scatter-gather transfer (one descriptor). Flat
 * entries (rows <= 1) are a physically contiguous run of `bytes`;
 * strided entries (rows > 1) are `rows` physically contiguous runs of
 * `bytes` each, `src_pitch`/`dst_pitch` apart — the whole pitched
 * extent must be physically contiguous on each side (callers split at
 * page boundaries), and it maps to one EDMA3 A/B-count descriptor.
 */
struct SgEntry {
    std::uint64_t src_addr = 0;  ///< physical byte address
    std::uint64_t dst_addr = 0;  ///< physical byte address
    std::uint64_t bytes = 0;     ///< run length (strided: bytes per row)
    std::uint32_t rows = 1;      ///< > 1 = 2D entry (A/B-count geometry)
    std::uint64_t src_pitch = 0; ///< byte stride between source rows
    std::uint64_t dst_pitch = 0; ///< byte stride between destination rows

    bool strided() const { return rows > 1; }
    /** Total payload bytes the entry moves. */
    std::uint64_t
    total_bytes() const
    {
        return bytes * (rows ? rows : 1);
    }
};

class DmaDriver {
  public:
    DmaDriver(Edma3Engine &engine, const sim::CostModel &cm,
              DmaDriverOptions opts = {})
        : engine_(engine),
          cm_(cm),
          opts_(opts),
          cache_(engine.param_ram(), opts.reuse_descriptors),
          capacity_wq_(engine.eq())
    {
        // A finished transfer's lease returns just before its
        // on_complete runs.
        engine_.set_retire_hook([this](TransferId id) { retire(id); });
    }
    ~DmaDriver() { engine_.set_retire_hook(nullptr); }
    DmaDriver(const DmaDriver &) = delete;
    DmaDriver &operator=(const DmaDriver &) = delete;

    /** A configured-but-not-started transfer. */
    struct Prepared {
        ChainLease lease;
        sim::Duration cpu_time = 0;  ///< config + trigger cost to charge
        std::uint64_t bytes = 0;
    };

    /** Descriptors not leased to in-flight transfers right now. */
    std::uint32_t available_descriptors() const { return cache_.available(); }

    /**
     * FIFO-fair descriptor-capacity gate: returns once @p need
     * descriptors are available AND every earlier reservation has been
     * granted, so a PaRAM-sized request cannot starve behind a stream
     * of small ones that keep slipping in front of it. The caller must
     * consume the capacity (prepare()) before its next suspension
     * point, which holds by construction in the memif driver.
     *
     * @param abandon_a,abandon_b  optional abort flags, polled at each
     *     wake: when either is true the reservation is dropped (the
     *     caller's request died while queued) and the gate opens for
     *     the next waiter. Plain pointers on purpose: coroutine
     *     parameters must stay trivially destructible here — GCC 12
     *     double-destroys the frame copy of non-trivial ones (observed
     *     with std::function), corrupting whatever they own. The
     *     pointees must outlive the await, which holds as both live in
     *     the awaiting frame's request record / device.
     */
    sim::Task reserve_descriptors(std::uint32_t need,
                                  const bool *abandon_a = nullptr,
                                  const bool *abandon_b = nullptr);

    /**
     * The TC scheduler: the transfer controller that frees up first,
     * so independent in-flight chains spread across all six TCs
     * instead of serialising on one.
     */
    unsigned pick_tc() const { return engine_.least_busy_tc(); }

    /**
     * Program descriptors for @p sg: one chunk per descriptor, as DMA
     * without IOMMU needs physically contiguous chunks. Chunk sizes
     * may vary per entry (coalesced contiguous runs); uniform lists
     * keep using the per-size chain pools, variable lists are keyed by
     * their exact shape. Real descriptor memory is written here; only
     * time is deferred. The caller must ensure available_descriptors()
     * >= sg.size() (await reserve_descriptors() otherwise);
     * oversubscription panics.
     */
    Prepared prepare(const std::vector<SgEntry> &sg);

    /**
     * Trigger the prepared chain. The lease returns to the chain cache
     * automatically when the transfer retires.
     *
     * @param irq_mode     completion interrupts the CPU (vs. polling)
     * @param on_complete  called at completion time (any mode; may be
     *                     empty for pure polling)
     * @param tc           transfer controller (defaults to the driver
     *                     option; concurrent clients spread over the
     *                     engine's six TCs for parallel transfers)
     * @param moderated    hold the completion IRQ in the engine's per-TC
     *                     moderation batch (see Edma3Engine::start_chain)
     * @param gate         optional per-descriptor translation gate; when
     *                     set the engine consumes the chain one entry at
     *                     a time and consults the gate before each copy
     *                     (see Edma3Engine::XlateGate)
     */
    TransferId start(Prepared prepared, bool irq_mode,
                     CompletionFn on_complete, unsigned tc = 0,
                     bool moderated = false, XlateGate gate = nullptr);

    /** Forwarders for the engine's interrupt-moderation controls. */
    bool
    discard_moderated(TransferId id)
    {
        return engine_.discard_moderated(id);
    }
    void mask_moderation() { engine_.mask_moderation(); }
    void unmask_moderation() { engine_.unmask_moderation(); }

    /**
     * Abandon a prepared-but-never-started transfer (e.g. the request
     * was aborted between configuration and trigger); the descriptor
     * lease returns to the cache.
     */
    void
    abandon(Prepared prepared)
    {
        cache_.release(std::move(prepared.lease));
        capacity_wq_.notify_all();
    }

    /** Forwarders for polled mode / cancellation. */
    bool is_complete(TransferId id) const { return engine_.is_complete(id); }
    TransferStatus status(TransferId id) const { return engine_.status(id); }
    sim::SimTime
    completion_time(TransferId id) const
    {
        return engine_.completion_time(id);
    }
    /** Did @p id's chain terminate on a translation-gate fault? */
    bool gate_faulted(TransferId id) const { return engine_.gate_faulted(id); }
    bool cancel(TransferId id);

    /**
     * Return @p id's descriptor lease to the chain cache without a
     * completion callback having run. Needed when the completion
     * interrupt was lost: the engine finished the transfer but never
     * invoked the retiring callback, so the watchdog reclaims the
     * chain here. Harmless if the transfer already retired.
     */
    void reclaim(TransferId id) { retire(id); }

    Edma3Engine &engine() { return engine_; }
    const ChainCache &cache() const { return cache_; }

  private:
    /** Return the lease of @p id to the chain cache. */
    void retire(TransferId id);

    Edma3Engine &engine_;
    const sim::CostModel &cm_;
    DmaDriverOptions opts_;
    ChainCache cache_;
    sim::WaitQueue capacity_wq_;
    std::unordered_map<TransferId, ChainLease> leases_;
    /** Nodes of retired leases, reused by start(). */
    std::vector<std::unordered_map<TransferId, ChainLease>::node_type>
        spare_leases_;
    /** Outstanding reserve_descriptors() tickets, oldest first. */
    std::deque<std::shared_ptr<std::uint32_t>> capacity_fifo_;
    /** prepare()'s per-entry signatures of a non-uniform list, kept for
     *  its capacity. */
    std::vector<std::uint64_t> shape_;
};

}  // namespace memif::dma
