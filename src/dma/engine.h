/**
 * @file
 * The simulated EDMA3 engine: executes descriptor chains against real
 * physical memory with bandwidth-accurate virtual timing.
 *
 * Transfers run asynchronously on one of six transfer controllers
 * (Table 2). When a chain completes, the engine really copies the bytes
 * and then either raises a completion interrupt or sets a pollable flag
 * (the §5.4 kernel thread switches between those modes). Transfers can
 * be cancelled while in flight — no bytes move — which backs the
 * "proceed and recover" race policy of §5.2.
 *
 * The engine also carries an EDMA3-style error model, driven entirely
 * by the kernel's FaultInjector (sites below): a TC bus error completes
 * the transfer with TransferStatus::kError and zero bytes moved but
 * still dispatches the CC error interrupt (on_complete); a lost
 * completion interrupt moves the bytes but never runs on_complete; a
 * stuck transfer never completes at all until cancelled. The memif
 * driver's watchdog / retry / fallback machinery turns all three into
 * definite request outcomes.
 *
 * The engine is cache-coherent with the CPU, as on KeyStone II (§2.3),
 * so no cache maintenance is modelled around transfers.
 */
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "dma/descriptor.h"
#include "mem/phys.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/fault.h"
#include "sim/log.h"
#include "sim/types.h"

namespace memif::dma {

/** Handle for an in-flight or finished transfer. */
using TransferId = std::uint64_t;
inline constexpr TransferId kInvalidTransfer = 0;

/** Completion callback; runs in simulated interrupt context. */
using CompletionFn = std::function<void(TransferId)>;

/** Verdict of the per-descriptor translation gate (SVA-routed DMA). */
struct XlateVerdict {
    /** Engine stall charged before the entry streams (a demand walk or
     *  an in-progress prefetch the consumer outran). */
    sim::Duration stall = 0;
    /** The walk could not resolve: the chain terminates like a TC bus
     *  error (entries already streamed stay written — the driver's
     *  recovery ladder owns the cleanup). */
    bool fault = false;
};

/**
 * Per-descriptor translation gate (SVA-routed DMA): invoked at the
 * simulated instant the TC is about to consume each descriptor of a
 * gated chain, in chain order. The gate may rewrite @p d's src/dst (the
 * local copy the TC streams from; PaRAM is not written back), which is
 * how a mid-flight re-walk redirects an entry. Must be synchronous and
 * must not call back into the engine.
 */
using XlateGate = std::function<XlateVerdict(
    TransferId id, std::uint32_t index, TransferDescriptor &d)>;

/** Terminal outcome of a transfer (EDMA3 TC error status model). */
enum class TransferStatus : std::uint8_t {
    kOk = 0,     ///< completed, bytes copied
    kError,      ///< TC bus error: completed with no bytes moved
    kCancelled,  ///< cancelled by the driver: no bytes moved
};

/** @name Engine fault-injection sites (see sim/fault.h catalog). */
///@{
inline constexpr std::string_view kFaultTcError = "dma.tc_error";
inline constexpr std::string_view kFaultLostIrq = "dma.lost_irq";
inline constexpr std::string_view kFaultStuck = "dma.stuck";
///@}

/** Aggregate engine statistics. */
struct EngineStats {
    std::uint64_t transfers_started = 0;
    std::uint64_t transfers_completed = 0;
    std::uint64_t transfers_cancelled = 0;
    std::uint64_t transfers_failed = 0;   ///< TC-error completions
    std::uint64_t interrupts_lost = 0;    ///< injected lost completions
    std::uint64_t bytes_copied = 0;
    std::uint64_t interrupts_raised = 0;
    /** Coalesced completion IRQs delivered (each also counts once in
     *  interrupts_raised — that is the point of moderation). */
    std::uint64_t moderated_irqs = 0;
    /** Completions retired through moderated IRQs. */
    std::uint64_t moderated_completions = 0;
    /** Moderation batches flushed by the holdoff timer rather than the
     *  count threshold. */
    std::uint64_t moderation_timer_flushes = 0;
    /** Transfers consumed descriptor-by-descriptor through an
     *  XlateGate (SVA-routed DMA). */
    std::uint64_t gated_transfers = 0;
    /** Gate verdicts that stalled the consuming TC. */
    std::uint64_t gate_stalls = 0;
    /** Total stall time the gate inserted into transfer streams. */
    sim::Duration gate_stall_time = 0;
    /** Chains terminated by a gate fault (counted in transfers_failed
     *  too — a gate fault is delivered as a TC-error completion). */
    std::uint64_t gate_faults = 0;
    sim::Duration busy_time = 0;  ///< summed per-TC busy durations
};

/**
 * The DMA engine model.
 *
 * Owns the PaRAM (DescriptorRam) and the transfer controllers. The
 * engine itself is purely mechanical: descriptor programming policy
 * (and its CPU cost) lives in DmaDriver.
 */
class Edma3Engine {
  public:
    static constexpr unsigned kNumTcs = 6;  // Table 2
    /** Finished-flight records are purged automatically once the table
     *  grows past this, bounding memory in long-running simulations. */
    static constexpr std::size_t kPurgeThreshold = 1024;

    Edma3Engine(sim::EventQueue &eq, mem::PhysicalMemory &pm,
                const sim::CostModel &cm,
                sim::FaultInjector *faults = nullptr)
        : eq_(eq), pm_(pm), cm_(cm), faults_(faults),
          tc_busy_until_(kNumTcs, 0),
          moderation_batch_(cm.dma_moderation_batch),
          moderation_holdoff_(cm.dma_moderation_holdoff)
    {
    }
    Edma3Engine(const Edma3Engine &) = delete;
    Edma3Engine &operator=(const Edma3Engine &) = delete;

    sim::EventQueue &eq() { return eq_; }
    DescriptorRam &param_ram() { return ram_; }
    const DescriptorRam &param_ram() const { return ram_; }

    /**
     * Trigger the chain starting at @p head (following link fields).
     *
     * @param tc            transfer controller to use
     * @param raise_irq     whether completion conceptually interrupts the
     *                      CPU (the interrupt-entry cost is charged by
     *                      the caller's handler); in polled mode pass
     *                      false and watch is_complete()
     * @param on_complete   invoked at completion time regardless of
     *                      @p raise_irq (drivers use it for retirement
     *                      bookkeeping; may be empty)
     * @param moderated     completion joins the per-TC interrupt-
     *                      moderation batch: the bytes land and
     *                      is_complete() flips at the true completion
     *                      time, but on_complete is held until the
     *                      batch flushes (count threshold or holdoff
     *                      timer). TC errors always bypass moderation —
     *                      an error interrupt is never held.
     * @param gate          optional per-descriptor translation gate
     *                      (SVA-routed DMA): with one installed the TC
     *                      consumes the chain descriptor-by-descriptor,
     *                      asking the gate before each entry streams;
     *                      stalls push the completion time back and
     *                      a fault terminates the chain like a TC bus
     *                      error. Injected error/stuck transfers skip
     *                      stepping entirely (their all-or-nothing
     *                      semantics are unchanged).
     * @return a transfer id for polling/cancellation
     */
    TransferId start_chain(DescIndex head, unsigned tc, bool raise_irq,
                           CompletionFn on_complete, bool moderated = false,
                           XlateGate gate = nullptr);

    /**
     * Install @p hook (null to remove), called with a transfer's id
     * wherever its on_complete runs, just before it, and also when
     * on_complete is empty: the one driver on this engine retires its
     * descriptor lease there.
     */
    void
    set_retire_hook(CompletionFn hook)
    {
        MEMIF_ASSERT(!hook || !retire_hook_,
                     "an engine serves one driver at a time");
        retire_hook_ = std::move(hook);
    }

    /** True if @p id terminated on an XlateGate fault (an SVA walk
     *  fault, reported as a TC-error completion). Purged ids report
     *  false. */
    bool gate_faulted(TransferId id) const;

    /**
     * Override the moderation parameters (defaults come from the cost
     * model: dma_moderation_batch / dma_moderation_holdoff). Engine-
     * wide; only transfers started with moderated=true are affected.
     */
    void
    configure_moderation(std::uint32_t batch, sim::Duration holdoff)
    {
        if (batch) moderation_batch_ = batch;
        if (holdoff) moderation_holdoff_ = holdoff;
    }

    /**
     * Drop @p id's held moderated completion, if any: its on_complete
     * will not run when the batch flushes. Used by the watchdog path
     * (which dispatches the completion itself) and by device teardown
     * (whose callbacks must not outlive the device).
     * @return true if a pending delivery was discarded.
     */
    bool discard_moderated(TransferId id);

    /**
     * NAPI-style interrupt masking. While masked (nestable; count > 0)
     * held completions accumulate silently — no batch-threshold flush,
     * no holdoff timer — because the driver's poller has promised to
     * reap them directly. unmask_moderation() flushes anything still
     * pending, so a completion can never be stranded by an unbalanced
     * poller. A timer armed before the mask keeps running as a
     * liveness backstop.
     */
    void mask_moderation() { ++moderation_mask_; }
    void unmask_moderation();

    /** Completions currently held by moderation on @p tc (test/diag). */
    std::size_t
    moderation_pending(unsigned tc) const
    {
        return moderation_[tc].pending.size();
    }

    /** Virtual-time cost of the chain at @p head (excl. queueing). */
    sim::Duration chain_duration(DescIndex head) const;

    /** The transfer controller that frees up first (ties break toward
     *  the lowest TC number, keeping runs deterministic). */
    unsigned
    least_busy_tc() const
    {
        unsigned best = 0;
        for (unsigned i = 1; i < kNumTcs; ++i)
            if (tc_busy_until_[i] < tc_busy_until_[best]) best = i;
        return best;
    }

    /** True once the transfer finished (with or without error). A
     *  purged id is reported complete (only finished transfers are
     *  purged). Stuck transfers stay incomplete until cancelled. */
    bool is_complete(TransferId id) const;

    /** Terminal status of @p id; kOk while still in flight and for
     *  purged ids (an error is always observed before purging). */
    TransferStatus status(TransferId id) const;

    /** Earliest completion time of @p id (0 if purged). */
    sim::SimTime completion_time(TransferId id) const;

    /** Flight records currently tracked (diagnostic; bounded by
     *  kPurgeThreshold plus the genuinely in-flight population). */
    std::size_t flight_count() const { return flights_.size(); }

    /**
     * Drop bookkeeping for finished (completed or cancelled) transfers
     * so long-running simulations do not accumulate one record per
     * transfer. Queries on purged ids degrade gracefully (see above).
     * @return the number of records dropped.
     */
    std::size_t purge_finished();

    /**
     * Abort an in-flight transfer. No bytes are copied and no interrupt
     * fires. @return false if it had already completed.
     */
    bool cancel(TransferId id);

    const EngineStats &stats() const { return stats_; }
    void reset_stats() { stats_ = EngineStats{}; }

  private:
    struct Flight {
        DescIndex head;
        bool raise_irq;
        bool cancelled = false;
        bool completed = false;
        bool error = false;     ///< injected TC bus error
        bool stuck = false;     ///< injected hang: never completes
        bool lose_irq = false;  ///< injected lost completion interrupt
        bool moderated = false; ///< completion IRQ joins the TC batch
        /** Completed but the moderated delivery has not flushed yet;
         *  such records are exempt from purge_finished(). */
        bool delivery_pending = false;
        bool gate_fault = false; ///< terminated by an XlateGate fault
        unsigned tc = 0;
        sim::SimTime completes_at = 0;
        CompletionFn on_complete{};
        /** SVA translation gate; non-null = stepped consumption. */
        XlateGate gate{};
        /** Stepped consumption cursor: next descriptor to stream. */
        DescIndex next_desc = kNullLink;
        /** Stepped consumption: the entry being streamed, as the gate
         *  left it (its bytes land when the step event fires). */
        TransferDescriptor streaming{};
        /** Descriptors consumed so far (loop guard + gate index). */
        std::uint32_t steps = 0;
    };

    /** Per-TC interrupt-moderation state. */
    struct Moderation {
        std::vector<TransferId> pending;  ///< completed, delivery held
        sim::EventQueue::EventId timer = sim::EventQueue::kInvalidEvent;
    };

    void execute_copies(DescIndex head);
    /** Copy one descriptor's bytes (possibly gate-rewritten); a packed
     *  frame inside one node on each side lands as one span. */
    void execute_one(const TransferDescriptor &d);
    /** Stepped consumption (gated transfers): gate + stream the next
     *  descriptor, or finish the flight when the chain is exhausted. */
    void step_chain(TransferId id);
    /** The one completion path, monolithic and stepped: mark the
     *  flight completed, then lose, hold (moderation) or deliver its
     *  interrupt. An errored flight counts as failed, not completed. */
    void finish_flight(TransferId id, Flight &fl);
    /** Run the retire hook, then @p fl's on_complete. */
    void deliver(TransferId id, Flight &fl);
    /** Park @p id's completion in @p tc's moderation batch. */
    void hold_completion(TransferId id, unsigned tc);
    /** Deliver one coalesced IRQ retiring everything held on @p tc. */
    void flush_moderated(unsigned tc);

    sim::EventQueue &eq_;
    mem::PhysicalMemory &pm_;
    const sim::CostModel &cm_;
    sim::FaultInjector *faults_;
    DescriptorRam ram_;
    std::vector<sim::SimTime> tc_busy_until_;
    std::unordered_map<TransferId, Flight> flights_;
    /** Nodes of purged records, reused by start_chain(). */
    std::vector<std::unordered_map<TransferId, Flight>::node_type>
        spare_flights_;
    CompletionFn retire_hook_;
    std::array<Moderation, kNumTcs> moderation_;
    /** Storage a moderation flush swaps in for the batch it delivers. */
    std::vector<TransferId> spare_batch_;
    std::uint32_t moderation_batch_;
    sim::Duration moderation_holdoff_;
    unsigned moderation_mask_ = 0;
    TransferId next_id_ = 1;
    EngineStats stats_;
};

}  // namespace memif::dma
