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
 * Every started transfer has one record, owned by its starter from
 * start_chain() until it reads the outcome and calls release(); the
 * freed slot then serves a later start under a new generation. Nothing
 * else drops a record, and a query on a released id panics.
 *
 * The engine is cache-coherent with the CPU, as on KeyStone II (§2.3),
 * so no cache maintenance is modelled around transfers.
 */
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "dma/descriptor.h"
#include "mem/phys.h"
#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/fault.h"
#include "sim/log.h"
#include "sim/types.h"

namespace memif::dma {

/** Handle for a started transfer, valid until its owner releases it:
 *  the record's generation in the high 32 bits, its slot in the low
 *  ones. Generations start at 1, so no id is 0. */
using TransferId = std::uint64_t;
inline constexpr TransferId kInvalidTransfer = 0;

/** The slot of @p id in the engine's record table; a released slot
 *  serves a later start, so per-transfer side tables index by it. */
inline std::uint32_t
transfer_slot(TransferId id)
{
    return static_cast<std::uint32_t>(id);
}

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

/** Outcome of a transfer (EDMA3 TC error status model). */
enum class TransferStatus : std::uint8_t {
    kInFlight,    ///< not finished; a stuck chain stays here
    kOk,          ///< completed, bytes copied
    kError,       ///< TC bus error: completed with no bytes moved
    kXlateFault,  ///< an XlateGate fault ended it, as a TC-error completion
    kCancelled,   ///< cancelled by the driver: no bytes moved
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

    Edma3Engine(sim::EventQueue &eq, mem::PhysicalMemory &pm,
                const sim::CostModel &cm,
                sim::FaultInjector *faults = nullptr)
        : eq_(eq), pm_(pm), cm_(cm), faults_(faults),
          tc_busy_until_(kNumTcs, 0)
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
     * @return the id, whose record the caller owns until release()
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

    // Every query below panics on a released id.

    /** True once the transfer finished (with or without error). A stuck
     *  transfer never finishes, and a cancelled one never does either. */
    bool is_complete(TransferId id) const;

    TransferStatus status(TransferId id) const;

    /** Earliest completion time of @p id. */
    sim::SimTime completion_time(TransferId id) const;

    /**
     * Abort an in-flight transfer. No bytes are copied and no interrupt
     * fires. @return false if it had already completed.
     */
    bool cancel(TransferId id);

    /** The owner is done with @p id, finished or cancelled and with no
     *  delivery held by moderation: drop its record and free its slot
     *  for the next start. @p id is invalid afterwards. */
    void release(TransferId id);

    /** Records started and not yet released. */
    std::size_t
    live_transfers() const
    {
        return flights_.size() - free_slots_.size();
    }

    const EngineStats &stats() const { return stats_; }

  private:
    struct Flight {
        /** Of the id the slot serves now; bumped when it is released. */
        std::uint32_t generation = 1;
        DescIndex head = kNullLink;
        bool raise_irq = false;
        bool cancelled = false;
        bool completed = false;
        bool error = false;     ///< injected TC bus error
        bool stuck = false;     ///< injected hang: never completes
        bool lose_irq = false;  ///< injected lost completion interrupt
        bool moderated = false; ///< completion IRQ joins the TC batch
        /** Completed but the moderated delivery has not flushed yet;
         *  such a record cannot be released. */
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

    /** @p id's record, or null once the id is released (the engine's
     *  own events and batches skip such ids). */
    Flight *live(TransferId id) const;
    /** @p id's record; panics on a released id. */
    Flight &record(TransferId id) const;

    /** One descriptor's streaming time, excluding queueing. */
    sim::Duration desc_time(const TransferDescriptor &d) const;
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
    /** Park @p id's completion in its TC's moderation batch. */
    void hold_completion(TransferId id, Flight &fl);
    /** Deliver one coalesced IRQ retiring everything held on @p tc. */
    void flush_moderated(unsigned tc);

    sim::EventQueue &eq_;
    mem::PhysicalMemory &pm_;
    const sim::CostModel &cm_;
    sim::FaultInjector *faults_;
    DescriptorRam ram_;
    std::vector<sim::SimTime> tc_busy_until_;
    /** The record table, indexed by slot. A deque: a callback a record
     *  runs may start another transfer without moving the record. */
    std::deque<Flight> flights_;
    /** Released slots; the most recently freed serves the next start. */
    std::vector<std::uint32_t> free_slots_;
    CompletionFn retire_hook_;
    std::array<Moderation, kNumTcs> moderation_;
    /** Storage a moderation flush swaps in for the batch it delivers. */
    std::vector<TransferId> spare_batch_;
    unsigned moderation_mask_ = 0;
    EngineStats stats_;
};

}  // namespace memif::dma
