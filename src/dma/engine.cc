#include "dma/engine.h"

#include <algorithm>

#include "sim/log.h"

namespace memif::dma {

sim::Duration
Edma3Engine::desc_time(const TransferDescriptor &d) const
{
    const auto node = [this](std::uint64_t addr) -> const mem::MemoryNode & {
        const mem::NodeId id = pm_.node_of(addr >> mem::kPageShift);
        MEMIF_ASSERT(id != mem::kInvalidNode, "DMA address outside memory");
        return pm_.node(id);
    };
    const mem::MemoryNode &src = node(d.src);
    const mem::MemoryNode &dst = node(d.dst);
    // The slower side gates both the bandwidth and the access latency.
    // On-board tiers carry zero latency, so two-node machines are
    // byte-identical; only descriptors touching a far node pay.
    return cm_.dma_per_desc + std::max(src.latency_ns(), dst.latency_ns()) +
           cm_.dma_stream_time(d.total_bytes(), src.bandwidth_bps(),
                               dst.bandwidth_bps());
}

sim::Duration
Edma3Engine::chain_duration(DescIndex head) const
{
    sim::Duration total = cm_.dma_latency;
    DescIndex idx = head;
    unsigned hops = 0;
    while (idx != kNullLink) {
        MEMIF_ASSERT(++hops <= DescriptorRam::kEntries,
                     "descriptor chain loops");
        const TransferDescriptor &d = ram_.read(idx);
        total += desc_time(d);
        idx = d.link;
    }
    return total;
}

TransferId
Edma3Engine::start_chain(DescIndex head, unsigned tc, bool raise_irq,
                         CompletionFn on_complete, bool moderated,
                         XlateGate gate)
{
    MEMIF_ASSERT(tc < kNumTcs, "bad transfer controller");
    const sim::Duration duration = chain_duration(head);
    const sim::SimTime begin =
        tc_busy_until_[tc] > eq_.now() ? tc_busy_until_[tc] : eq_.now();
    const sim::SimTime done_at = begin + duration;
    tc_busy_until_[tc] = done_at;

    if (free_slots_.empty()) {
        free_slots_.push_back(static_cast<std::uint32_t>(flights_.size()));
        flights_.emplace_back();
    }
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    Flight &flight = flights_[slot];
    const TransferId id = TransferId{flight.generation} << 32 | slot;
    flight.head = head;
    flight.raise_irq = raise_irq;
    flight.moderated = moderated && raise_irq;
    flight.tc = tc;
    flight.completes_at = done_at;
    flight.on_complete = std::move(on_complete);
    // The error model decides each transfer's fate up front so one
    // seeded plan replays identically. Sites are only consulted while
    // armed (the common case costs one integer compare).
    if (faults_ && faults_->enabled()) {
        flight.stuck = faults_->should_fire(kFaultStuck);
        flight.error =
            faults_->should_fire(kFaultTcError) && !flight.stuck;
        // A lost completion only makes sense in interrupt mode; polled
        // completions are observed via the pollable flag.
        flight.lose_irq =
            faults_->should_fire(kFaultLostIrq) && raise_irq;
    }
    // Stepped (SVA-gated) consumption: with zero gate stalls the step
    // events land at exactly the monolithic done_at, so an always-hit
    // gate is time-identical to the pre-pinned path. Injected error /
    // stuck transfers keep the monolithic event: an errored chain moves
    // no bytes at all, and a stuck one never completes.
    const bool stepped = gate && !flight.stuck && !flight.error;
    if (stepped) {
        flight.gate = std::move(gate);
        flight.next_desc = head;
        ++stats_.gated_transfers;
    }
    ++stats_.transfers_started;
    stats_.busy_time += duration;

    if (stepped) {
        eq_.schedule_at(begin + cm_.dma_latency,
                        [this, id] { step_chain(id); });
        return id;
    }
    eq_.schedule_at(done_at, [this, id] {
        Flight *fl = live(id);
        if (!fl || fl->cancelled) return;  // cancelled (and released)
        if (fl->stuck) return;  // hangs until the driver cancels it
        if (fl->error) {
            // TC bus error: the chain terminates without moving a
            // byte; the CC dispatches the error interrupt instead of
            // the completion interrupt.
            ++stats_.transfers_failed;
        } else {
            execute_copies(fl->head);
        }
        finish_flight(id, *fl);
    });
    return id;
}

void
Edma3Engine::step_chain(TransferId id)
{
    Flight *cur = live(id);
    if (!cur || cur->cancelled) return;
    if (cur->next_desc == kNullLink) {
        finish_flight(id, *cur);
        return;
    }
    MEMIF_ASSERT(++cur->steps <= DescriptorRam::kEntries,
                 "descriptor chain loops");
    const std::uint32_t index = cur->steps - 1;
    // The TC streams from a local copy: the gate may redirect the entry
    // (a mid-flight re-walk) without the PaRAM ever being rewritten.
    TransferDescriptor d = ram_.read(cur->next_desc);
    XlateVerdict v = cur->gate(id, index, d);
    // The gate is driver code; look the record up again after it ran.
    cur = live(id);
    if (!cur || cur->cancelled) return;
    Flight &fl = *cur;
    if (v.fault) {
        // SVA walk fault: the chain terminates like a TC bus error —
        // the CC error interrupt dispatches immediately and is never
        // moderated or lost. Entries already streamed stay written;
        // the driver's recovery ladder owns the cleanup.
        fl.error = true;
        fl.gate_fault = true;
        fl.completed = true;
        fl.completes_at = eq_.now();
        ++stats_.transfers_failed;
        ++stats_.gate_faults;
        if (fl.raise_irq) ++stats_.interrupts_raised;
        deliver(id, fl);
        return;
    }
    if (v.stall > 0) {
        // The consumer outran the translation machinery: push the
        // completion estimate (and the TC's busy horizon) back so
        // completion_time() keeps quoting the current schedule.
        ++stats_.gate_stalls;
        stats_.gate_stall_time += v.stall;
        stats_.busy_time += v.stall;
        fl.completes_at += v.stall;
        if (tc_busy_until_[fl.tc] < fl.completes_at)
            tc_busy_until_[fl.tc] = fl.completes_at;
    }
    const sim::Duration step = v.stall + desc_time(d);
    fl.next_desc = d.link;
    fl.streaming = d;
    // Bytes land when the entry finishes streaming; the next gate check
    // happens at the same instant. The capture stays two words (INTERNALS
    // §3 caveat 3): the entry waits in the flight.
    eq_.schedule_after(step, [this, id] {
        const Flight *fl = live(id);
        if (!fl || fl->cancelled) return;
        execute_one(fl->streaming);
        step_chain(id);
    });
}

void
Edma3Engine::finish_flight(TransferId id, Flight &fl)
{
    fl.completed = true;
    if (!fl.error) ++stats_.transfers_completed;
    if (fl.lose_irq) {
        ++stats_.interrupts_lost;
        return;  // nobody learns of the completion
    }
    // An error interrupt is never moderated: the CC error line is
    // separate from the completion line, so time-to-detection of a
    // TC bus error is identical with moderation on or off.
    if (fl.moderated && !fl.error) {
        hold_completion(id, fl);
        return;
    }
    if (fl.raise_irq) ++stats_.interrupts_raised;
    deliver(id, fl);
}

void
Edma3Engine::deliver(TransferId id, Flight &fl)
{
    if (retire_hook_) retire_hook_(id);
    // The callback runs once, and its owner may release the record
    // while it runs: take it out of the record first.
    if (CompletionFn done = std::move(fl.on_complete)) done(id);
}

Edma3Engine::Flight *
Edma3Engine::live(TransferId id) const
{
    const std::uint32_t slot = transfer_slot(id);
    if (slot >= flights_.size()) return nullptr;
    const Flight &fl = flights_[slot];
    return fl.generation == id >> 32 ? const_cast<Flight *>(&fl) : nullptr;
}

Edma3Engine::Flight &
Edma3Engine::record(TransferId id) const
{
    Flight *fl = live(id);
    MEMIF_ASSERT(fl, "DMA transfer %#llx queried after its release",
                 static_cast<unsigned long long>(id));
    return *fl;
}

void
Edma3Engine::hold_completion(TransferId id, Flight &fl)
{
    const unsigned tc = fl.tc;
    Moderation &mod = moderation_[tc];
    fl.delivery_pending = true;
    mod.pending.push_back(id);
    // While masked the driver's poller reaps held completions itself
    // (NAPI-style); neither the batch threshold nor the holdoff timer
    // raises an IRQ. An already-armed timer keeps running as a
    // liveness backstop.
    if (moderation_mask_ > 0) return;
    if (mod.pending.size() >= cm_.dma_moderation_batch) {
        flush_moderated(tc);
        return;
    }
    // First held completion arms the holdoff timer; later ones ride it.
    if (mod.timer == sim::EventQueue::kInvalidEvent) {
        mod.timer =
            eq_.schedule_after(cm_.dma_moderation_holdoff, [this, tc] {
                moderation_[tc].timer = sim::EventQueue::kInvalidEvent;
                ++stats_.moderation_timer_flushes;
                flush_moderated(tc);
            });
    }
}

void
Edma3Engine::flush_moderated(unsigned tc)
{
    Moderation &mod = moderation_[tc];
    if (mod.timer != sim::EventQueue::kInvalidEvent) {
        eq_.cancel(mod.timer);
        mod.timer = sim::EventQueue::kInvalidEvent;
    }
    if (mod.pending.empty()) return;
    // The batch leaves mod.pending the spare's capacity and becomes the
    // spare again below, so a flush allocates nothing. (A flush that a
    // delivery re-enters finds the spare taken and starts empty.)
    std::vector<TransferId> batch = std::move(spare_batch_);
    batch.clear();
    batch.swap(mod.pending);
    // One coalesced IRQ retires the whole batch.
    ++stats_.interrupts_raised;
    ++stats_.moderated_irqs;
    for (TransferId id : batch) {
        Flight *fl = live(id);
        if (!fl || !fl->delivery_pending)
            continue;  // discarded (watchdog or teardown) meanwhile
        fl->delivery_pending = false;
        ++stats_.moderated_completions;
        deliver(id, *fl);
    }
    batch.clear();
    spare_batch_ = std::move(batch);
}

void
Edma3Engine::unmask_moderation()
{
    MEMIF_ASSERT(moderation_mask_ > 0, "unbalanced unmask_moderation");
    if (--moderation_mask_ > 0) return;
    // Deliver anything the poller left behind before it goes idle.
    for (unsigned tc = 0; tc < kNumTcs; ++tc) flush_moderated(tc);
}

bool
Edma3Engine::discard_moderated(TransferId id)
{
    Flight &fl = record(id);
    if (!fl.delivery_pending) return false;
    fl.delivery_pending = false;
    Moderation &mod = moderation_[fl.tc];
    std::erase(mod.pending, id);
    if (mod.pending.empty() &&
        mod.timer != sim::EventQueue::kInvalidEvent) {
        eq_.cancel(mod.timer);
        mod.timer = sim::EventQueue::kInvalidEvent;
    }
    return true;
}

void
Edma3Engine::execute_one(const TransferDescriptor &d)
{
    // Every copy goes through PhysicalMemory::post_copy_at, in order
    // with this thread's copy FIFO: a span of 256 KB or more is queued
    // for the copier threads and the event loop moves on, a smaller one
    // lands at once unless it must queue behind the FIFO, and anything
    // a later event reads waits for the FIFO first. A packed frame
    // (BIDX == ACNT on both sides: each array starts where the previous
    // one ended) is one span. A packed frame that straddles a node
    // boundary on either side, and every other geometry, walks its
    // arrays.
    const bool packed = d.b_cnt > 1 && d.src_bidx == d.a_cnt &&
                        d.dst_bidx == d.a_cnt;
    const std::uint64_t frame_bytes = std::uint64_t{d.a_cnt} * d.b_cnt;
    for (std::uint32_t frame = 0; frame < (d.c_cnt ? d.c_cnt : 1);
         ++frame) {
        const std::uint64_t src0 = d.src + frame * std::int64_t{d.src_cidx};
        const std::uint64_t dst0 = d.dst + frame * std::int64_t{d.dst_cidx};
        if (packed && pm_.post_copy_at(dst0, src0, frame_bytes)) {
            stats_.bytes_copied += frame_bytes;
            continue;
        }
        for (std::uint32_t arr = 0; arr < d.b_cnt; ++arr) {
            const std::uint64_t src = src0 + arr * std::int64_t{d.src_bidx};
            const std::uint64_t dst = dst0 + arr * std::int64_t{d.dst_bidx};
            const bool posted = pm_.post_copy_at(dst, src, d.a_cnt);
            MEMIF_ASSERT(posted, "DMA array of %u bytes leaves its node",
                         unsigned{d.a_cnt});
            stats_.bytes_copied += d.a_cnt;
        }
    }
}

void
Edma3Engine::execute_copies(DescIndex head)
{
    DescIndex idx = head;
    while (idx != kNullLink) {
        const TransferDescriptor &d = ram_.read(idx);
        execute_one(d);
        idx = d.link;
    }
}

bool
Edma3Engine::is_complete(TransferId id) const
{
    return record(id).completed;
}

TransferStatus
Edma3Engine::status(TransferId id) const
{
    const Flight &fl = record(id);
    if (fl.cancelled) return TransferStatus::kCancelled;
    if (!fl.completed) return TransferStatus::kInFlight;
    if (!fl.error) return TransferStatus::kOk;
    return fl.gate_fault ? TransferStatus::kXlateFault
                         : TransferStatus::kError;
}

sim::SimTime
Edma3Engine::completion_time(TransferId id) const
{
    return record(id).completes_at;
}

bool
Edma3Engine::cancel(TransferId id)
{
    Flight &fl = record(id);
    if (fl.completed) return false;
    if (!fl.cancelled) {
        fl.cancelled = true;
        ++stats_.transfers_cancelled;
    }
    return true;
}

void
Edma3Engine::release(TransferId id)
{
    Flight &fl = record(id);
    MEMIF_ASSERT(fl.completed || fl.cancelled,
                 "release of a DMA transfer still in flight");
    MEMIF_ASSERT(!fl.delivery_pending,
                 "release of a DMA transfer whose delivery is held");
    // A new generation: the engine's pending step or completion event
    // for @p id, if any, finds the slot gone.
    const std::uint32_t generation = fl.generation + 1;
    fl = Flight{};
    fl.generation = generation;
    free_slots_.push_back(transfer_slot(id));
}

}  // namespace memif::dma
