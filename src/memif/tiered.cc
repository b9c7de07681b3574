/**
 * @file
 * Tiered memory: the chained multi-hop eviction engine (tiered_memory
 * lever). A migration between non-adjacent tiers (SRAM ↔ far, as the
 * SLIT distances encode) is decomposed into per-hop DMA stages through
 * the middle (DDR) tier: the request is split into bounded batches,
 * each batch leases staging frames from a capped pool, copies
 * old→staging (hop 1) then staging→new (hop 2), and returns the
 * frames. With pipelined_eviction on, up to kChainWindow batches
 * are in flight at once and their stages execute out of order across
 * the engine's transfer controllers — batch k+1's fast hop overlaps
 * batch k's slow far hop — so a large eviction approaches the far
 * tier's bandwidth instead of the sum of both hops' serial times.
 *
 * Recovery is per hop: each stage runs the driver's one transfer
 * supervisor (the one every flight runs) over a transfer of its own —
 * completion interrupt or deadline, then the ladder of bounded retries
 * with exponential backoff and the CPU byte-copy fallback. No drain or
 * reap pass sees hop transfers: they are not in the flight table. A
 * stage whose ladder runs dry fails the chain: sibling batches stop
 * before their next hop, and the master rolls the remap back.
 * Mid-chain state is recoverable by construction — completed hops only
 * wrote staging or new frames that no PTE points at yet (chained
 * flights migrate behind blocking migration PTEs), so the old frames
 * stay authoritative until Release.
 */
#include "memif/device.h"

#include <algorithm>

#include "sim/log.h"

namespace memif::core {

using sim::ExecContext;
using sim::Op;

namespace {

/** Pages (of the request's order) per chained batch: the pipelining
 *  grain. */
constexpr std::uint32_t kChainBatchPages = 16;
/** Batches a pipelined chain keeps in flight (bounds its staging
 *  demand and the out-of-order window). */
constexpr std::uint32_t kChainWindow = 4;
/** Cap on middle-tier staging frames (4 KB) leased across all chains. */
constexpr std::uint64_t kStagingPoolPages = 128;

}  // namespace

sim::Task
MemifDevice::staging_acquire(mem::NodeId mid, unsigned order,
                             std::uint32_t pages,
                             std::vector<mem::Pfn> *out, bool *ok)
{
    *ok = false;
    const std::uint64_t frames = std::uint64_t{pages} << order;
    // The pool bounds total staging memory across all chains. A batch
    // larger than the whole cap may borrow past it *alone* (progress
    // guarantee); everyone else waits for a peer's release.
    bool waited = false;
    while (staging_frames_out_ != 0 &&
           staging_frames_out_ + frames > kStagingPoolPages) {
        if (!waited) {
            waited = true;
            ++stats_.staging_pool_waits;
        }
        co_await staging_wq_.wait();
        if (stopping_) co_return;
    }
    staging_frames_out_ += frames;
    if (staging_frames_out_ > stats_.staging_frames_hwm)
        stats_.staging_frames_hwm = staging_frames_out_;
    // Straight from the buddy, not the magazines: staging frames are
    // transient device property, never tenant-charged, and freeing
    // them back keeps the magazines' accounting untouched.
    const sim::CostModel &cm = kernel_.costs();
    mem::PhysicalMemory &pm = kernel_.phys();
    sim::Duration cost = 0;
    std::vector<mem::Pfn> got;
    got.reserve(pages);
    bool exhausted = false;
    for (std::uint32_t i = 0; i < pages; ++i) {
        cost += cm.page_alloc_time(order);
        const mem::Pfn pfn = pm.allocate(mid, order);
        if (pfn == mem::kInvalidPfn) {
            exhausted = true;
            break;
        }
        got.push_back(pfn);
    }
    if (exhausted) {
        // Middle tier itself is full: undo and report — the batch
        // degrades to a direct end-to-end hop.
        for (const mem::Pfn pfn : got) pm.free(pfn, order);
        staging_frames_out_ -= frames;
        staging_wq_.notify_all();
        co_await kernel_.cpu().busy(ExecContext::kKthread, Op::kRemap,
                                    cost);
        co_return;
    }
    co_await kernel_.cpu().busy(ExecContext::kKthread, Op::kRemap, cost);
    *out = std::move(got);
    *ok = true;
}

void
MemifDevice::staging_release(std::vector<mem::Pfn> &frames, unsigned order)
{
    mem::PhysicalMemory &pm = kernel_.phys();
    for (const mem::Pfn pfn : frames) pm.free(pfn, order);
    staging_frames_out_ -= std::uint64_t{frames.size()} << order;
    frames.clear();
    staging_wq_.notify_all();
}

sim::Task
MemifDevice::run_chain_batch(InFlightPtr fl, ChainStatePtr cs,
                             mem::NodeId mid, std::uint32_t first,
                             std::uint32_t count)
{
    ++stats_.chain_batches;
    // One hop stage: a supervisor over a fresh transfer, in kernel-
    // thread context. The hop landed exactly when its transfer says so.
    Transfer x;
    const auto hop = [&](const std::vector<dma::SgEntry> *sg) {
        x = Transfer{};
        return supervise(fl,
                         Supervision{.x = &x,
                                     .sg = sg,
                                     .ctx = ExecContext::kKthread},
                         nullptr);
    };
    const auto landed = [&] { return x.landed(kernel_.dma()); };
    if (!fl->aborted && !stopping_) {
        // This batch's pages of the flight.
        const auto old_pfns =
            std::span<const mem::Pfn>(fl->old_pfns).subspan(first, count);
        const auto new_pfns =
            std::span<const mem::Pfn>(fl->new_pfns).subspan(first, count);
        std::vector<mem::Pfn> staging;
        bool have_staging = false;
        co_await staging_acquire(mid, fl->order, count, &staging,
                                 &have_staging);
        if (!fl->aborted && !stopping_) {
            if (have_staging) {
                // Bulk-allocated staging frames are usually contiguous,
                // so each hop merges its runs (the sg_coalescing rule).
                const std::vector<dma::SgEntry> hop1 = lower_page_pairs(
                    old_pfns, staging, fl->order, /*merge=*/true);
                const std::vector<dma::SgEntry> hop2 = lower_page_pairs(
                    staging, new_pfns, fl->order, /*merge=*/true);
                stats_.sg_entries_emitted += hop1.size() + hop2.size();
                co_await hop(&hop1);
                if (landed() && !fl->aborted && !stopping_)
                    co_await hop(&hop2);
            } else {
                // Middle tier exhausted: degrade this batch to one
                // direct end-to-end hop — correct, just unstaged (the
                // far latency rides on every descriptor, and nothing
                // overlaps inside the batch).
                const std::vector<dma::SgEntry> direct = lower_page_pairs(
                    old_pfns, new_pfns, fl->order, /*merge=*/true);
                stats_.sg_entries_emitted += direct.size();
                co_await hop(&direct);
            }
            if (!landed()) fl->aborted = true;  // the ladder ran dry
        }
        if (!staging.empty()) staging_release(staging, fl->order);
    }
    --cs->batches_left;
    cs->join.notify_all();
}

sim::Task
MemifDevice::run_chain(InFlightPtr fl, mem::NodeId mid)
{
    const auto pages = static_cast<std::uint32_t>(fl->plan.src.pages);
    const std::uint32_t nb = (pages + kChainBatchPages - 1) / kChainBatchPages;
    auto cs = std::make_shared<ChainState>(kernel_.eq());
    cs->batches_left = nb;
    // Pipelined: keep up to kChainWindow batches in flight; their
    // hop stages land on whichever TC frees up first, so batch k+1's
    // hop 1 runs while batch k's hop 2 is still copying. Sequential
    // (store-and-forward, the bench baseline): a window of one batch,
    // each batch's hops in series.
    const std::uint32_t window = config_.pipelined_eviction ? kChainWindow : 1;
    // Batch frames are owned here: destroying the master (device
    // teardown destroys tasks_) destroys every suspended batch
    // and hop frame with it, so nothing kernel-owned can resume into a
    // dead device.
    std::vector<sim::Task> batches;
    std::uint32_t launched = 0;
    for (std::uint32_t b = 0; b < nb; ++b) {
        while (launched - (nb - cs->batches_left) >= window)
            co_await cs->join.wait();
        if (stopping_) co_return;
        const std::uint32_t first = b * kChainBatchPages;
        const std::uint32_t count =
            std::min<std::uint32_t>(kChainBatchPages, pages - first);
        sim::reap_finished(batches);
        batches.push_back(run_chain_batch(fl, cs, mid, first, count));
        ++launched;
    }
    while (cs->batches_left != 0) co_await cs->join.wait();
    if (stopping_) co_return;
    if (fl->aborted) {
        // Mid-chain failure: only unfinished hops are lost — completed
        // hops wrote frames no PTE points at, so restoring the old
        // PTEs (and freeing the new frames) is the whole rollback.
        ++stats_.chain_rollbacks;
        fail_unrecoverable(fl, ExecContext::kKthread, MovError::kDmaError);
    } else {
        co_await do_release(fl, ExecContext::kKthread);
    }
    // The master retires the flight itself — no completion interrupt
    // fires for a chain. The worker may have gone to sleep while this
    // flight was the only thing keeping the queues kernel-owned (red);
    // wake it so it can hand flush responsibility back to the
    // application, or nothing ever kicks the next submission.
    wake_kthread();
}

}  // namespace memif::core
