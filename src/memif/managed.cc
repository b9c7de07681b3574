/**
 * @file
 * Managed mode (auto_migrate lever): the heat-sampling scan kthread
 * and the migration daemon.
 *
 * The scan kthread wakes every heat_scan_interval, walks the PTEs of
 * every region registered through manage_region() with the same atomic
 * test-and-rearm path the CPU-access emulation uses (never resolving a
 * fault, never blocking on a migration PTE), and folds the young/dirty
 * observations into per-bucket heat state (heat_policy.h). The daemon
 * kthread turns policy verdicts into ordinary device-originated
 * migration requests: demotions first (freeing fast-node frames for
 * the promotions that follow), bounded per epoch by
 * migrate_pages_per_epoch and backed off whenever the engine backlog
 * reaches kDaemonBacklogLimit, so background placement can never
 * starve application traffic — daemon movs also compete through the
 * WRR at their own weight rather than jumping the queue.
 *
 * Failure handling is strictly absorb-and-cool-down: a daemon mov that
 * comes back failed (allocation exhaustion, DMA error past the
 * recovery ladder, kBusy collision with an app request) is dropped and
 * its bucket sits out kDaemonFailCooldown epochs. Nothing is ever
 * retried on — or diverted to — the fault path.
 */
#include "memif/device.h"

#include <algorithm>
#include <cstdio>

#include "sim/cost_model.h"
#include "sim/log.h"
#include "vm/addr_space.h"
#include "vm/pte.h"

namespace memif::core {

using sim::ExecContext;
using sim::Op;

namespace {

/** Epochs a bucket sits out after its daemon mov failed (or the fast
 *  node could not fit its promotion). */
constexpr std::uint32_t kDaemonFailCooldown = 8;

/** Engine-backlog backoff: the daemon stops issuing once this many
 *  requests are in flight or pending for it — one per transfer
 *  controller — so it never starves application traffic. */
constexpr std::size_t kDaemonBacklogLimit = dma::Edma3Engine::kNumTcs;

}  // namespace

bool
MemifDevice::daemon_tiered() const
{
    return config_.tiered_memory && kernel_.has_far_node();
}

bool
MemifDevice::manage_region(vm::VAddr base, std::uint32_t asid)
{
    if (!config_.auto_migrate) return false;
    Tenant *t = tenant_for(asid);
    if (!t) return false;
    vm::AddressSpace &as = t->proc->as();
    vm::Vma *vma = as.find_vma(base);
    if (!vma) return false;
    for (const auto &mr : managed_)
        if (mr->vma == vma) return true;  // already managed
    managed_.push_back(
        std::make_unique<ManagedRegion>(config_.heat, asid, &as, vma));
    // Arm every page up front: a fresh PTE carries young == 0, which
    // the first scan would read as "the whole region was just
    // accessed" and promote-storm cold pages into the fast node.
    // Arming means the scanner only ever sees heat an actual touch
    // produced.
    for (std::uint64_t p = 0; p < vma->num_pages(); ++p)
        as.heat_sample(*vma, p);
    wake_scanner();
    return true;
}

void
MemifDevice::unmanage_region(vm::VAddr base, std::uint32_t asid)
{
    // In-flight daemon movs for the region complete normally; their
    // terminal handling tolerates the missing record and just recycles
    // the slot.
    std::erase_if(managed_, [&](const std::unique_ptr<ManagedRegion> &mr) {
        return mr->asid == asid && mr->vma->base() == base;
    });
}

std::uint64_t
MemifDevice::heat_ping_pongs() const
{
    std::uint64_t total = 0;
    for (const auto &mr : managed_) total += mr->heat.ping_pongs();
    return total;
}

void
MemifDevice::wake_scanner()
{
    if (!config_.auto_migrate || !scan_parked_ || managed_.empty()) return;
    scan_wq_.notify_one();
}

bool
MemifDevice::page_run_in_flight(const vm::Vma *vma, PageRun run,
                                Movers movers)
{
    auto overlaps = [&](const InFlightPtr &fl) {
        // App-vs-app overlap keeps its pre-managed semantics (the
        // migration PTE check in Prep; replications may legitimately
        // share read-only source pages) — the gate only arbitrates
        // collisions that involve a daemon mov.
        if (movers == Movers::kDaemon && !fl->daemon) return false;
        if (movers == Movers::kMigration && fl->op != MovOp::kMigrate)
            return false;
        return (fl->vma == vma && fl->plan.src.overlaps(run)) ||
               (fl->op == MovOp::kReplicate && fl->dst_vma == vma &&
                fl->plan.dst.overlaps(run));
    };
    return std::ranges::any_of(in_flight_, overlaps) ||
           std::ranges::any_of(pending_release_, overlaps);
}

HeatTier
MemifDevice::bucket_tier(const ManagedRegion &mr,
                         std::uint64_t bucket) const
{
    const vm::Pte pte = mr.vma->pte(mr.heat.first_page(bucket));
    if (!pte.present) return HeatTier::kSlow;
    const mem::NodeId n = kernel_.phys().node_of(pte.pfn);
    if (n == kernel_.fast_node()) return HeatTier::kFast;
    // Without the tiered daemon a far-resident page is just "not
    // fast": the verdict it gets is the two-tier one.
    if (daemon_tiered() && n == kernel_.far_node()) return HeatTier::kFar;
    return HeatTier::kSlow;
}

sim::Duration
MemifDevice::scan_epoch(bool *any_accessed, bool *has_work,
                        bool *still_hot)
{
    const sim::CostModel &cm = kernel_.costs();
    sim::Duration cost = 0;
    ++stats_.heat_scans;
    for (const auto &mrp : managed_) {
        ManagedRegion &mr = *mrp;
        std::uint64_t region_rearmed = 0;
        for (std::uint64_t b = 0; b < mr.heat.num_buckets(); ++b) {
            if (mr.cooldown[b] > 0) --mr.cooldown[b];
            const std::uint64_t first = mr.heat.first_page(b);
            const std::uint32_t pages = mr.heat.pages_in(b);
            if (mr.busy[b] || page_run_in_flight(mr.vma, {first, pages})) {
                // A bucket with a move in flight is the driver's, not
                // the scanner's. Decay must not stall: fold zeros.
                stats_.heat_pages_skipped += pages;
                mr.heat.fold(b, 0, 0, 0);
                continue;
            }
            if (mr.dormant[b] > 0) {
                // Settled: pages are unarmed (the app traps on none of
                // them) and the heat state is frozen until the probe.
                // A dormant hot bucket still keeps the scanner alive —
                // once the app goes idle its probe must run the decay
                // down to a demotion before the scanner may park.
                if (--mr.dormant[b] == 0) mr.probing[b] = true;
                if (mr.heat.bucket(b).hot) *still_hot = true;
                continue;
            }
            std::uint32_t accessed = 0, written = 0, sampled = 0;
            for (std::uint32_t i = 0; i < pages; ++i) {
                const vm::HeatSample s =
                    mr.as->heat_sample(*mr.vma, first + i);
                // Sequential PTE read (the walk stays in one leaf);
                // re-arming pays the CAS, and — unless the batched
                // shootdown lever folds them into one ranged
                // invalidation per region below — a per-page broadcast.
                cost += cm.page_walk_adjacent;
                if (s.rearmed) {
                    ++region_rearmed;
                    cost += cm.pte_cas;
                    if (!config_.batched_tlb_shootdown)
                        cost += cm.tlb_flush_page;
                }
                if (!s.sampled) continue;
                ++sampled;
                if (s.accessed) ++accessed;
                if (s.written) ++written;
            }
            if (mr.probing[b]) {
                // First pass after a sleep only re-armed the PTEs: the
                // young bits were left clear the whole sleep, so this
                // pass's "accessed" readings are artifacts of our own
                // disarming. Fold nothing; next epoch reads real heat.
                // A cold bucket also forgets its frozen partial heat:
                // the gap was unobserved, so stale age must not stack
                // with post-wake touches into a spurious promotion.
                mr.probing[b] = false;
                mr.heat.reset_cold(b);
                if (mr.heat.bucket(b).hot) *still_hot = true;
                continue;
            }
            mr.heat.fold(b, accessed, written, sampled);
            stats_.heat_pages_sampled += sampled;
            stats_.heat_pages_accessed += accessed;
            stats_.heat_pages_written += written;
            if (accessed > 0) *any_accessed = true;
            // A hot bucket that stops being touched is not settled:
            // decay is still heading for a demotion (or a deferred
            // promotion retry), so the scanner must keep running it
            // down rather than park with stale pages on the fast node.
            if (mr.heat.bucket(b).hot) *still_hot = true;
            if (mr.cooldown[b] > 0) continue;
            // Tiered mode's verdict sees the far tier: a warm-band
            // bucket parked there (or a cold one on DDR) is work too,
            // and a parked scanner would strand it.
            const bool stay = mr.heat.classify(b, bucket_tier(mr, b),
                                               daemon_tiered()) ==
                              TierVerdict::kStay;
            if (!stay) *has_work = true;
            // Settling: epochs with no placement work extend the
            // streak; enough of them put the bucket to sleep, and each
            // matching probe afterwards doubles the sleep up to the
            // cap. A cold bucket settles even when the odd sweep grazes
            // it — arming a rarely-touched page only taxes the app with
            // access-flag traps for no verdict change — but a hot
            // bucket settles only while fully touched: once its
            // accesses thin out the decay must keep folding every epoch
            // so the demotion lands promptly.
            const bool matches =
                stay && (!mr.heat.bucket(b).hot ||
                         (sampled == pages && accessed == sampled));
            if (config_.heat_settle_epochs > 0 && matches) {
                ++mr.streak[b];
                if (mr.next_dorm[b] > 0 ||
                    mr.streak[b] >= config_.heat_settle_epochs) {
                    mr.next_dorm[b] = std::min(
                        std::max(mr.next_dorm[b] * 2,
                                 config_.heat_settle_epochs),
                        std::max<std::uint32_t>(config_.heat_dormant_cap,
                                                1));
                    mr.dormant[b] = mr.next_dorm[b];
                    mr.streak[b] = 0;
                }
            } else {
                mr.streak[b] = 0;
                mr.next_dorm[b] = 0;
            }
        }
        // One ranged invalidation covers every PTE the pass re-armed in
        // this region — the same batching the driver uses for migration
        // unmaps. Without it the scan pays a broadcast per touched page
        // and the epoch stretches to several times the configured
        // interval on large working sets.
        if (config_.batched_tlb_shootdown && region_rearmed > 0)
            cost += cm.tlb_flush_range_time(region_rearmed);
    }
    return cost;
}

sim::Task
MemifDevice::scan_loop()
{
    os::Kernel &k = kernel_;
    for (;;) {
        if (stopping_) co_return;
        if (managed_.empty() ||
            scan_quiet_epochs_ >= config_.scan_idle_park_epochs) {
            // Nothing is moving: park until device activity (an app
            // completion, a trap on a scanner-armed page, or a new
            // managed region) says the working set is live again.
            scan_parked_ = true;
            co_await scan_wq_.wait();
            scan_parked_ = false;
            scan_quiet_epochs_ = 0;
            continue;
        }
        co_await sim::Delay{k.eq(), config_.heat_scan_interval};
        if (stopping_) co_return;
        if (managed_.empty()) continue;
        bool any_accessed = false;
        bool has_work = false;
        bool still_hot = false;
        const sim::Duration cost =
            scan_epoch(&any_accessed, &has_work, &still_hot);
        co_await k.cpu().busy(ExecContext::kKthread, Op::kOther, cost);
        // Each epoch refreshes the daemon's page budget; unspent budget
        // does not roll over (the cap is a rate, not a credit line).
        daemon_budget_ = config_.migrate_pages_per_epoch;
        if (has_work && daemon_parked_) daemon_wq_.notify_one();
        if (!any_accessed && !has_work && !still_hot &&
            daemon_movs_.empty())
            ++scan_quiet_epochs_;
        else
            scan_quiet_epochs_ = 0;
    }
}

sim::Task
MemifDevice::daemon_loop()
{
    os::Kernel &k = kernel_;
    const sim::CostModel &cm = k.costs();
    for (;;) {
        if (stopping_) co_return;
        daemon_parked_ = true;
        co_await daemon_wq_.wait();
        daemon_parked_ = false;
        if (stopping_) co_return;
        co_await k.cpu().busy(ExecContext::kKthread, Op::kSched,
                              cm.kthread_wakeup);
        daemon_issue_pass();
    }
}

void
MemifDevice::daemon_issue_pass()
{
    if (stopping_ || managed_.empty()) return;
    // Demotions first: they free the very fast-node frames the
    // promotions that follow want to land in.
    const bool far_tier = daemon_tiered();
    for (const bool promote_leg : {false, true}) {
        for (const auto &mrp : managed_) {
            ManagedRegion &mr = *mrp;
            for (std::uint64_t b = 0; b < mr.heat.num_buckets(); ++b) {
                if (mr.busy[b] || mr.cooldown[b] > 0) continue;
                const HeatTier tier = bucket_tier(mr, b);
                const TierVerdict v = mr.heat.classify(b, tier, far_tier);
                if (v == TierVerdict::kStay) continue;
                const mem::NodeId dst =
                    v == TierVerdict::kToFast   ? kernel_.fast_node()
                    : v == TierVerdict::kToSlow ? kernel_.slow_node()
                                                : kernel_.far_node();
                // Anything moving toward the CPU is a promotion —
                // far→slow included: it allocates in the very space
                // the demotion sweep just freed, so it must run in
                // the second leg of the pass like every promotion.
                const bool promote =
                    v == TierVerdict::kToFast ||
                    (v == TierVerdict::kToSlow && tier == HeatTier::kFar);
                if (promote != promote_leg) continue;
                const std::uint32_t pages = mr.heat.pages_in(b);
                if (daemon_budget_ < pages) {
                    ++stats_.daemon_budget_exhausted;
                    return;  // next epoch refills the budget
                }
                // Engine saturated with (mostly app) work: back off
                // entirely; a completion wakes us again.
                if (in_flight_.size() + daemon_tenant_.pending.size() >=
                    kDaemonBacklogLimit)
                    return;
                if (promote) {
                    const unsigned ord =
                        vm::page_order(mr.vma->page_size());
                    mem::MemoryNode &dstn = kernel_.phys().node(dst);
                    if (!dstn.buddy().can_allocate(ord, pages)) {
                        // No room: don't burn the recovery ladder on a
                        // mov that must fail — cool the bucket down and
                        // let demotions open space first.
                        mr.cooldown[b] = kDaemonFailCooldown;
                        continue;
                    }
                }
                daemon_submit_bucket(mr, b, promote, dst);
            }
        }
    }
}

bool
MemifDevice::daemon_submit_bucket(ManagedRegion &mr, std::uint64_t bucket,
                                  bool promote, mem::NodeId dst)
{
    const sim::CostModel &cm = kernel_.costs();
    const lockfree::DequeueResult d = region_.free_queue().dequeue();
    if (!d.ok) return false;  // the app owns every request slot
    const std::uint32_t pages = mr.heat.pages_in(bucket);
    MovReq &req = region_.request(d.value);
    req.error = MovError::kNone;
    req.submit_time = kernel_.eq().now();
    // The driver-side record marks the slot as the daemon's and carries
    // the mov itself, before the request becomes visible: routing, Prep
    // and notify consult it, never the slot, whose parameter fields
    // still hold whatever its last user left there.
    daemon_movs_[d.value] = DaemonMov{
        .vma = mr.vma,
        .bucket = bucket,
        .promote = promote,
        .snap = {.op = MovOp::kMigrate,
                 .src_base = mr.vma->page_vaddr(mr.heat.first_page(bucket)),
                 .dst_node = dst,
                 .num_pages = pages,
                 .asid = mr.asid}};  // resolves in the target's tables
    req.store_status(MovStatus::kSubmitted);
    region_.submission_queue().enqueue(d.value);
    kernel_.cpu().charge(ExecContext::kKthread, Op::kQueue,
                         cm.queue_op * 2);
    mr.busy[bucket] = true;
    daemon_budget_ -= pages;
    ++daemon_tenant_.stats.admitted;
    if (promote)
        ++stats_.promotions_issued;
    else
        ++stats_.demotions_issued;
    wake_kthread();
    return true;
}

void
MemifDevice::daemon_request_done(std::uint32_t idx, MovStatus status,
                                 MovError error)
{
    const DaemonMov dm = daemon_movs_.extract(idx).mapped();
    const std::uint32_t pages = dm.snap.num_pages;
    ++daemon_tenant_.stats.completed;

    // The region may have been unmanaged while the mov was in flight.
    ManagedRegion *mr = nullptr;
    for (const auto &p : managed_)
        if (p->vma == dm.vma) {
            mr = p.get();
            break;
        }
    if (status == MovStatus::kDone) {
        if (dm.promote)
            ++stats_.promotions_completed;
        else
            ++stats_.demotions_completed;
        daemon_tenant_.stats.pages_moved += pages;
        if (mr) {
            daemon_tenant_.stats.bytes_moved +=
                std::uint64_t{pages} *
                vm::page_bytes(mr->vma->page_size());
            // Re-arm the bucket right away: migration installs fresh
            // PTEs with young clear, which the next scan would misread
            // as an access — the just-moved bucket would re-heat, decay
            // and move again, forever. Arming now means only a real
            // touch can make it look accessed.
            const std::uint64_t first = mr->heat.first_page(dm.bucket);
            for (std::uint32_t i = 0; i < pages; ++i)
                mr->as->heat_sample(*mr->vma, first + i);
        }
    } else {
        // Absorb the failure (whatever was left of the recovery ladder
        // already ran): drop the verdict and sit the bucket out. A
        // mid-move CPU touch (race, rollback, busy collision) is
        // transient — the sweep has moved past the bucket within an
        // epoch — while resource failures get the full cooldown so the
        // daemon cannot hammer an exhausted fast node.
        ++stats_.daemon_movs_dropped;
        const bool transient = status == MovStatus::kRaceDetected ||
                               status == MovStatus::kAborted ||
                               error == MovError::kBusy;
        if (mr)
            mr->cooldown[dm.bucket] =
                transient ? 1 : kDaemonFailCooldown;
    }
    if (mr) mr->busy[dm.bucket] = false;

    // Recycle the slot straight back to the free queue — daemon movs
    // never surface on the completion queues.
    region_.request(idx).store_status(MovStatus::kFree);
    region_.free_queue().enqueue(idx);

    if (daemon_parked_) daemon_wq_.notify_one();
}

}  // namespace memif::core
